"""Checkpoint smoke: interrupt a run mid-schedule, resume, diff digests.

The CI ``checkpoint-smoke`` job runs this script and fails unless a run
interrupted right after its checkpoint landed and resumed from disk
reproduces the uninterrupted run's outputs **bit for bit** — session
records, day metrics, every latency list and (with ``--chaos``) the
fault-accounting summary.  ``--scenario NAME`` runs a built-in scenario
instead (its own config and run length), so its workload overrides —
flash crowds, timezone offsets, quality ceiling, downlink cap — must
come back from the checkpoint too.

It also checks encoder parity on every file the run's checkpointer
wrote, before and after the resume: the payload bytes in the file must
be exactly ``canonical_json`` of the parsed payload, and the manifest
digest must verify.  The checkpointer encodes result rows
incrementally, so this fails loudly if that writer ever drifts from
the one-shot canonical encoding.

Run standalone::

    PYTHONPATH=src python benchmarks/checkpoint_smoke.py
    PYTHONPATH=src python benchmarks/checkpoint_smoke.py --chaos --days 4
    PYTHONPATH=src python benchmarks/checkpoint_smoke.py --scenario esports-final
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))

from helpers.golden import fault_summary_digest, run_result_digest  # noqa: E402

from repro.core import CloudFogSystem  # noqa: E402
from repro.core.config import cloudfog_advanced  # noqa: E402
from repro.faults.plan import FaultEvent, FaultPlan  # noqa: E402
from repro.persist import (Checkpointer, canonical_json,  # noqa: E402
                           payload_digest, resume_run)
from repro.scenarios import get_scenario, scenario_names  # noqa: E402
from repro.scenarios.compile import compile_scenario  # noqa: E402


class _Interrupted(Exception):
    """Stands in for SIGKILL/OOM right after a checkpoint landed."""


def smoke_plan(days: int) -> FaultPlan:
    """One crash + one flaky throttle per middle day, plus refusals."""
    events = []
    for day in range(1, days):
        events.append(FaultEvent(day=day, subcycle=8, kind="crash", count=1))
        events.append(FaultEvent(day=day, subcycle=14, kind="flaky",
                                 severity=0.3))
    return FaultPlan(events=tuple(events), transient_refusal_prob=0.1)


def encoding_drift(path: pathlib.Path) -> str | None:
    """Why a checkpoint is not its parsed payload's canonical encoding
    under a verifying digest, or None when it is."""
    data = path.read_bytes()
    document = json.loads(data)
    # The writer's file is the canonical document, so this holds exactly
    # when the payload bytes in it are canonical_json(payload).
    if data != canonical_json(document).encode():
        return "payload bytes differ from canonical_json(payload)"
    if document["manifest"]["payload_sha256"] != \
            payload_digest(document["payload"]):
        return "manifest digest does not verify"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=None,
                        help="run length (default 3, or the scenario's)")
    parser.add_argument("--interrupt-after", type=int, default=0,
                        metavar="DAY",
                        help="kill the run after this day's checkpoint "
                             "(default 0)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--players", type=int, default=150)
    parser.add_argument("--supernodes", type=int, default=10)
    parser.add_argument("--chaos", action="store_true",
                        help="inject faults (crashes, flaky throttling, "
                             "transient refusals) during the run")
    parser.add_argument("--scenario", choices=scenario_names(),
                        metavar="NAME",
                        help="run this built-in scenario instead "
                             "(ignores --players/--supernodes/--seed)")
    args = parser.parse_args(argv)
    if args.scenario is not None and args.chaos:
        parser.error("--chaos and --scenario are exclusive")
    if args.scenario is not None:
        compiled = compile_scenario(get_scenario(args.scenario))
        config = compiled.config
        args.days = args.days or compiled.days
    else:
        args.days = args.days or 3
        config = cloudfog_advanced(
            num_players=args.players, num_supernodes=args.supernodes,
            seed=args.seed,
            fault_plan=smoke_plan(args.days) if args.chaos else None)
    if not 0 <= args.interrupt_after < args.days - 1:
        parser.error("--interrupt-after must leave at least one day to "
                     "resume")

    baseline = CloudFogSystem(config).run(days=args.days)
    expected = (run_result_digest(baseline),
                fault_summary_digest(baseline.faults))

    with tempfile.TemporaryDirectory(prefix="ckpt-smoke-") as tmp:
        hook = Checkpointer(pathlib.Path(tmp), every=1)

        def crashing_hook(state, day, result, total_days):
            hook.on_day_end(state, day, result, total_days)
            if day == args.interrupt_after:
                raise _Interrupted

        try:
            CloudFogSystem(config).run(days=args.days,
                                       on_day_end=crashing_hook)
        except _Interrupted:
            pass
        else:
            print("FAIL: the interruption hook never fired",
                  file=sys.stderr)
            return 1
        # The same checkpointer keeps saving after the resume, which
        # hands it a freshly restored result to encode.
        resumed = resume_run(tmp, checkpointer=hook)
        drifted = [(path.name, why) for path in hook.written
                   if (why := encoding_drift(path)) is not None]
    print(f"encoder parity: {len(hook.written) - len(drifted)}/"
          f"{len(hook.written)} checkpoint files are canonical")
    for name, why in drifted:
        print(f"FAIL: {name}: {why}", file=sys.stderr)
    if drifted:
        return 1

    actual = (run_result_digest(resumed), fault_summary_digest(resumed.faults))
    kind = (f"scenario {args.scenario}" if args.scenario
            else "chaos" if args.chaos else "baseline")
    print(f"interrupted after day {args.interrupt_after} of {args.days}"
          f" ({kind} run)")
    print(f"uninterrupted: {expected[0][:16]}…  faults {expected[1][:16]}…")
    print(f"resumed:       {actual[0][:16]}…  faults {actual[1][:16]}…")
    if actual != expected:
        print("FAIL: resumed run diverged from the uninterrupted run",
              file=sys.stderr)
        return 1
    print("checkpoint smoke OK (bit-identical resume)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
