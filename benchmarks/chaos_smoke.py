"""Chaos smoke: run a small fault scenario end to end and gate on it.

The CI ``chaos-smoke`` job runs this script against
``examples/chaos_scenario.json`` (or the built-in baseline schedule
with ``--builtin``) and fails unless:

* every scheduled fault event actually fired,
* at least one displaced session *recovered* onto another supernode,
* the conservation invariant holds — zero unaccounted sessions
  (``displaced == recovered + degraded + dropped``),
* the median time-to-recover stays sub-second (the §3.2.2 migration
  claim, detection included).

Run standalone::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
    PYTHONPATH=src python benchmarks/chaos_smoke.py --builtin --days 3
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.experiments.chaos import baseline_chaos_plan, run_chaos
from repro.faults.plan import load_fault_plan

DEFAULT_SCENARIO = (pathlib.Path(__file__).parent.parent
                    / "examples" / "chaos_scenario.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=str(DEFAULT_SCENARIO),
                        help="fault scenario JSON (default: "
                             "examples/chaos_scenario.json)")
    parser.add_argument("--builtin", action="store_true",
                        help="use the built-in 1 crash/day baseline "
                             "schedule instead of --scenario")
    parser.add_argument("--days", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--players", type=int, default=250)
    parser.add_argument("--supernodes", type=int, default=16)
    args = parser.parse_args(argv)

    if args.builtin:
        plan = baseline_chaos_plan(1.0, args.days, seed=args.seed)
    else:
        plan = load_fault_plan(args.scenario)
    result = run_chaos(plan, days=args.days, seed=args.seed,
                       num_players=args.players,
                       num_supernodes=args.supernodes)
    summary = result.faults
    ttr = summary.time_to_recover_ms
    median = float(np.median(ttr)) if ttr else float("inf")
    print(f"events: {summary.events_applied}/{len(plan)} applied")
    print(f"displaced: {summary.displaced}  recovered: {summary.recovered}"
          f"  degraded: {summary.degraded}")
    print(f"median ttr: {median:.1f} ms")

    failures = []
    if summary.events_applied < len(plan):
        failures.append(
            f"only {summary.events_applied}/{len(plan)} events fired")
    if summary.recovered == 0:
        failures.append("no displaced session recovered onto a supernode")
    if not summary.conserved():
        failures.append(
            f"{summary.unaccounted()} displaced sessions unaccounted")
    if median >= 1000.0:
        failures.append(f"median time-to-recover {median:.1f} ms >= 1 s")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("chaos smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
