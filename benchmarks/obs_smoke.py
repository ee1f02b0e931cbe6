"""Observability smoke: digests hold with telemetry on, endpoint scrapes
live, and the run report names the fault-correlated SLO violations.

The CI ``obs-smoke`` job runs this script.  It fails unless:

1. every committed golden digest (baseline + chaos) is reproduced with
   the full five-pillar observability runtime enabled;
2. a CLI chaos run with ``--trace --metrics --profile --obs-dir
   --serve`` serves valid Prometheus text and a JSON snapshot from the
   live endpoint *while the run executes*;
3. ``python -m repro report`` on the produced run dir emits SLO
   verdicts naming at least one violating day and correlates it to the
   injected fault window;
4. a 2-shard run with observability on leaves the same
   ``repro_sessions_total`` and ``repro_joins_total`` in the parent
   registry as the 1-shard run (the workers' metrics come home);
5. a run resumed from its day-0 checkpoint into a fresh observability
   runtime reports the uninterrupted run's ``repro_sessions_total`` and
   ``repro_joins_total`` (the checkpoint carries the metrics).

Run standalone::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from unittest import mock

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tests.faults.regen_golden import CHAOS_SCENARIOS, SCENARIOS  # noqa: E402
from tests.faults.test_equivalence import GOLDEN  # noqa: E402
from tests.helpers.golden import (fault_summary_digest,  # noqa: E402
                                  run_result_digest)

from repro import obs  # noqa: E402
from repro.core import CloudFogSystem, cloudfog_advanced  # noqa: E402
from repro.core.shard import build_partitions, run_sharded  # noqa: E402
from repro.persist import Checkpointer, resume_run  # noqa: E402
from repro.sim.cycles import Schedule  # noqa: E402

_SERVING_RE = re.compile(r"\[obs\] serving metrics on (http://\S+)")


def check_digests_with_observability_on() -> None:
    """Part 1: the committed goldens hold with all pillars live."""
    obs.enable()
    try:
        for name, config in sorted(SCENARIOS.items()):
            result = CloudFogSystem(config).run(days=2)
            digest = run_result_digest(result)
            assert digest == GOLDEN[name], \
                f"{name} digest changed with observability on: {digest}"
        result = CloudFogSystem(CHAOS_SCENARIOS["chaos_advanced"]).run(days=2)
        assert run_result_digest(result) == GOLDEN["chaos_advanced"], \
            "chaos digest changed with observability on"
        assert fault_summary_digest(result.faults) \
            == GOLDEN["chaos_advanced_faults"], \
            "chaos fault accounting changed with observability on"
        assert len(obs.get_timeseries()) >= 2, "telemetry did not populate"
    finally:
        obs.disable()
    print("digests: all goldens bit-identical with observability ON")


_SMOKE_CONFIG = cloudfog_advanced(num_players=300, num_supernodes=18, seed=5,
                                  schedule=Schedule(days=3, warmup_days=1))
_COUNTED = ("repro_sessions_total", "repro_joins_total")


def _counted(dump: dict) -> dict:
    return {name: sum(e["value"] for e in dump.get(name, []))
            for name in _COUNTED}


def check_sharded_metrics_come_home() -> None:
    """Part 4: pooled shard workers merge their metrics into the parent.

    ``os.cpu_count`` is patched so the 2-shard run starts its worker
    pool even on a 1-CPU runner, where it would otherwise run both
    partitions in-process and merge no worker dump at all.
    """
    config = _SMOKE_CONFIG
    workers = min(2, len(build_partitions(config)))
    assert workers == 2, f"the config has {workers} partition(s), need 2"
    totals = {}
    for shards in (1, 2):
        obs.enable()
        try:
            with mock.patch.object(os, "cpu_count", lambda: 8):
                run_sharded(config, shards=shards)
            dump = obs.get_registry().as_dict()
        finally:
            obs.disable()
        totals[shards] = _counted(dump)
    assert totals[1]["repro_sessions_total"] > 0, "no sessions counted"
    assert totals[2] == totals[1], \
        f"2-shard metrics differ from the 1-shard run: {totals}"
    print(f"sharded metrics: {totals[2]} at 1 and 2 shards "
          f"({workers} worker processes)")


def check_resumed_metrics() -> None:
    """Part 5: a resume starts from the metrics its checkpoint carries.

    The run checkpoints every day with observability on; resuming its
    day-0 checkpoint in a fresh runtime must end with the uninterrupted
    run's session and join counts, not only the resumed days'.
    """
    with tempfile.TemporaryDirectory() as tmp:
        obs.enable()
        try:
            hook = Checkpointer(pathlib.Path(tmp), every=1)
            CloudFogSystem(_SMOKE_CONFIG).run(on_day_end=hook.on_day_end)
            full = _counted(obs.get_registry().as_dict())
            obs.enable()  # fresh runtime, as a restarted process has
            resume_run(hook.path_for(0))
            resumed = _counted(obs.get_registry().as_dict())
        finally:
            obs.disable()
    assert full["repro_sessions_total"] > 0, "no sessions counted"
    assert resumed == full, \
        f"resumed metrics differ from the uninterrupted run: " \
        f"{resumed} vs {full}"
    print(f"resumed metrics: {resumed} after a day-0 resume, as "
          f"uninterrupted")


def _scrape(url: str, deadline: float) -> tuple[str, str]:
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                content_type = response.headers["Content-Type"]
                return response.read().decode(), content_type
        except Exception as exc:  # server may not be accepting yet
            last_error = exc
            time.sleep(0.05)
    raise AssertionError(f"could not scrape {url}: {last_error}")


def check_live_endpoint_and_report(days: int, players: int) -> None:
    """Parts 2 + 3: CLI chaos run scraped mid-run, then reported."""
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = pathlib.Path(tmp) / "rundir"
        command = [
            sys.executable, "-m", "repro", "run",
            "--days", str(days), "--players", str(players),
            "--faults", str(REPO_ROOT / "examples/chaos_scenario.json"),
            "--trace", str(pathlib.Path(tmp) / "trace.jsonl"),
            "--metrics", str(pathlib.Path(tmp) / "metrics.prom"),
            "--profile", "--obs-dir", str(run_dir), "--serve", "0",
        ]
        proc = subprocess.Popen(command, stderr=subprocess.PIPE, text=True,
                                stdout=subprocess.DEVNULL)
        url = None
        stderr_tail = []
        assert proc.stderr is not None
        for line in proc.stderr:
            stderr_tail.append(line)
            match = _SERVING_RE.search(line)
            if match:
                url = match.group(1)
                break
        assert url, "CLI never announced the live endpoint:\n" \
            + "".join(stderr_tail)

        # scrape while the run executes (the announcement precedes it);
        # keep polling until the first day's instruments have landed
        deadline = time.monotonic() + 60.0
        while True:
            metrics, content_type = _scrape(url + "/metrics", deadline)
            if "# TYPE" in metrics:
                break
            assert proc.poll() is None, \
                "run finished before a populated scrape landed; the " \
                "endpoint was not observed live"
            assert time.monotonic() < deadline, \
                "no metrics appeared on the live endpoint in time"
            time.sleep(0.05)
        assert content_type.startswith("text/plain") \
            and "version=0.0.4" in content_type, content_type
        assert proc.poll() is None, "run finished before the scrape " \
            "landed; the endpoint was not observed live"
        snapshot, _ = _scrape(url + "/snapshot.json", deadline)
        parsed = json.loads(snapshot)
        assert parsed["enabled"] is True
        print(f"live scrape: {len(metrics.splitlines())} exposition "
              f"lines mid-run from {url}")

        proc.stderr.read()  # drain so the child never blocks on stderr
        assert proc.wait(timeout=600) == 0, "CLI run failed"

        report = subprocess.run(
            [sys.executable, "-m", "repro", "report", str(run_dir)],
            capture_output=True, text=True, timeout=120)
        assert report.returncode == 0, report.stderr
        markdown = report.stdout
        for needle in ("## SLO verdicts", "VIOLATED", "no-displacements",
                       "Violations correlated to fault windows", "crash"):
            assert needle in markdown, f"report lacks {needle!r}"
        slo = json.loads((run_dir / "slo.json").read_text())
        assert slo["violating_days"], "chaos run violated no SLO day"
        report_payload = json.loads((run_dir / "report.json").read_text())
        correlated = {c["day"] for c in report_payload["correlations"]
                      if c["fault_events"]}
        assert correlated, "no violating day correlated to a fault window"
        print(f"report: violating days {slo['violating_days']} "
              f"(fault-correlated: {sorted(correlated)})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=28,
                        help="CLI run length (long enough to scrape "
                             "mid-run; default 28)")
    parser.add_argument("--players", type=int, default=600)
    args = parser.parse_args(argv)

    check_digests_with_observability_on()
    check_sharded_metrics_come_home()
    check_resumed_metrics()
    check_live_endpoint_and_report(args.days, args.players)
    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
