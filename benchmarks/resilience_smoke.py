"""Resilience smoke: correlated faults + a killed shard worker, gated.

The CI ``resilience-smoke`` job runs this script and fails unless

1. the correlated-fault scenario (``examples/resilience_scenario.json``:
   a regional outage, an announced preemption, a fog↔cloud partition
   with admission backpressure, a datacenter outage with self-healing)
   fires every event, conserves every displaced session across all four
   terminal outcomes (``displaced == recovered + degraded + dropped +
   shed``), recovers and gracefully drains at least one session each,
   and keeps the median time-to-recover sub-second; and
2. a sharded run whose worker is SIGKILLed mid-run heals — the
   supervisor restarts the dead partition from its checkpoint — and the
   merged result is bit-identical to the uninterrupted run, inside the
   wall budget.

Run standalone::

    PYTHONPATH=src python benchmarks/resilience_smoke.py
    PYTHONPATH=src python benchmarks/resilience_smoke.py --budget 60
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))

from helpers.golden import fault_summary_digest, run_result_digest  # noqa: E402

import repro.core.shard as shard_module  # noqa: E402
from repro.core.config import cloudfog_advanced  # noqa: E402
from repro.core.shard import run_sharded  # noqa: E402
from repro.experiments.chaos import run_chaos  # noqa: E402
from repro.faults.plan import load_fault_plan  # noqa: E402
from repro.sim.cycles import Schedule  # noqa: E402

DEFAULT_SCENARIO = (pathlib.Path(__file__).parent.parent
                    / "examples" / "resilience_scenario.json")


def digests(result):
    return (run_result_digest(result), fault_summary_digest(result.faults))


def check_scenario(args) -> list[str]:
    """Phase 1: the correlated-fault scenario end to end."""
    plan = load_fault_plan(args.scenario)
    result = run_chaos(plan, days=args.days, seed=args.seed,
                       num_players=args.players,
                       num_supernodes=args.supernodes)
    summary = result.faults
    ttr = summary.time_to_recover_ms
    median = float(np.median(ttr)) if ttr else float("inf")
    print(f"events: {summary.events_applied}/{len(plan)} applied")
    print(f"displaced: {summary.displaced}  recovered: {summary.recovered}"
          f"  degraded: {summary.degraded}  shed: {summary.shed}")
    print(f"drained: {summary.drained}  joins shed: {summary.joins_shed}"
          f"  median ttr: {median:.1f} ms")

    failures = []
    if summary.events_applied < len(plan):
        failures.append(
            f"only {summary.events_applied}/{len(plan)} events fired")
    if not summary.conserved():
        failures.append(
            f"{summary.unaccounted()} displaced sessions unaccounted "
            f"(displaced != recovered + degraded + dropped + shed)")
    if summary.recovered == 0:
        failures.append("no displaced session recovered onto a supernode")
    if summary.drained == 0:
        failures.append("the announced preemption drained no session")
    if median >= 1000.0:
        failures.append(f"median time-to-recover {median:.1f} ms >= 1 s")
    return failures


def check_killed_worker(args) -> list[str]:
    """Phase 2: SIGKILL a shard worker, require bit-identical healing."""
    config = cloudfog_advanced(
        num_players=300, num_datacenters=2, num_supernodes=12,
        seed=args.seed, schedule=Schedule(days=2, warmup_days=1))
    expected = digests(run_sharded(config, shards=1))
    # The supervisor pools workers only below the core count; force at
    # least two so the kill seam is exercised on 1-CPU runners too.
    real_cpu_count = shard_module.os.cpu_count
    shard_module.os.cpu_count = lambda: max(2, real_cpu_count() or 1)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sentinel = pathlib.Path(tmp) / "killed"
            os.environ["REPRO_SHARD_TEST_KILL"] = f"0:0:{sentinel}"
            try:
                healed = run_sharded(config, shards=2,
                                     checkpoint_dir=pathlib.Path(tmp) / "ckpt")
            finally:
                del os.environ["REPRO_SHARD_TEST_KILL"]
            killed = sentinel.exists()
    finally:
        shard_module.os.cpu_count = real_cpu_count
    actual = digests(healed)
    print(f"uninterrupted: {expected[0][:16]}…  faults {expected[1][:16]}…")
    print(f"healed run:    {actual[0][:16]}…  faults {actual[1][:16]}…")

    failures = []
    if not killed:
        failures.append("the SIGKILL seam never fired (no worker died)")
    if actual != expected:
        failures.append("healed run's digests differ from the "
                        "uninterrupted run's")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=str(DEFAULT_SCENARIO),
                        help="fault scenario JSON (default: "
                             "examples/resilience_scenario.json)")
    parser.add_argument("--days", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--players", type=int, default=250)
    parser.add_argument("--supernodes", type=int, default=16)
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-time budget in seconds (default 120)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures = check_scenario(args)
    failures += check_killed_worker(args)
    wall = time.perf_counter() - t0
    print(f"wall: {wall:.1f}s (budget {args.budget:.0f}s)")
    if wall > args.budget:
        failures.append(
            f"resilience smoke took {wall:.1f}s (budget {args.budget:.0f}s)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("resilience smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
