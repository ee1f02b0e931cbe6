"""Scale smoke: a sharded 20k-player run with digest and wall assertions.

The CI ``scale-smoke`` job runs this script and fails unless

1. a 20,000-player × 2-day CloudFog/A run through the sharded sweep
   (:func:`repro.experiments.run_sharded_config`) finishes inside the
   wall-time budget, and
2. re-running it with a different shard (worker) count reproduces the
   exact same digests — shard count is worker parallelism only, never
   semantics, and
3. the merged run's session log holds at most
   ``MAX_LOG_BYTES_PER_SESSION`` bytes per recorded session (the log's
   typed columns need 48).  Peak RSS (this process and its largest
   worker) is printed beside it.

Run standalone::

    PYTHONPATH=src python benchmarks/scale_smoke.py
    PYTHONPATH=src python benchmarks/scale_smoke.py --scale 0.1 --budget 60
"""

from __future__ import annotations

import argparse
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))

from helpers.golden import fault_summary_digest, run_result_digest  # noqa: E402

from repro.experiments import (  # noqa: E402
    peersim,
    run_sharded_config,
    variant_config,
)

#: Ceiling on ``SessionLog.nbytes`` per recorded session.
MAX_LOG_BYTES_PER_SESSION = 96


def digests(result):
    return (run_result_digest(result), fault_summary_digest(result.faults))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="fraction of the paper's 100k players "
                             "(default 0.2 = 20k)")
    parser.add_argument("--days", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-time budget for the sharded run in "
                             "seconds (default 120)")
    args = parser.parse_args(argv)

    testbed = peersim(args.scale)
    config = variant_config("CloudFog/A", testbed, args.seed)

    t0 = time.perf_counter()
    first = run_sharded_config(config, args.days, shards=1)
    wall = time.perf_counter() - t0
    second = run_sharded_config(config, args.days, shards=2)

    expected, actual = digests(first), digests(second)
    rate = len(first.sessions) / wall
    print(f"{testbed.num_players:,} players x {args.days} days: "
          f"{wall:.1f}s ({rate:,.0f} recorded sessions/s)")
    print(f"shards=1: {expected[0][:16]}…  faults {expected[1][:16]}…")
    print(f"shards=2: {actual[0][:16]}…  faults {actual[1][:16]}…")
    per_session = first.sessions.nbytes / max(1, len(first.sessions))
    own, worker = (resource.getrusage(who).ru_maxrss / 1024.0 for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"session log: {per_session:.1f} bytes/session over "
          f"{len(first.sessions):,} sessions; peak RSS {own:.1f} MB "
          f"(largest worker {worker:.1f} MB)")

    if actual != expected:
        print("FAIL: shard count changed the run's digests",
              file=sys.stderr)
        return 1
    if wall > args.budget:
        print(f"FAIL: sharded run took {wall:.1f}s "
              f"(budget {args.budget:.0f}s)", file=sys.stderr)
        return 1
    if per_session > MAX_LOG_BYTES_PER_SESSION:
        print(f"FAIL: the session log holds {per_session:.1f} bytes per "
              f"session (ceiling {MAX_LOG_BYTES_PER_SESSION})",
              file=sys.stderr)
        return 1
    print("scale smoke OK (shard-invariant digests, inside budget, "
          "compact session log)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
