"""Paper-scale benchmark: 100k players through the sharded sweep, plus
the trend snapshot writer.

The default standalone run now executes the paper's full workload — the
peersim testbed at scale 1.0 (100,000 players, 6,000 supernodes) for the
full 28-day schedule — through :func:`repro.experiments.run_sharded_config`,
which splits the run into fixed per-region partitions and merges
deterministically.  ``--scale`` still shrinks the workload for quick
local runs, and the coverage figures keep their own (smaller)
``--coverage-scale`` so the snapshot stays comparable across commits
without an hour of figure sweeps.

The pytest entries stay opt-in: set ``CLOUDFOG_FULL_SCALE=1`` to run
them; without the flag they skip.

Run standalone to (re)generate the committed trend snapshot::

    PYTHONPATH=src python benchmarks/bench_full_scale.py

writes ``benchmarks/results/BENCH_full_scale.json`` — shard layout,
per-stage wall clocks and throughput of a Cloud vs CloudFog/A
comparison plus the paper's headline quality ratios (cloud-bandwidth
offload, continuity gain, coverage), which are deterministic at a fixed
scale/seed and therefore diffable across commits with
``tools/bench_trend.py``.
"""

import argparse
import json
import os
import pathlib
import time

import pytest

from repro.core import sweep
from repro.core.shard import build_partitions
from repro.core.system import CloudFogSystem
from repro.experiments import (
    fig4a_coverage_vs_datacenters,
    fig4b_coverage_vs_supernodes,
    peersim,
    run_sharded_config,
    variant_config,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("CLOUDFOG_FULL_SCALE") == "1"
skip_unless_full = pytest.mark.skipif(
    not FULL_SCALE, reason="set CLOUDFOG_FULL_SCALE=1 for paper-scale runs")


@skip_unless_full
def test_full_scale_coverage(benchmark, emit):
    """Fig. 4 at the paper's exact scale: 100 k players."""
    testbed = peersim(1.0)

    def run():
        dc = fig4a_coverage_vs_datacenters(testbed)
        sn = fig4b_coverage_vs_supernodes(testbed)
        return dc, sn

    dc, sn = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(dc, "full_scale_fig04a.txt")
    emit(sn, "full_scale_fig04b.txt")
    assert dc.column("90ms")[-1] > dc.column("90ms")[0]
    assert sn.column("90ms")[-1] > 0.5


@skip_unless_full
def test_full_scale_system_comparison(benchmark, emit):
    """Cloud vs CloudFog/A at the paper's full population, sharded."""
    testbed = peersim(1.0)

    def run():
        cloud = run_sharded_config(
            variant_config("Cloud", testbed, seed=11), days=2,
            shards=os.cpu_count() or 1)
        fog = run_sharded_config(
            variant_config("CloudFog/A", testbed, seed=11), days=2,
            shards=os.cpu_count() or 1)
        return cloud, fog

    cloud, fog = benchmark.pedantic(run, rounds=1, iterations=1)
    assert fog.mean_cloud_bandwidth_mbps < cloud.mean_cloud_bandwidth_mbps
    assert fog.mean_continuity > cloud.mean_continuity


# ---------------------------------------------------------------------------
# standalone snapshot writer (tools/bench_trend.py diffs these)
# ---------------------------------------------------------------------------
def _stage_walls(config, days: int) -> dict:
    """Per-subcycle-stage wall clocks for one single-process run.

    Runs outside the sharded path on purpose: timer-wrapping
    ``SUBCYCLE_STAGES`` only observes stages executed in this process.
    """
    system = CloudFogSystem(config)
    walls: dict[str, float] = {}
    original = sweep.SUBCYCLE_STAGES

    def timed(fn):
        name = fn.__name__

        def inner(state, ctx):
            t0 = time.perf_counter()
            fn(state, ctx)
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - t0

        return inner

    sweep.SUBCYCLE_STAGES = tuple(timed(fn) for fn in original)
    try:
        system.run(days=days)
    finally:
        sweep.SUBCYCLE_STAGES = original
    return walls


def snapshot(scale: float, days: int, seed: int, shards: int,
             coverage_scale: float) -> dict:
    testbed = peersim(scale)

    t0 = time.perf_counter()
    coverage_testbed = peersim(coverage_scale)
    dc = fig4a_coverage_vs_datacenters(coverage_testbed)
    sn = fig4b_coverage_vs_supernodes(coverage_testbed)
    coverage_s = time.perf_counter() - t0

    cloud_config = variant_config("Cloud", testbed, seed)
    fog_config = variant_config("CloudFog/A", testbed, seed)
    partitions = build_partitions(fog_config)
    workers = min(shards, len(partitions), os.cpu_count() or 1)

    t0 = time.perf_counter()
    cloud = run_sharded_config(cloud_config, days, shards=shards)
    cloud_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fog = run_sharded_config(fog_config, days, shards=shards)
    fog_s = time.perf_counter() - t0

    # Columnar lifecycle walls (DESIGN.md §15): the fog workload run
    # single-process with per-stage wall clocks.  ``arrivals`` is the
    # replay-exact join/assignment stage; ``stages`` sums every
    # subcycle stage (departures + faults + scenario + arrivals), i.e.
    # the whole per-player lifecycle loop.
    replay_walls = _stage_walls(fog_config, days)
    replay_arrivals = replay_walls["stage_arrivals"]
    replay_stages = sum(replay_walls.values())

    # Warmup days execute the identical per-session pipeline (joins,
    # scoring, migration, faults) — they just don't record metrics — so
    # throughput counts *simulated* sessions across every day, with the
    # recorded count and measured-day window reported alongside.
    schedule = fog_config.schedule
    warmup = min(schedule.warmup_days, max(0, days - 1))
    measured_days = days - warmup
    sessions_recorded = len(fog.sessions)
    sessions_simulated = round(sessions_recorded / measured_days * days)

    return {
        "workload": {"scale": scale, "players": testbed.num_players,
                     "supernodes": testbed.num_supernodes,
                     "days": days, "seed": seed,
                     "cpu_count": os.cpu_count()},
        "shards": {
            "requested": shards,
            "workers": workers,
            "partitions": len(partitions),
            "partition_players": [len(p.player_ids) for p in partitions],
            "partition_supernodes": [p.config.num_supernodes
                                     for p in partitions],
        },
        "stages": {
            "coverage_s": coverage_s,
            "cloud_wall_s": cloud_s,
            "fog_wall_s": fog_s,
            "total_s": coverage_s + cloud_s + fog_s,
        },
        "lifecycle": {
            "replay_arrivals_s": replay_arrivals,
            "replay_stages_s": replay_stages,
        },
        "coverage": {
            "scale": coverage_scale,
            "wall_s": coverage_s,
            "final_90ms_datacenters": dc.column("90ms")[-1],
            "final_90ms_supernodes": sn.column("90ms")[-1],
        },
        "comparison": {
            "cloud_wall_s": cloud_s,
            "fog_wall_s": fog_s,
            "fog_days_measured": measured_days,
            "fog_sessions_recorded": sessions_recorded,
            "fog_sessions_simulated": sessions_simulated,
            "fog_sessions_per_s": sessions_simulated / fog_s,
            # The paper's headline ratios — deterministic at fixed
            # scale/seed, so a trend diff catches quality regressions
            # (not just slowdowns).  Offload: how much cloud egress the
            # fog tier absorbs (higher is better).
            "bandwidth_offload_ratio":
                1.0 - (fog.mean_cloud_bandwidth_mbps
                       / cloud.mean_cloud_bandwidth_mbps),
            "continuity_gain":
                fog.mean_continuity - cloud.mean_continuity,
            "supernode_coverage": fog.supernode_coverage,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Snapshot the paper-scale sharded benchmark to JSON.")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the paper's 100k-player "
                             "population (default 1.0 — the full scale)")
    parser.add_argument("--days", type=int, default=28,
                        help="schedule length (default 28, the paper's)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--shards", type=int, default=0,
                        help="worker processes for the sharded run "
                             "(default 0 = all cores)")
    parser.add_argument("--coverage-scale", type=float, default=0.1,
                        help="scale for the fig. 4 coverage stage "
                             "(default 0.1; the full sweep is slow and "
                             "tracked well enough at a tenth)")
    parser.add_argument("--output", default=None,
                        help="output path (default benchmarks/results/"
                             "BENCH_full_scale.json)")
    args = parser.parse_args(argv)

    shards = args.shards if args.shards > 0 else (os.cpu_count() or 1)
    results = snapshot(args.scale, args.days, args.seed, shards,
                       args.coverage_scale)
    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "BENCH_full_scale.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2) + "\n")

    stages = results["stages"]
    comparison = results["comparison"]
    print(f"shards: {results['shards']['partitions']} partitions, "
          f"{results['shards']['workers']} workers")
    print(f"stages: coverage {stages['coverage_s']:.1f}s, "
          f"cloud {stages['cloud_wall_s']:.1f}s, "
          f"fog {stages['fog_wall_s']:.1f}s "
          f"(total {stages['total_s']:.1f}s)")
    lifecycle = results["lifecycle"]
    print(f"lifecycle: arrivals {lifecycle['replay_arrivals_s']:.1f}s, "
          f"all stages {lifecycle['replay_stages_s']:.1f}s")
    print(f"comparison: fog {comparison['fog_sessions_simulated']:,} "
          f"simulated sessions "
          f"({comparison['fog_sessions_recorded']:,} recorded over "
          f"{comparison['fog_days_measured']} measured days) at "
          f"{comparison['fog_sessions_per_s']:,.0f} sessions/s, "
          f"offload {comparison['bandwidth_offload_ratio']:.3f}, "
          f"continuity gain {comparison['continuity_gain']:.3f}")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
