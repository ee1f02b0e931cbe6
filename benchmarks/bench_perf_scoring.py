"""Performance benchmark for the vectorised hot paths.

Measures four things and writes them to ``BENCH_perf.json``:

* **Session scoring** — the batch scorer
  (:func:`repro.core.scoring.score_sessions_batch`) against the scalar
  reference loop (``score_sessions_scalar``, the frozen oracle in
  ``tests/core/scoring_oracle.py``) on one day's sessions, in sessions/second.  The two
  paths are bit-identical (asserted here before timing); the benchmark
  exists to show the batch path is also much faster.  ``speedup`` is
  the median wall ratio of interleaved rounds.
* **Game choice** — one day of :func:`repro.core.sweep.choose_games`
  (catalogue codes, one fallback draw block) against the frozen
  ``Game``-object loop (``tests/workload/game_choice_oracle.py``).
  Every participant gets the oracle's game (asserted here before
  timing); ``speedup`` is the median wall ratio of interleaved rounds.
* **Directory joins** — :meth:`SupernodeDirectory.candidates_for`
  (a walk of the cached per-player pool ranking) against a
  linear-scan + full-sort reference, in lookups/second.  The two
  return identical candidate lists (asserted here before timing).
* **Sweep wall-clock** — a multi-variant comparison sweep run
  sequentially vs with ``--jobs`` worker processes.  Each task is
  sized past ``MIN_TASK_PLAYER_DAYS``, so the parallel run really
  starts a pool; ``workers`` records how many processes it used (1 on
  a one-core host, where the two runs are the same loop).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_scoring.py
    PYTHONPATH=src python benchmarks/bench_perf_scoring.py --tiny --check

``--check`` exits non-zero when the batch scorer is not faster than the
scalar loop (the CI perf-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.core import scoring, sweep
from repro.core.config import cloudfog_basic
from repro.core.selection import SupernodeDirectory
from repro.core.accounting import RunResult
from repro.core.system import CloudFogSystem
from repro.experiments.parallel import (
    MIN_TASK_PLAYER_DAYS,
    VariantTask,
    plan_workers,
    run_variants,
)
from repro.experiments.testbeds import Testbed
from repro.workload.games import GAME_CATALOGUE

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
from tests.core.scoring_oracle import score_sessions_scalar  # noqa: E402
from tests.workload import game_choice_oracle  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Interleaved timing rounds of the scoring and game-choice speedups.
ROUNDS = 9
#: Game-choice days timed per round (one day is well under a millisecond
#: at the tiny size).
GAME_DAYS_PER_ROUND = 5


def _build_scored_day(num_players: int, num_supernodes: int, seed: int):
    """A system with one swept day's sessions and load timelines."""
    config = cloudfog_basic(num_players=num_players,
                            num_supernodes=num_supernodes, seed=seed)
    system = CloudFogSystem(config)
    state = system.state
    plans = sweep.sample_plans(state, state.rng_factory.stream("plans-0"),
                               day=0)
    sweep.choose_games(state, plans, state.rng_factory.stream("games-0"))
    sessions, loads, cloud_rate = sweep.sweep_day(
        state, plans, state.rng_factory.stream("selection-0"), RunResult(),
        measuring=False)
    return system, sessions, loads, cloud_rate


def bench_scoring(num_players: int, num_supernodes: int, seed: int,
                  rounds: int) -> dict:
    system, sessions, loads, cloud_rate = _build_scored_day(
        num_players, num_supernodes, seed)

    def scalar():
        return score_sessions_scalar(
            system.state, 0, sessions, loads, cloud_rate,
            system.state.rng_factory.stream("qos-0"))

    def batch():
        return scoring.score_sessions_batch(
            system.state, 0, sessions, loads, cloud_rate,
            system.state.rng_factory.stream("qos-0"))

    # Equivalence before speed: same named RNG stream, same records.
    assert list(batch()) == scalar(), "batch scorer diverged from scalar"

    # Interleaved rounds; the speedup is the median of the per-round
    # ratios, since a round's two passes share the host's speed.
    scalar_times, batch_times = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        scalar()
        scalar_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        batch()
        batch_times.append(time.perf_counter() - t0)
    ratios = [s / b for s, b in zip(scalar_times, batch_times)]
    n = len(sessions)
    return {
        "sessions": n,
        "scalar_sessions_per_s": n / min(scalar_times),
        "batch_sessions_per_s": n / min(batch_times),
        "speedup": statistics.median(ratios),
    }


def bench_games(num_players: int, num_supernodes: int, seed: int,
                rounds: int) -> dict:
    config = cloudfog_basic(num_players=num_players,
                            num_supernodes=num_supernodes, seed=seed)
    state = CloudFogSystem(config).state
    plans = sweep.sample_plans(state, state.rng_factory.stream("plans-0"),
                               day=0)

    def live():
        sweep.choose_games(state, plans, state.rng_factory.stream("games-0"))
        return state.game_code

    def frozen():
        return game_choice_oracle.choose_games(
            state, plans, state.rng_factory.stream("games-0"))

    # Equivalence before speed: every participant, the oracle's game.
    code = live()
    assert {player: GAME_CATALOGUE[code[player]]
            for player in plans.player.tolist()} == frozen(), \
        "game choice diverged from the oracle"

    oracle_times, live_times = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(GAME_DAYS_PER_ROUND):
            frozen()
        oracle_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(GAME_DAYS_PER_ROUND):
            live()
        live_times.append(time.perf_counter() - t0)
    ratios = [o / v for o, v in zip(oracle_times, live_times)]
    n = len(plans) * GAME_DAYS_PER_ROUND
    return {
        "participants": len(plans),
        "oracle_players_per_s": n / min(oracle_times),
        "live_players_per_s": n / min(live_times),
        "speedup": statistics.median(ratios),
    }


def _linear_candidates(directory: SupernodeDirectory, player: int,
                       count: int):
    """Reference lookup: per-call capacity scan over the whole
    pool, vectorised distances, full (distance², pool id) sort."""
    pool = directory.pool
    ids = np.flatnonzero(np.frombuffer(pool.available, dtype=np.uint8))
    px, py = directory.topology.player_coords[player]
    dx = pool.x_km[ids] - px
    dy = pool.y_km[ids] - py
    return ids[np.lexsort((ids, dx * dx + dy * dy))[:count]].tolist()


def bench_joins(num_players: int, num_supernodes: int, seed: int,
                lookups: int, count: int = 8) -> dict:
    config = cloudfog_basic(num_players=num_players,
                            num_supernodes=num_supernodes, seed=seed)
    system = CloudFogSystem(config)
    directory = system.state.directory
    rng = np.random.default_rng(seed)
    players = rng.integers(0, system.state.topology.num_players, size=lookups)

    for player in players[:50]:  # correctness spot-check before timing
        ranked = directory.candidates_for(int(player), count)
        linear = _linear_candidates(directory, int(player), count)
        assert ranked == linear, "ranking lookup diverged"

    # Interleaved best-of-3: round-robin keeps background noise from
    # landing entirely on one contender.  The first lookup above built
    # the cached ranking, so the timed loops measure steady-state
    # lookups.
    ranked_times, linear_times = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        for player in players:
            directory.candidates_for(int(player), count)
        ranked_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for player in players:
            _linear_candidates(directory, int(player), count)
        linear_times.append(time.perf_counter() - t0)
    ranked_s, linear_s = min(ranked_times), min(linear_times)
    return {
        "lookups": lookups,
        "supernodes": len(system.state.live_supernodes),
        "ranking_joins_per_s": lookups / ranked_s,
        "linear_joins_per_s": lookups / linear_s,
        "speedup": linear_s / ranked_s,
    }


def bench_sweep(num_players: int, seed: int, days: int, jobs: int) -> dict:
    testbed = Testbed(name="bench", num_players=num_players,
                      num_datacenters=3,
                      num_supernodes=max(4, int(num_players * 0.06)),
                      supernode_capable_share=0.5, jitter_fraction=0.15)
    tasks = [VariantTask(variant=v, testbed=testbed, seed=seed, days=days)
             for v in ("Cloud", "CDN", "CloudFog/B", "CloudFog/A")]
    workers = plan_workers(tasks, jobs)
    t0 = time.perf_counter()
    sequential = run_variants(tasks, jobs=1)
    sequential_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_variants(tasks, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    assert [r.days for r in sequential] == [r.days for r in parallel], \
        "parallel sweep diverged from sequential"
    return {
        "tasks": len(tasks),
        "jobs": jobs,
        "workers": workers,
        "sequential_s": sequential_s,
        "parallel_s": parallel_s,
        "speedup": sequential_s / parallel_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the vectorised scoring/join/sweep paths.")
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized workload (seconds, not minutes)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the sweep benchmark")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the batch scorer beats the "
                             "scalar loop")
    parser.add_argument("--output", default=None,
                        help="output path (default "
                             "benchmarks/results/BENCH_perf.json)")
    args = parser.parse_args(argv)

    if args.tiny:
        players, supernodes, lookups = 400, 24, 2000
    else:
        players, supernodes, lookups = 2000, 120, 10000
    # Enough days that each sweep task crosses the pool threshold.
    days = max(3, -(-MIN_TASK_PLAYER_DAYS // players))

    results = {
        "workload": {"players": players, "supernodes": supernodes,
                     "tiny": args.tiny, "cpu_count": os.cpu_count()},
        "scoring": bench_scoring(players, supernodes, seed=3,
                                 rounds=ROUNDS),
        "games": bench_games(players, supernodes, seed=3, rounds=ROUNDS),
        "joins": bench_joins(players, supernodes, seed=3, lookups=lookups),
        "sweep": bench_sweep(players, seed=3, days=days, jobs=args.jobs),
    }

    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "BENCH_perf.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2) + "\n")

    scoring, games, joins, sweep = (results["scoring"], results["games"],
                                    results["joins"], results["sweep"])
    print(f"scoring: {scoring['batch_sessions_per_s']:,.0f} sessions/s "
          f"batch vs {scoring['scalar_sessions_per_s']:,.0f} scalar "
          f"({scoring['speedup']:.1f}x)")
    print(f"games:   {games['live_players_per_s']:,.0f} players/s "
          f"codes vs {games['oracle_players_per_s']:,.0f} Game objects "
          f"({games['speedup']:.1f}x)")
    print(f"joins:   {joins['ranking_joins_per_s']:,.0f} lookups/s "
          f"ranking vs "
          f"{joins['linear_joins_per_s']:,.0f} linear "
          f"({joins['speedup']:.1f}x)")
    print(f"sweep:   {sweep['parallel_s']:.1f}s at --jobs {sweep['jobs']} "
          f"({sweep['workers']} workers) vs {sweep['sequential_s']:.1f}s "
          f"sequential ({sweep['speedup']:.1f}x)")
    print(f"wrote {output}")

    if args.check and scoring["speedup"] <= 1.0:
        print("FAIL: batch scoring is not faster than the scalar loop",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
