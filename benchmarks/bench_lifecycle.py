"""Lifecycle microbenchmark: join / depart / migrate throughput.

Exercises the three hot per-player lifecycle paths that DESIGN.md §15
moved onto columnar state, and writes ``BENCH_lifecycle.json``:

* **Joins** — the workload run once through the full sweep; the
  arrivals wall clock comes from timer-wrapped ``SUBCYCLE_STAGES``
  (raw throughput, which tracks host speed).  Then the join decision
  alone — §3.2 selection plus the §3.2.2 candidate-list merge — for
  every player of a warm run, one after another into an empty pool:
  the live one-pass path against the frozen sort-then-ask oracle
  (``tests/core/selection_oracle.py``) on the same inputs.  The two
  are asserted equal (outcomes, generator state, pool and candidate
  lists) before timing; ``speedup`` is the median wall ratio of
  interleaved rounds.
* **Departures** — :meth:`SupernodePool.disconnect_many` over each
  node's whole departing batch (one set difference + one
  availability write) against one call per departing player.  The
  two are bit-identical (asserted on a fresh pool before timing);
  ``speedup`` is the median wall ratio of interleaved rounds, as for
  the join decision.
* **Migrations** — one in-run crash wave (a seeded
  :class:`~repro.faults.plan.FaultPlan` event at a peak subcycle of
  the measured day) whose streaming sessions walk the §3.2.2
  reconnect ladder inside the sweep.  The wall clock is the
  timer-wrapped ``stage_faults``; displaced and recovered counts come
  from ``RunResult.faults``.  Throughput only — there is no scalar
  twin, the ladder *is* the product path.

Default workload is the paper's population (100 k players, 6 000
supernodes) over a 2-day schedule; ``--tiny`` shrinks everything to
CI seconds-scale.  ``--check`` exits non-zero when batched departures
or the live join decision are not faster than their reference (the
perf-smoke gate).  The committed snapshot under ``benchmarks/results``
is the ``--tiny`` workload so ``tools/bench_trend.py`` diffs CI runs
against a like-for-like baseline; the paper-scale arrivals figure
lives in ``BENCH_full_scale.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_lifecycle.py --tiny
    PYTHONPATH=src python benchmarks/bench_lifecycle.py          # 100k
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.core import sweep
from repro.core.candidates import CandidateManager
from repro.core.config import cloudfog_advanced
from repro.core.columns import SupernodePool
from repro.core.selection import (GAME_L_MAX_MS, SupernodeDirectory,
                                  select_supernode)
from repro.core.system import CloudFogSystem
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workload.games import random_codes

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
from tests.core import selection_oracle as oracle  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _timed_run(config, days: int):
    """One full run with per-subcycle-stage wall clocks."""
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
        result = system.run(days=days)
    finally:
        sweep.SUBCYCLE_STAGES = original
    return walls, result


def bench_joins(num_players: int, num_supernodes: int, days: int,
                seed: int) -> dict:
    config = cloudfog_advanced(num_players=num_players, num_datacenters=6,
                               num_supernodes=num_supernodes, seed=seed)
    walls, result = _timed_run(config, days)

    # Warmup days run the identical join pipeline, they just don't
    # record — scale the recorded count back up to joins simulated.
    warmup = min(config.schedule.warmup_days, max(0, days - 1))
    joins = round(len(result.sessions) / (days - warmup) * days)
    arrivals_s = walls["stage_arrivals"]
    return {
        "joins": joins,
        "days": days,
        "arrivals_s": arrivals_s,
        "joins_per_s": joins / arrivals_s,
    }


def _oracle_remember(manager, player, qualified) -> None:
    # As the join called it before the one-pass selection: on a list.
    oracle.remember(manager, player, list(qualified))


def bench_join_decisions(num_players: int, num_supernodes: int,
                         rounds: int, seed: int) -> dict:
    """Selection plus candidate merge for every player of a warm run.

    Two warm days give real Eq.-7 scores and candidate lists; then
    each player in a seeded order joins, with a random game's L_max,
    an initially empty pool that fills up as the sequence goes on.
    """
    config = cloudfog_advanced(num_players=num_players, num_datacenters=6,
                               num_supernodes=num_supernodes, seed=seed)
    system = CloudFogSystem(config)
    system.run(days=2)
    state = system.state
    rng = np.random.default_rng(seed)
    players = rng.permutation(num_players).tolist()
    limits = [GAME_L_MAX_MS[code]
              for code in random_codes(rng, len(players)).tolist()]
    count = config.candidate_count

    def replay(select, remember):
        pool = copy.deepcopy(state.supernode_pool)
        directory = SupernodeDirectory(state.topology, pool)
        directory.candidates_for(0, count)  # the ranking, built untimed
        manager = copy.deepcopy(state.candidates)
        select_rng = np.random.default_rng(seed)
        reputation = state.reputation
        outcomes = []
        t0 = time.perf_counter()
        for player, l_max in zip(players, limits):
            outcome = select(player, directory, l_max, select_rng,
                             reputation, count)
            if outcome.qualified:
                remember(manager, player, outcome.qualified)
            outcomes.append(outcome)
        wall = time.perf_counter() - t0
        return wall, (outcomes, select_rng.bit_generator.state,
                      pool.connected, bytes(pool.available),
                      manager._lists)

    live = (select_supernode, CandidateManager.remember)
    frozen = (oracle.select_supernode, _oracle_remember)

    # Equivalence before speed: same outcomes, same end state.
    _, got = replay(*live)
    _, want = replay(*frozen)
    assert got[1:] == want[1:] and got[0] == [
        dataclasses.astuple(outcome) for outcome in want[0]], \
        "the live join decision diverged from the frozen oracle"

    # Interleaved rounds; the speedup is the median of the per-round
    # ratios, since a round's two replays share the host's speed.
    live_times, oracle_times = [], []
    for _ in range(rounds):
        oracle_times.append(replay(*frozen)[0])
        live_times.append(replay(*live)[0])
    ratios = [o / t for o, t in zip(oracle_times, live_times)]
    return {
        "decisions": len(players),
        "fog_ratio": sum(outcome[0] is not None
                         for outcome in got[0]) / len(players),
        "oracle_decisions_per_s": len(players) / min(oracle_times),
        "live_decisions_per_s": len(players) / min(live_times),
        "speedup": statistics.median(ratios),
    }


def bench_departures(num_supernodes: int, per_node: int, rounds: int,
                     seed: int) -> dict:
    rng = np.random.default_rng(seed)
    departing = [
        [sid * per_node + int(offset)
         for offset in rng.permutation(per_node)[:per_node // 2]]
        for sid in range(num_supernodes)]

    def build_pool() -> SupernodePool:
        pool = SupernodePool(
            host_player=[-1] * num_supernodes,
            capacity=[per_node] * num_supernodes,
            upload_mbps=[30.0] * num_supernodes,
            access_ms=[5.0] * num_supernodes)
        for sid in range(num_supernodes):
            for offset in range(per_node):
                pool.connect(sid, sid * per_node + offset)
        return pool

    def reconnect(pool: SupernodePool) -> None:
        for sid, players in enumerate(departing):
            for player in players:
                pool.connect(sid, player)

    # Equivalence before speed: same departures, same end state.
    scalar_pool, batch_pool = build_pool(), build_pool()
    for sid, players in enumerate(departing):
        for player in players:
            scalar_pool.disconnect_many(sid, (player,))
    for sid, players in enumerate(departing):
        batch_pool.disconnect_many(sid, players)
    assert (scalar_pool.connected == batch_pool.connected
            and scalar_pool.available == batch_pool.available), \
        "batched departures diverged from the per-player loop"

    pool = build_pool()
    total = sum(len(players) for players in departing)
    # Interleaved rounds; the speedup is the median of the per-round
    # ratios, since a round's two passes share the host's speed.
    scalar_times, batch_times = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for sid, players in enumerate(departing):
            for player in players:
                pool.disconnect_many(sid, (player,))
        scalar_times.append(time.perf_counter() - t0)
        reconnect(pool)
        t0 = time.perf_counter()
        for sid, players in enumerate(departing):
            pool.disconnect_many(sid, players)
        batch_times.append(time.perf_counter() - t0)
        reconnect(pool)
    ratios = [s / b for s, b in zip(scalar_times, batch_times)]
    return {
        "departures": total,
        "scalar_departures_per_s": total / min(scalar_times),
        "batch_departures_per_s": total / min(batch_times),
        "speedup": statistics.median(ratios),
    }


#: Interleaved timing rounds of the two paired ratios (join decision,
#: departures).
ROUNDS = 9


#: The crash wave lands in the evening peak (subcycles 20-24), when
#: the most sessions stream through supernodes.
MIGRATION_SUBCYCLE = 21


def bench_migrations(num_players: int, num_supernodes: int,
                     fail_count: int, seed: int) -> dict:
    plan = FaultPlan(events=(FaultEvent(
        day=1, subcycle=MIGRATION_SUBCYCLE, kind="crash",
        count=fail_count),))
    config = cloudfog_advanced(num_players=num_players, num_datacenters=6,
                               num_supernodes=num_supernodes, seed=seed,
                               fault_plan=plan)
    walls, result = _timed_run(config, days=2)
    faults = result.faults
    faults_s = walls["stage_faults"]
    return {
        "failed_supernodes": fail_count,
        "displaced": faults.displaced,
        "recovered": faults.recovered,
        "faults_s": faults_s,
        "migrations_per_s": faults.displaced / faults_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark join/depart/migrate lifecycle throughput.")
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized workload (seconds, not minutes)")
    parser.add_argument("--days", type=int, default=2,
                        help="schedule length for the joins run")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless batched departures beat "
                             "one call per player")
    parser.add_argument("--output", default=None,
                        help="output path (default benchmarks/results/"
                             "BENCH_lifecycle.json)")
    args = parser.parse_args(argv)

    if args.tiny:
        players, supernodes = 2000, 120
        depart_nodes, per_node = 200, 40
        fail_count = 24
    else:
        players, supernodes = 100_000, 6000
        depart_nodes, per_node = 2000, 100
        fail_count = 600

    joins = bench_joins(players, supernodes, days=args.days, seed=11)
    joins.update(bench_join_decisions(players, supernodes, rounds=ROUNDS,
                                      seed=11))
    results = {
        "workload": {"players": players, "supernodes": supernodes,
                     "tiny": args.tiny, "cpu_count": os.cpu_count()},
        "joins": joins,
        "departures": bench_departures(depart_nodes, per_node, ROUNDS,
                                       seed=11),
        "migrations": bench_migrations(players, supernodes, fail_count,
                                       seed=11),
    }

    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "BENCH_lifecycle.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2) + "\n")

    joins, departs, migrations = (results["joins"], results["departures"],
                                  results["migrations"])
    print(f"joins:      {joins['joins']:,} at "
          f"{joins['joins_per_s']:,.0f}/s; decisions "
          f"{joins['live_decisions_per_s']:,.0f}/s live vs "
          f"{joins['oracle_decisions_per_s']:,.0f}/s oracle "
          f"({joins['speedup']:.2f}x)")
    print(f"departures: {departs['batch_departures_per_s']:,.0f}/s batched "
          f"vs {departs['scalar_departures_per_s']:,.0f}/s scalar "
          f"({departs['speedup']:.2f}x)")
    print(f"migrations: {migrations['displaced']:,} displaced, "
          f"{migrations['recovered']:,} recovered at "
          f"{migrations['migrations_per_s']:,.0f}/s")
    print(f"wrote {output}")

    if args.check and departs["speedup"] <= 1.0:
        print("FAIL: batched disconnect_many is not faster than one call "
              "per player", file=sys.stderr)
        return 1
    if args.check and joins["speedup"] <= 1.0:
        print("FAIL: the live join decision is not faster than the "
              "frozen oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
