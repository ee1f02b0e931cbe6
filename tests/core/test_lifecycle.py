"""Tests for repro.core.lifecycle: joins, session windows, failures and
the §3.2.2 migration ladder."""

import numpy as np
import pytest

from repro.core import CloudFogSystem, ConnectionKind, cloud_only, cloudfog_basic, sweep
from repro.core.accounting import RunResult
from repro.core.lifecycle import (
    fail_supernodes,
    fog_availability,
    join,
    take_offline,
)
from repro.core.state import SimState
from repro.workload.churn import PlayerDayPlan

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


def test_session_window_clamps_to_day():
    """A committed session's row holds its play window clamped to the
    day: it starts at its (clamped) start subcycle and ends after
    ``ceil(duration)`` subcycles or at the day boundary."""
    state = SimState(cloud_only(**SMALL))
    cases = {0: (3, 2.0, 3, 4), 1: (3, 2.5, 3, 5),
             # Starts past the day clamp to the last subcycle.
             2: (30, 4.0, 24, 24),
             # Long sessions end at the day boundary (cycles do not wrap).
             3: (22, 9.0, 22, 24)}
    plans = [PlayerDayPlan(player=p, start_subcycle=start,
                           duration_hours=duration)
             for p, (start, duration, _, _) in cases.items()]
    sweep.choose_games(state, plans, np.random.default_rng(0))
    sessions, _, _ = sweep.sweep_day(state, plans,
                                     np.random.default_rng(1),
                                     RunResult(), measuring=False)
    cols = sessions.columns
    for player, (_, _, start, end) in cases.items():
        assert (cols.start_subcycle[player],
                cols.end_subcycle[player]) == (start, end)


def test_join_connects_and_counts():
    state = SimState(cloudfog_basic(**SMALL))
    rng = np.random.default_rng(0)
    plans = [PlayerDayPlan(player=p, start_subcycle=1, duration_hours=2.0)
             for p in range(40)]
    from repro.core.sweep import choose_games

    choose_games(state, plans, rng)
    kinds = set()
    for plan in plans:
        kinds.add(join(state, plan, rng).kind)
    assert ConnectionKind.SUPERNODE in kinds


def test_take_offline_updates_directory_and_availability():
    state = SimState(cloudfog_basic(**SMALL))
    live_before = len(state.live_supernodes)
    victim = state.live_supernodes[0]
    orphans = take_offline(state, [victim])
    assert orphans[0][0] is victim
    assert len(state.live_supernodes) == live_before - 1
    assert victim.supernode_id not in state.live_ids
    assert fog_availability(state) == pytest.approx(
        (live_before - 1) / state.deployed_count)


def test_fail_supernodes_migrates_players():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    system.run(days=1)
    # Re-create a day's connections so supernodes hold players.
    rng = np.random.default_rng(0)
    plans = sweep.sample_plans(system.state, rng)
    sweep.choose_games(system.state, plans, rng)
    sweep.sweep_day(system.state, plans, rng, RunResult(), measuring=False)
    # Re-connect one player to every live supernode so any failure
    # displaces someone.
    next_player = 0
    for sn in list(system.live_supernodes):
        if sn.has_capacity:
            while next_player in sn.connected:
                next_player += 1
            sn.connect(next_player)
            next_player += 1
    before = len(system.live_supernodes)
    latencies = system.fail_supernodes(before // 2, rng)
    # Survivors have room, so displaced players actually recover.
    assert latencies
    # ~0.8 s migrations: detection dominates, everything under ~2 s.
    assert all(500.0 <= lat <= 2000.0 for lat in latencies)
    assert len(system.live_supernodes) == before - before // 2
    # Conservation: every displacement is recovered, degraded or
    # dropped — nothing is silently folded into the latency list.
    summary = system.fault_outcomes
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.recovered == len(latencies)


def test_fail_supernodes_validation():
    state = SimState(cloudfog_basic(**SMALL))
    with pytest.raises(ValueError):
        fail_supernodes(state, -1, np.random.default_rng(0))
    bare = SimState(cloud_only(num_players=50, seed=1))
    assert fail_supernodes(bare, 2, np.random.default_rng(0)) == []
