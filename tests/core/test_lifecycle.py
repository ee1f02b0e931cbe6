"""Tests for repro.core.lifecycle: joins, session windows, failures and
the §3.2.2 migration ladder."""

import numpy as np
import pytest

from repro.core import CloudFogSystem, ConnectionKind, cloud_only, cloudfog_basic, sweep
from repro.core.accounting import RunResult
from repro.core.lifecycle import fog_availability, join, take_offline
from repro.core.state import SimState
from repro.faults.detection import FailureDetector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workload.churn import DayPlans

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
    plans = DayPlans.of(list(cases), [case[0] for case in cases.values()],
                        [case[1] for case in cases.values()])
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
    plans = DayPlans.of(range(40), 1, 2.0)
    sweep.choose_games(state, plans, rng)
    kinds = {join(state, player, rng).kind
             for player in plans.player.tolist()}
    assert ConnectionKind.SUPERNODE in kinds


def test_take_offline_updates_directory_and_availability():
    state = SimState(cloudfog_basic(**SMALL))
    live_before = len(state.live_supernodes)
    victim = state.live_supernodes[0]
    orphans = take_offline(state, [victim])
    assert orphans[0][0] == victim
    assert len(state.live_supernodes) == live_before - 1
    assert victim not in state.live_supernodes
    assert not state.supernode_pool.online[victim]
    assert not state.supernode_pool.available[victim]
    for player in range(0, SMALL["num_players"], 10):
        assert victim not in state.directory.candidates_for(player, 8)
    assert fog_availability(state) == pytest.approx(
        (live_before - 1) / state.deployed_count)


def _crash_wave(day: int, subcycle: int, count: int) -> FaultPlan:
    return FaultPlan(events=(FaultEvent(day=day, subcycle=subcycle,
                                        kind="crash", count=count),))


def test_fail_supernodes_migrates_players():
    """A peak-hour crash wave re-homes its sessions (§3.2.2)."""
    system = CloudFogSystem(cloudfog_basic(
        fault_plan=_crash_wave(1, 21, 4), **SMALL))
    before = len(system.state.live_supernodes)
    result = system.run(days=2)
    assert len(system.state.live_supernodes) == before - 4
    # Conservation: every displacement is recovered, degraded or
    # dropped — nothing is silently folded into the latency list.
    summary = result.faults
    assert summary.displaced > 0
    assert summary.conserved()
    # Survivors have room, so displaced players actually recover, and
    # the measured day's migration sample is exactly those recoveries.
    latencies = summary.time_to_recover_ms
    assert latencies
    assert summary.recovered == len(latencies)
    assert result.migration_latencies_ms == latencies
    # ~0.8 s migrations: one heartbeat-phase detection draw plus the
    # reconnect ladder, everything under ~2 s.
    detector = FailureDetector()
    floor = ((detector.misses_to_declare - 1)
             * detector.heartbeat_interval_ms + detector.probe_timeout_ms)
    assert all(floor <= lat <= 2000.0 for lat in latencies)


def test_fail_supernodes_validation():
    """A crash wave needs a positive count; a system without
    supernodes has nothing to fail."""
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=12, kind="crash", count=-1)
    result = CloudFogSystem(cloud_only(
        num_players=50, seed=1, fault_plan=_crash_wave(0, 12, 2))
    ).run(days=1)
    assert result.faults.events_applied == 1
    assert result.faults.displaced == 0