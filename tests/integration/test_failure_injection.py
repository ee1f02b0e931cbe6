"""Failure-injection tests: the system degrades gracefully, never breaks."""

import numpy as np
import pytest

from repro.core import CloudFogSystem, cloudfog_advanced, cloudfog_basic, sweep
from repro.core.entities import ConnectionKind
from repro.core.accounting import RunResult


def _connect_everyone(system, rng):
    state = system.state
    plans = sweep.sample_plans(state, rng)
    sweep.choose_games(state, plans, rng)
    sweep.sweep_day(state, plans, rng, RunResult(), measuring=False)
    player = 0
    pool = system.supernode_pool
    for sid in system.live_supernodes:
        while pool.available[sid] and player < system.topology.num_players:
            if player not in pool.connected[sid]:
                pool.connect(sid, player)
            player += 1


def test_total_fog_outage_falls_back_to_cloud():
    """Every supernode dies; the next day still serves every player."""
    system = CloudFogSystem(cloudfog_basic(num_players=200,
                                           num_supernodes=12, seed=5))
    rng = np.random.default_rng(0)
    system.run(days=1)
    _connect_everyone(system, rng)
    system.fail_supernodes(len(system.live_supernodes), rng)
    assert system.live_supernodes == []

    result = RunResult()
    system.run_day(1, result, measuring=True)
    assert result.days
    day = result.days[-1]
    assert day.online_players > 0
    assert day.supernode_players == 0
    assert day.cloud_players == day.online_players


def test_partial_outage_migrates_and_keeps_serving():
    system = CloudFogSystem(cloudfog_basic(num_players=300,
                                           num_supernodes=20, seed=5))
    rng = np.random.default_rng(0)
    system.run(days=1)
    _connect_everyone(system, rng)
    before = len(system.live_supernodes)
    latencies = system.fail_supernodes(before // 2, rng)
    assert len(system.live_supernodes) == before - before // 2
    # Everyone was displaced and every displacement is accounted for:
    # recovered onto a survivor, or dropped/degraded when the (fully
    # packed) survivors had no room — never silently lost.
    summary = system.fault_outcomes
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.recovered == len(latencies)
    pool = system.supernode_pool
    assert sum(len(pool.connected[sid])
               for sid in system.live_supernodes) > 0

    # Release the synthetic connections so the next day's sweep starts
    # from a clean slate (sessions normally disconnect at day end).
    for sid in system.live_supernodes:
        pool.disconnect_many(sid, list(pool.connected[sid]))
    result = RunResult()
    system.run_day(1, result, measuring=True)
    kinds = {r.kind for r in result.sessions}
    assert ConnectionKind.SUPERNODE in kinds  # survivors still serve


def test_failed_supernodes_never_get_new_connections():
    system = CloudFogSystem(cloudfog_basic(num_players=200,
                                           num_supernodes=10, seed=5))
    rng = np.random.default_rng(0)
    system.run(days=1)
    _connect_everyone(system, rng)
    system.fail_supernodes(5, rng)
    pool = system.supernode_pool
    dead = np.flatnonzero(~pool.online[:10]).tolist()
    assert dead
    result = RunResult()
    system.run_day(1, result, measuring=True)
    for sid in dead:
        assert not pool.connected[sid]


def test_repeated_failures_are_stable():
    """Failing in waves never corrupts bookkeeping."""
    system = CloudFogSystem(cloudfog_basic(num_players=200,
                                           num_supernodes=16, seed=5))
    rng = np.random.default_rng(0)
    system.run(days=1)
    for _ in range(5):
        _connect_everyone(system, rng)
        system.fail_supernodes(3, rng)
        pool = system.supernode_pool
        for sid in system.live_supernodes:
            assert pool.online[sid]
            assert len(pool.connected[sid]) <= pool.capacity[sid]
    # Asking for more failures than survivors is clamped, not an error.
    system.fail_supernodes(999, rng)
    assert system.live_supernodes == []


def test_failures_until_pool_empty_keep_bookkeeping_consistent():
    """Repeated waves drain the fog completely; every structure agrees.

    After each wave the online column, the live list, the directory,
    the candidate caches and the per-node loads must stay mutually
    consistent, the
    resilience ledger must conserve sessions, and once the pool is
    empty the system must still serve everyone via the cloud.
    """
    system = CloudFogSystem(cloudfog_basic(num_players=200,
                                           num_supernodes=14, seed=9))
    rng = np.random.default_rng(1)
    system.run(days=1)
    _connect_everyone(system, rng)
    waves = 0
    while system.live_supernodes:
        system.fail_supernodes(4, rng)
        waves += 1
        pool = system.supernode_pool
        live_ids = set(system.live_supernodes)
        assert len(live_ids) == len(system.live_supernodes)
        assert set(np.flatnonzero(pool.online).tolist()) == live_ids
        # Candidate caches and directory answers never name a dead
        # supernode.
        for player in range(system.topology.num_players):
            for entry in system.candidates.candidates(player):
                assert entry.supernode_id in live_ids
            assert set(system.directory.candidates_for(player, 8)) \
                <= live_ids
        for sid in system.live_supernodes:
            assert len(pool.connected[sid]) <= pool.capacity[sid]
        summary = system.fault_outcomes
        assert summary.conserved()
        assert waves < 100  # termination guard
    assert system.live_supernodes == []
    assert system.fault_outcomes.displaced > 0
    # The emptied fog still serves the whole population from the cloud.
    result = RunResult()
    system.run_day(1, result, measuring=True)
    day = result.days[-1]
    assert day.online_players > 0
    assert day.cloud_players == day.online_players


def test_advanced_system_survives_outage_with_provisioning():
    """CloudFog/A redeploys from the pool after an outage."""
    config = cloudfog_advanced(num_players=300, num_supernodes=18, seed=5)
    system = CloudFogSystem(config)
    rng = np.random.default_rng(0)
    result = RunResult()
    # Warm the provisioner past its one-week season (window 4 h).
    for day in range(8):
        system.run_day(day, result, measuring=False)
    system.fail_supernodes(len(system.live_supernodes) // 2, rng)
    system.run_day(8, result, measuring=True)
    # Provisioning redeployed: the live set is non-empty again.
    assert len(system.live_supernodes) > 0
