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
    for sn in system.live_supernodes:
        while sn.has_capacity and player < system.topology.num_players:
            if player not in sn.connected:
                sn.connect(player)
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
    assert sum(sn.load for sn in system.live_supernodes) > 0

    # Release the synthetic connections so the next day's sweep starts
    # from a clean slate (sessions normally disconnect at day end).
    for sn in system.live_supernodes:
        for player in list(sn.connected):
            sn.disconnect(player)
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
    dead = [sn for sn in system.supernode_pool
            if not sn.online and sn.supernode_id < 10]
    result = RunResult()
    system.run_day(1, result, measuring=True)
    for sn in dead:
        assert sn.load == 0


def test_repeated_failures_are_stable():
    """Failing in waves never corrupts bookkeeping."""
    system = CloudFogSystem(cloudfog_basic(num_players=200,
                                           num_supernodes=16, seed=5))
    rng = np.random.default_rng(0)
    system.run(days=1)
    for _ in range(5):
        _connect_everyone(system, rng)
        system.fail_supernodes(3, rng)
        for sn in system.live_supernodes:
            assert sn.online
            assert sn.load <= sn.effective_capacity
    # Asking for more failures than survivors is clamped, not an error.
    system.fail_supernodes(999, rng)
    assert system.live_supernodes == []


def test_failures_until_pool_empty_keep_bookkeeping_consistent():
    """Repeated waves drain the fog completely; every structure agrees.

    After each wave the directory, the live-id set, the candidate
    caches and the per-node loads must stay mutually consistent, the
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
        live_ids = {sn.supernode_id for sn in system.live_supernodes}
        assert system.state.live_ids == live_ids
        assert len(system.directory) == len(system.live_supernodes)
        assert {sn.supernode_id for sn in system.directory.supernodes} \
            == live_ids
        # Candidate caches never point at a dead supernode.
        for player in range(system.topology.num_players):
            for entry in system.candidates.candidates(player):
                assert entry.supernode_id in live_ids
        for sn in system.live_supernodes:
            assert sn.online
            assert sn.load == len(sn.connected) <= sn.effective_capacity
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
