"""Tests for repro.core.state: SimState construction, workload knobs,
and the shared path-latency helpers."""

import numpy as np
import pytest

from repro.core import CloudFogSystem, cloudfog_basic
from repro.core.state import (
    SimState,
    cloud_one_way_ms,
    deploy,
    player_supernode_ms,
    set_arrival_rates,
)

from ..network import topology_oracle

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


@pytest.fixture(scope="module")
def state():
    return SimState(cloudfog_basic(**SMALL))


def test_state_builds_infrastructure(state):
    assert state.supernode_pool
    assert state.live_supernodes
    assert len(state.live_supernodes) <= SMALL["num_supernodes"]
    assert state.directory is not None
    assert np.flatnonzero(state.supernode_pool.online).tolist() \
        == sorted(state.live_supernodes)


def test_state_matches_facade_construction():
    """The façade's state is bit-for-bit the directly built one."""
    direct = SimState(cloudfog_basic(**SMALL))
    facade = CloudFogSystem(cloudfog_basic(**SMALL)).state
    assert direct.live_supernodes == facade.live_supernodes
    assert direct.supernode_join_latencies_ms \
        == facade.supernode_join_latencies_ms
    assert np.array_equal(direct.nearest_dc, facade.nearest_dc)


def test_deploy_keeps_live_ids_consistent():
    state = SimState(cloudfog_basic(**SMALL))
    subset = [5, 0, 3, 1]
    deploy(state, subset)
    assert state.deployed_count == 4
    assert state.live_supernodes == subset
    pool = state.supernode_pool
    for sid in range(len(pool)):
        assert pool.online[sid] == (sid in subset)
        assert pool.available[sid] == (sid in subset)


def test_set_arrival_rates_drive_participation():
    system = CloudFogSystem(cloudfog_basic(**SMALL))
    system.set_arrival_rates(offpeak_per_min=0.05, peak_per_min=0.2)
    # 0.05*60*19 + 0.2*60*5 = 57 + 60 = 117 participants baseline.
    assert system.daily_participants == 117
    result = system.run(days=2)
    assert all(d.online_players <= 150 for d in result.days)
    with pytest.raises(ValueError):
        system.set_arrival_rates(-1.0, 1.0)
    with pytest.raises(ValueError):
        system.set_arrival_rates(0.0, 0.0)


def test_set_arrival_rates_on_state():
    state = SimState(cloudfog_basic(**SMALL))
    set_arrival_rates(state, offpeak_per_min=0.1, peak_per_min=0.1)
    assert state.daily_participants == int(round(0.1 * 60 * 19
                                                 + 0.1 * 60 * 5))
    assert state.weekly_weights is not None


def test_weekly_weights_modulate_daily_participants():
    from repro.core.sweep import sample_plans

    state = SimState(cloudfog_basic(num_players=2000,
                                    num_supernodes=12, seed=3))
    set_arrival_rates(state, offpeak_per_min=0.5, peak_per_min=1.0)
    rng = np.random.default_rng(0)
    midweek = len(sample_plans(state, rng, day=0))   # weight 0.92
    saturday = len(sample_plans(state, rng, day=5))  # weight 1.12
    assert saturday > midweek


def test_latency_helpers_use_single_formula(state):
    """Path latencies route through LatencyModel.point_one_way_ms."""
    topology = state.topology
    pool = state.supernode_pool
    got = player_supernode_ms(state, 5, 0)
    expected = topology.latency_model.point_one_way_ms(
        float(topology.player_coords[5, 0]),
        float(topology.player_coords[5, 1]),
        float(pool.x_km[0]), float(pool.y_km[0]),
        float(topology.player_access_ms[5]), float(pool.access_ms[0]))
    assert got == expected
    assert cloud_one_way_ms(state, 5) \
        == topology_oracle.nearest_datacenter_one_way_ms(topology, 5)
