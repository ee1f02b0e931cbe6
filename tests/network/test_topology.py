"""Tests for topology assembly."""

import numpy as np
import pytest

from repro.network.latency import LatencyModel
from repro.network.topology import build_topology

from . import topology_oracle as oracle


@pytest.fixture(scope="module")
def topology():
    rng = np.random.default_rng(42)
    return build_topology(rng, num_players=400, num_datacenters=5)


def test_build_topology_sizes(topology):
    assert topology.num_players == 400
    assert topology.num_datacenters == 5
    assert topology.player_coords.shape == (400, 2)
    assert topology.player_access_ms.shape == (400,)
    assert len(topology.player_links) == 400


def test_build_topology_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_topology(rng, num_players=0, num_datacenters=1)
    with pytest.raises(ValueError):
        build_topology(rng, num_players=10, num_datacenters=0)


def test_nearest_datacenter_is_actual_minimum(topology):
    index, distance = oracle.nearest_datacenter(topology, 7)
    all_distances = topology.player_datacenter_distances()[7]
    assert distance == pytest.approx(all_distances.min())
    assert index == int(np.argmin(all_distances))


def test_distance_cache_is_consistent(topology):
    first = topology.player_datacenter_distances()
    second = topology.player_datacenter_distances()
    assert first is second  # cached


def test_player_distance_symmetric(topology):
    assert oracle.player_distance(topology, 3, 9) == pytest.approx(
        oracle.player_distance(topology, 9, 3))
    assert oracle.player_distance(topology, 3, 3) == 0.0


def test_player_to_datacenter_latency_components(topology):
    one_way = oracle.player_to_datacenter_one_way_ms(topology, 0, 0)
    model = topology.latency_model
    distance = topology.player_datacenter_distances()[0, 0]
    expected = (topology.player_access_ms[0]
                + model.ms_per_km * distance
                + model.datacenter_access_ms)
    assert one_way == pytest.approx(expected)


def test_nearest_datacenter_latency_leq_all(topology):
    best = oracle.nearest_datacenter_one_way_ms(topology, 5)
    for dc in range(topology.num_datacenters):
        assert best <= oracle.player_to_datacenter_one_way_ms(topology, 5, dc) + 1e-9


def test_player_to_player_latency_symmetric(topology):
    assert oracle.player_to_player_one_way_ms(topology, 1, 2) == pytest.approx(
        oracle.player_to_player_one_way_ms(topology, 2, 1))


def test_players_to_points_matrix(topology):
    players = np.array([0, 1, 2])
    points = topology.player_coords[[10, 11]]
    access = topology.player_access_ms[[10, 11]]
    matrix = topology.players_to_points_one_way_ms(players, points, access)
    assert matrix.shape == (3, 2)
    assert matrix[0, 0] == pytest.approx(
        oracle.player_to_player_one_way_ms(topology, 0, 10))


def test_reproducibility_with_same_seed():
    a = build_topology(np.random.default_rng(1), 50, 3)
    b = build_topology(np.random.default_rng(1), 50, 3)
    assert np.allclose(a.player_coords, b.player_coords)
    assert np.allclose(a.player_access_ms, b.player_access_ms)


def test_custom_latency_model_used():
    model = LatencyModel(ms_per_km=0.5)
    topo = build_topology(np.random.default_rng(2), 20, 2, latency_model=model)
    assert topo.latency_model.ms_per_km == 0.5
