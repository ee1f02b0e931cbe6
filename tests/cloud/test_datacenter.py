"""Tests for datacenters and game servers."""

import numpy as np
import pytest

from repro.cloud.datacenter import DEFAULT_SERVERS_PER_DATACENTER, Datacenter
from repro.cloud.server import SERVER_HOP_MS, GameServer
from repro.core.server_assignment import assign_players_randomly


def test_default_server_count_matches_paper():
    """§4.1: 50 servers per datacenter."""
    assert DEFAULT_SERVERS_PER_DATACENTER == 50
    assert Datacenter(0).num_servers == 50


def test_server_assign_and_load():
    server = GameServer(0)
    server.assign(1)
    server.assign(2)
    assert server.players == {1, 2}
    server.unassign(1)
    assert server.players == {2}
    server.unassign(99)  # idempotent


def test_same_server_interaction_is_free():
    a = GameServer(0)
    assert a.interaction_latency_ms(a) == 0.0
    assert a.cross_server_interactions == 0


def test_cross_server_interaction_costs_round_trip():
    a, b = GameServer(0), GameServer(1)
    latency = a.interaction_latency_ms(b)
    assert latency == pytest.approx(2 * SERVER_HOP_MS)
    assert a.cross_server_interactions == 1


def test_interaction_hop_validation():
    a, b = GameServer(0), GameServer(1)
    with pytest.raises(ValueError):
        a.interaction_latency_ms(b, hop_ms=-1.0)


def test_datacenter_assignment_moves_player():
    dc = Datacenter(0, num_servers=4)
    dc.assign(1, 0)
    dc.assign(1, 2)  # reassignment removes the old copy (single copy!)
    assert dc.server_of(1) == 2
    assert dc.servers[0].players == set()
    assert dc.servers[2].players == {1}


def test_datacenter_assignment_bounds():
    dc = Datacenter(0, num_servers=4)
    with pytest.raises(ValueError):
        dc.assign(1, 4)
    with pytest.raises(ValueError):
        dc.assign(1, -1)


def test_datacenter_validation():
    with pytest.raises(ValueError):
        Datacenter(0, num_servers=0)
    with pytest.raises(ValueError):
        Datacenter(0, hop_ms=-1.0)


def test_random_assignment_covers_all_players():
    """The random baseline places every player on exactly one server."""
    dc = Datacenter(0, num_servers=5)
    assign_players_randomly(dc, list(range(100)), np.random.default_rng(0))
    assert all(dc.server_of(p) is not None for p in range(100))
    assert sum(len(server.players) for server in dc.servers) == 100


def test_partition_assignment_maps_communities_to_servers():
    dc = Datacenter(0, num_servers=3)
    dc.assign_partition({1: 0, 2: 0, 3: 1, 4: 5})
    assert dc.server_of(1) == dc.server_of(2) == 0
    assert dc.server_of(3) == 1
    assert dc.server_of(4) == 5 % 3


def test_interaction_latency_same_vs_cross():
    dc = Datacenter(0, num_servers=2, hop_ms=5.0)
    dc.assign(1, 0)
    dc.assign(2, 0)
    dc.assign(3, 1)
    assert dc.interaction_latency_ms(1, 2) == 0.0
    assert dc.interaction_latency_ms(1, 3) == 10.0


def test_unassigned_player_treated_as_remote():
    dc = Datacenter(0, num_servers=2, hop_ms=5.0)
    dc.assign(1, 0)
    assert dc.interaction_latency_ms(1, 99) == 10.0


def test_mean_interaction_latency_and_cross_fraction():
    dc = Datacenter(0, num_servers=2, hop_ms=5.0)
    dc.assign(1, 0)
    dc.assign(2, 0)
    dc.assign(3, 1)
    pairs = [(1, 2), (1, 3)]
    assert dc.mean_interaction_latency_ms(pairs) == pytest.approx(5.0)
    assert dc.cross_server_fraction(pairs) == pytest.approx(0.5)
    assert dc.mean_interaction_latency_ms([]) == 0.0
    assert dc.cross_server_fraction([]) == 0.0
