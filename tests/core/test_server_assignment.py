"""Tests for the §3.4 server-assignment wiring."""

import numpy as np

from repro.cloud.datacenter import Datacenter
from repro.core.server_assignment import (
    assign_players_randomly,
    assign_players_socially,
)
from repro.social.graph import FriendGraph, generate_friend_graph


def test_social_assignment_covers_all_players():
    rng = np.random.default_rng(0)
    friends = generate_friend_graph(rng, 200)
    datacenter = Datacenter(0, num_servers=5)
    players = list(range(0, 200, 2))  # only even players live near this DC
    result = assign_players_socially(datacenter, players, friends, rng)
    assert result.num_players == len(players)
    assert set(result.partition) == set(players)
    assert all(datacenter.server_of(p) is not None for p in players)
    assert result.wall_time_s >= 0.0


def test_social_assignment_reduces_cross_server_interactions():
    """The whole point of §3.4: friends co-locate, server latency drops."""
    rng = np.random.default_rng(1)
    friends = generate_friend_graph(rng, 300)
    players = list(range(300))
    interactions = [(a, b) for a, b in friends.edges()]

    social_dc = Datacenter(0, num_servers=6)
    assign_players_socially(social_dc, players, friends,
                            np.random.default_rng(2))
    social_cross = social_dc.cross_server_fraction(interactions)

    random_dc = Datacenter(0, num_servers=6)
    assign_players_randomly(random_dc, players, np.random.default_rng(2))
    random_cross = random_dc.cross_server_fraction(interactions)

    assert social_cross < random_cross
    assert (social_dc.mean_interaction_latency_ms(interactions)
            < random_dc.mean_interaction_latency_ms(interactions))


def test_random_assignment_spreads_load():
    rng = np.random.default_rng(0)
    datacenter = Datacenter(0, num_servers=4)
    assign_players_randomly(datacenter, list(range(400)), rng)
    loads = [len(server.players) for server in datacenter.servers]
    assert sum(loads) == 400
    assert min(loads) > 50  # roughly uniform


def test_empty_player_list_is_fine():
    rng = np.random.default_rng(0)
    datacenter = Datacenter(0, num_servers=3)
    result = assign_players_socially(datacenter, [], FriendGraph(0), rng)
    assert result.partition == {}
    assert result.num_players == 0


def test_social_assignment_preserves_original_ids():
    rng = np.random.default_rng(0)
    friends = FriendGraph(10, edges=[(7, 9)])
    datacenter = Datacenter(0, num_servers=2)
    result = assign_players_socially(datacenter, [7, 9], friends, rng)
    assert set(result.partition) == {7, 9}
    # Two friends end up on the same server.
    assert datacenter.server_of(7) == datacenter.server_of(9)
