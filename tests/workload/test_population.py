"""Tests for population building and the social game-choice rule."""

import numpy as np
import pytest

from repro.social.graph import FriendGraph
from repro.workload.games import (GAME_CATALOGUE, GAME_CODE, game_for_level,
                                  random_codes)
from repro.workload.population import Population, build_population, choose_game


def test_build_population_shares():
    rng = np.random.default_rng(0)
    population = build_population(rng, num_players=2000, num_datacenters=5,
                                  supernode_capable_share=0.10)
    assert population.topology.num_players == 2000
    share = population.supernode_capable.mean()
    assert abs(share - 0.10) < 0.03
    assert len(population.capable_players()) == population.supernode_capable.sum()


def test_build_population_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_population(rng, 100, 2, supernode_capable_share=1.5)


def test_population_consistency_checks():
    rng = np.random.default_rng(0)
    population = build_population(rng, 50, 2)
    with pytest.raises(ValueError):
        Population(topology=population.topology,
                   friends=FriendGraph(10),
                   supernode_capable=population.supernode_capable)
    with pytest.raises(ValueError):
        Population(topology=population.topology,
                   friends=population.friends,
                   supernode_capable=np.zeros(10, dtype=bool))


def _codes(num_players, playing):
    """The day's code column: each playing player's catalogue index."""
    code = [-1] * num_players
    for player, game in playing.items():
        code[player] = GAME_CODE[game.name]
    return code


def _choose(friends, playing, fallbacks):
    return GAME_CATALOGUE[choose_game(
        0, friends.adjacency(), _codes(friends.num_players, playing),
        fallbacks)]


def test_choose_game_random_without_friends_playing():
    rng = np.random.default_rng(0)
    friends = FriendGraph(5, edges=[(0, 1)])
    fallbacks = iter(random_codes(rng, 200).tolist())
    games = {_choose(friends, {}, fallbacks).name for _ in range(200)}
    assert len(games) >= 3  # spreads across the catalogue


def test_choose_game_follows_friend_majority():
    """§4.1: join the game most friends are playing."""
    friends = FriendGraph(6, edges=[(0, 1), (0, 2), (0, 3)])
    playing = {1: game_for_level(2), 2: game_for_level(2),
               3: game_for_level(4)}
    chosen = _choose(friends, playing, iter(()))  # draws nothing
    assert chosen.default_level == 2


def test_choose_game_ignores_non_friends():
    rng = np.random.default_rng(0)
    friends = FriendGraph(6, edges=[(0, 1)])
    playing = {5: game_for_level(3)}  # player 5 is not a friend of 0
    fallbacks = iter(random_codes(rng, 200).tolist())
    counts = {_choose(friends, playing, fallbacks).name for _ in range(200)}
    assert len(counts) >= 3  # still effectively random


def test_choose_game_tie_is_deterministic():
    friends = FriendGraph(6, edges=[(0, 1), (0, 2)])
    playing = {1: game_for_level(5), 2: game_for_level(2)}
    results = {_choose(friends, playing, iter(())).name for _ in range(20)}
    assert results == {GAME_CATALOGUE[1].name}  # earlier catalogue entry wins
