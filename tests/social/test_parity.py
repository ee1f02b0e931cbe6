"""Parity of the adjacency-backed social phases with their networkx form.

Each live function runs beside its frozen networkx-era copy in
:mod:`.nx_oracle` on the same generated input.  The graph must answer
every query in the same order, and the partitioner and the game-choice
rule must return the same values and leave the generator in the same
state, so no RNG draw and no keep/rollback decision moved.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.server_assignment import _restrict
from repro.social.communities import Partition, paper_partition
from repro.social.graph import FriendGraph, generate_friend_graph
from repro.streaming.video import QUALITY_LADDER
from repro.workload.games import GAME_CATALOGUE, Game
from repro.workload.population import choose_game

nx = pytest.importorskip(
    "networkx", reason="the networkx oracle needs the 'ablation' extra")

from . import nx_oracle  # noqa: E402


@st.composite
def edge_lists(draw, max_players=24):
    """A player count and an edge list with repeats and reversed pairs."""
    n = draw(st.integers(min_value=2, max_value=max_players))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] != ab[1])
    edges = draw(st.lists(pair, max_size=4 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=n)
                   if edges else st.just([]))
    flips = draw(st.lists(st.booleans(), min_size=len(repeats),
                          max_size=len(repeats)))
    return n, edges + [(b, a) if flip else (a, b)
                       for (a, b), flip in zip(repeats, flips)]


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_friend_graph_matches_networkx(case):
    n, edges = case
    graph = FriendGraph(n, edges)
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)

    assert list(graph.edges()) == list(reference.edges())
    assert graph.adjacency() == {
        p: tuple(neighbours) for p, neighbours in reference.adjacency()}
    assert [graph.degree(p) for p in range(n)] == \
        [reference.degree(p) for p in range(n)]
    assert graph.num_edges == reference.number_of_edges()
    # Same members and the same iteration order as a set built from
    # the networkx neighbour iterator.
    assert [list(graph.friends(p)) for p in range(n)] == \
        [list(set(reference.neighbors(p))) for p in range(n)]
    copy = graph.to_networkx()
    assert list(copy.nodes()) == list(reference.nodes())
    assert list(copy.edges()) == list(reference.edges())


def _both_graphs(n, edges):
    return FriendGraph(n, edges), nx_oracle.NxFriendGraph(n, edges)


@given(case=edge_lists(max_players=40),
       z=st.integers(min_value=1, max_value=8),
       limits=st.sampled_from([(100, 10), (20, 5), (50, 49), (3, 1)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_paper_partition_matches_the_networkx_partitioner(case, z, limits,
                                                          seed):
    n, edges = case
    graph, reference = _both_graphs(n, edges)
    h1, h2 = limits
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)

    ours = paper_partition(graph, z, rng, h1=h1, h2=h2)
    theirs = nx_oracle.paper_partition(reference, z, reference_rng,
                                       h1=h1, h2=h2)

    assert ours == theirs
    assert list(ours) == list(theirs)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(case=edge_lists(max_players=30),
       z=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_partition_modularity_floats_match_bit_for_bit(case, z, seed):
    """The Eq. 13 sum runs over communities in the same order: the
    floats compared by the keep/rollback rule are equal, not close."""
    n, edges = case
    graph, reference = _both_graphs(n, edges)
    rng = np.random.default_rng(seed)
    assignment = {p: int(rng.integers(0, z)) for p in range(n)}
    ours = Partition(graph, assignment)
    theirs = nx_oracle.Partition(reference, assignment)
    assert ours.modularity() == theirs.modularity()
    for _ in range(3 * n):
        player, community = int(rng.integers(0, n)), int(rng.integers(0, z))
        assert ours.move(player, community) == \
            theirs.move(player, community)
        assert ours.modularity() == theirs.modularity()
    assert ours.as_dict() == theirs.as_dict()
    assert ours.sizes() == theirs.sizes()
    for community in range(z):
        assert ours.members(community) == [
            p for p, c in theirs.community_of.items() if c == community]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=200),
       share=st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_restrict_adds_the_same_friendships_in_the_same_order(seed, n, share):
    rng = np.random.default_rng(seed)
    graph = generate_friend_graph(rng, n)
    reference = nx_oracle.NxFriendGraph(n, graph.edges())
    players = sorted(rng.choice(n, size=max(1, int(share * n)),
                                replace=False).tolist())
    dense = _restrict(graph, players)
    expected = nx_oracle._restrict(reference, players)
    assert dense.num_players == expected.num_players
    assert list(dense.edges()) == list(expected.edges())
    assert dense.adjacency() == expected.adjacency()


#: Games outside the catalogue: a fresh name, and a catalogue name on a
#: different object (the rule counts by name, so it joins that count).
CUSTOM = Game("Offline", "custom", QUALITY_LADDER[0])
NAMESAKE = Game(GAME_CATALOGUE[3].name, "custom", QUALITY_LADDER[0])
GAMES = [*GAME_CATALOGUE, CUSTOM, NAMESAKE]


@given(friend_games=st.lists(st.one_of(st.none(), st.sampled_from(GAMES)),
                             max_size=12),
       strangers=st.lists(st.sampled_from(GAMES), max_size=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(friend_games=[GAME_CATALOGUE[4], GAME_CATALOGUE[1]],
         strangers=[], seed=0)  # a tie: the earlier catalogue entry wins
@example(friend_games=[CUSTOM, GAME_CATALOGUE[2], CUSTOM],
         strangers=[], seed=0)  # a non-catalogue game tops the count
@example(friend_games=[None, CUSTOM, GAME_CATALOGUE[0]],
         strangers=[], seed=0)  # a non-catalogue tie with a catalogue game
@example(friend_games=[NAMESAKE, GAME_CATALOGUE[3], GAME_CATALOGUE[1]],
         strangers=[], seed=0)  # a namesake counts toward its catalogue name
@example(friend_games=[None], strangers=[GAME_CATALOGUE[0]], seed=0)
@settings(max_examples=200, deadline=None)
def test_choose_game_matches_the_counter_rule(friend_games, strangers, seed):
    """Friends are players 1..k of player 0; ``None`` is offline."""
    k = len(friend_games)
    n = 1 + k + len(strangers)
    edges = [(0, f) for f in range(1, k + 1)]
    playing = {f: game for f, game in enumerate(friend_games, start=1)
               if game is not None}
    playing.update({k + 1 + i: game for i, game in enumerate(strangers)})
    graph, reference = _both_graphs(n, edges)
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)

    ours = choose_game(0, graph.adjacency(), playing, rng)
    theirs = nx_oracle.choose_game(0, reference, playing, reference_rng)

    assert ours is theirs
    assert rng.bit_generator.state == reference_rng.bit_generator.state
