"""Tests for modularity (Eq. 13) and the §3.4 partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.communities import (
    Partition,
    greedy_modularity_reference,
    modularity,
    paper_partition,
    random_partition,
)
from repro.social.graph import FriendGraph, generate_friend_graph


def two_cliques(k=4):
    """Two k-cliques joined by one bridge edge: the canonical test case."""
    graph = FriendGraph(2 * k)
    for block in range(2):
        base = block * k
        for i in range(k):
            for j in range(i + 1, k):
                graph.add_friendship(base + i, base + j)
    graph.add_friendship(0, k)  # bridge
    return graph


def test_modularity_matches_networkx():
    nx_community = pytest.importorskip("networkx.algorithms.community")

    graph = two_cliques()
    assignment = {p: 0 if p < 4 else 1 for p in range(8)}
    ours = modularity(graph, assignment)
    theirs = nx_community.modularity(
        graph.to_networkx(), [set(range(4)), set(range(4, 8))])
    assert ours == pytest.approx(theirs)


def test_modularity_perfect_split_beats_random_split():
    graph = two_cliques()
    good = {p: 0 if p < 4 else 1 for p in range(8)}
    bad = {p: p % 2 for p in range(8)}
    assert modularity(graph, good) > modularity(graph, bad)


def test_modularity_single_community_is_zero():
    graph = two_cliques()
    assignment = {p: 0 for p in range(8)}
    assert modularity(graph, assignment) == pytest.approx(0.0)


def test_modularity_empty_graph_is_zero():
    graph = FriendGraph(5)
    assert modularity(graph, {p: 0 for p in range(5)}) == 0.0


def test_modularity_missing_player_raises():
    graph = two_cliques()
    with pytest.raises(ValueError):
        modularity(graph, {0: 0})


def test_partition_incremental_matches_full_recompute():
    graph = two_cliques()
    assignment = {p: p % 2 for p in range(8)}
    partition = Partition(graph, assignment)
    assert partition.modularity() == pytest.approx(modularity(graph, assignment))
    partition.move(1, 0)
    partition.move(5, 1)
    assert partition.modularity() == pytest.approx(
        modularity(graph, partition.as_dict()))


def test_partition_move_returns_old_and_noop():
    graph = two_cliques()
    partition = Partition(graph, {p: 0 for p in range(8)})
    assert partition.move(3, 1) == 0
    assert partition.move(3, 1) == 1  # no-op move
    assert [len(partition.members(c)) for c in (0, 1)] == [7, 1]


def test_random_partition_covers_all_players():
    graph = two_cliques()
    rng = np.random.default_rng(0)
    assignment = random_partition(graph.num_players, 3, rng)
    assert set(assignment) == set(range(8))
    assert set(assignment.values()) <= {0, 1, 2}
    with pytest.raises(ValueError):
        random_partition(graph.num_players, 0, rng)


def test_random_partition_draws_one_integer_per_player():
    """One ``integers(0, z)`` draw per player, in player order."""
    twin = np.random.default_rng(5)
    expected = {p: int(twin.integers(0, 4)) for p in range(50)}
    rng = np.random.default_rng(5)
    assert random_partition(50, 4, rng) == expected
    assert rng.bit_generator.state == twin.bit_generator.state


def test_paper_partition_recovers_clique_structure():
    graph = two_cliques(k=6)
    rng = np.random.default_rng(0)
    assignment = paper_partition(graph, 2, rng, h1=200, h2=30)
    gamma = modularity(graph, assignment)
    # The two-clique split has modularity ~0.435; the seed-and-swap
    # algorithm should land well above a random split (~0).
    assert gamma > 0.25


def test_paper_partition_beats_random_on_power_law_graph():
    rng = np.random.default_rng(1)
    graph = generate_friend_graph(rng, 300)
    ours = modularity(graph, paper_partition(graph, 5, np.random.default_rng(2)))
    rand = modularity(graph, random_partition(
        graph.num_players, 5, np.random.default_rng(2)))
    assert ours > rand


def test_paper_partition_assigns_every_player():
    rng = np.random.default_rng(3)
    graph = generate_friend_graph(rng, 120)
    assignment = paper_partition(graph, 4, rng)
    assert set(assignment) == set(range(120))
    assert all(0 <= c < 4 for c in assignment.values())


def test_paper_partition_single_community():
    graph = two_cliques()
    assignment = paper_partition(graph, 1, np.random.default_rng(0))
    assert set(assignment.values()) == {0}


def test_paper_partition_empty_graph():
    assert paper_partition(FriendGraph(0), 3, np.random.default_rng(0)) == {}


def test_paper_partition_validation():
    graph = two_cliques()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        paper_partition(graph, 0, rng)
    with pytest.raises(ValueError):
        paper_partition(graph, 2, rng, h1=10, h2=10)


def test_greedy_reference_recovers_cliques():
    graph = two_cliques(k=6)
    assignment = greedy_modularity_reference(graph, 2)
    assert modularity(graph, assignment) > 0.3
    with pytest.raises(ValueError):
        greedy_modularity_reference(graph, 0)
    assert greedy_modularity_reference(FriendGraph(0), 2) == {}


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_property_swaps_never_decrease_modularity(seed):
    """The §3.4 accept-only-improvements loop is monotone vs its seeding."""
    rng = np.random.default_rng(seed)
    graph = generate_friend_graph(rng, 80)
    seeded_rng = np.random.default_rng(seed + 1)
    assignment = paper_partition(graph, 4, seeded_rng, h1=50, h2=49)
    gamma = modularity(graph, assignment)
    assert -1.0 <= gamma <= 1.0
