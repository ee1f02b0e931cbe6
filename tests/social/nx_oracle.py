"""Frozen oracle: the social day phases as they ran on networkx.

Verbatim copies, taken before the social substrate moved to plain
adjacency, of the §3.4 partitioner (``Partition``, ``_OrderStatSet``,
``_seed_communities``, ``paper_partition`` from
``repro.social.communities``), of ``_restrict`` from
``repro.core.server_assignment``, of the §4.1 ``Counter`` game-choice
rule from ``repro.workload.population``, and of the networkx-backed
``FriendGraph`` they read.  ``test_parity.py`` runs them beside the
live code on the same inputs: equal outputs and equal generator states
afterwards mean every RNG draw and every keep/rollback decision is
unchanged.  Do not edit this file to follow the live code.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import networkx as nx
import numpy as np

from repro.workload.games import GAME_CATALOGUE, Game

from ..workload.game_choice_oracle import random_game

DEFAULT_SWAP_ATTEMPTS = 100
DEFAULT_MISS_LIMIT = 10


class NxFriendGraph:
    """The networkx-backed friendship graph the oracle reads."""

    def __init__(self, num_players: int,
                 edges: Iterable[tuple[int, int]] = ()) -> None:
        self.num_players = num_players
        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(num_players))
        for a, b in edges:
            self.add_friendship(a, b)

    def add_friendship(self, a: int, b: int) -> None:
        self._graph.add_edge(a, b)

    def friends(self, player: int) -> set[int]:
        return set(self._graph.neighbors(player))

    def degree(self, player: int) -> int:
        return int(self._graph.degree(player))

    def edges(self):
        return iter(self._graph.edges())

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return {player: tuple(neighbors)
                for player, neighbors in self._graph.adjacency()}


class Partition:
    """A mutable player→community assignment with O(deg) modularity updates."""

    def __init__(self, graph: NxFriendGraph, assignment: Mapping[int, int]):
        self.graph = graph
        self.community_of = {p: assignment[p] for p in range(graph.num_players)}
        self._internal: dict[int, int] = {}
        self._degree_sum: dict[int, int] = {}
        for player in range(graph.num_players):
            community = self.community_of[player]
            self._degree_sum[community] = (
                self._degree_sum.get(community, 0) + graph.degree(player))
        for a, b in graph.edges():
            if self.community_of[a] == self.community_of[b]:
                c = self.community_of[a]
                self._internal[c] = self._internal.get(c, 0) + 1

    def modularity(self) -> float:
        total = self.graph.num_edges
        if total == 0:
            return 0.0
        gamma = 0.0
        for community, degrees in self._degree_sum.items():
            e_c = self._internal.get(community, 0)
            gamma += e_c / total - (degrees / (2.0 * total)) ** 2
        return gamma

    def move(self, player: int, community: int) -> int:
        """Move ``player`` to ``community``; return its old community."""
        old = self.community_of[player]
        if old == community:
            return old
        degree = self.graph.degree(player)
        for friend in self.graph.friends(player):
            friend_community = self.community_of[friend]
            if friend_community == old:
                self._internal[old] = self._internal.get(old, 0) - 1
            if friend_community == community:
                self._internal[community] = self._internal.get(community, 0) + 1
        self._degree_sum[old] -= degree
        self._degree_sum[community] = self._degree_sum.get(community, 0) + degree
        self.community_of[player] = community
        return old

    def sizes(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for community in self.community_of.values():
            counts[community] = counts.get(community, 0) + 1
        return counts

    def as_dict(self) -> dict[int, int]:
        return dict(self.community_of)


class _OrderStatSet:
    """The set {0..n-1} with O(log n) removal and k-th-smallest queries.

    A Fenwick tree over membership counts.  ``_seed_communities`` draws
    uniformly from the *sorted* unassigned players; materialising that
    sort per draw is quadratic in the population, while this tree
    answers the same query by binary lifting over prefix counts.
    """

    def __init__(self, n: int):
        self._n = n
        self._tree = [0] * (n + 1)
        for i in range(1, n + 1):
            self._tree[i] += 1
            parent = i + (i & -i)
            if parent <= n:
                self._tree[parent] += self._tree[i]

    def remove(self, player: int) -> None:
        i = player + 1
        while i <= self._n:
            self._tree[i] -= 1
            i += i & -i

    def kth(self, k: int) -> int:
        """The k-th smallest member (0-based ``k``)."""
        pos = 0
        bit = 1 << self._n.bit_length()
        k += 1
        while bit:
            nxt = pos + bit
            if nxt <= self._n and self._tree[nxt] < k:
                pos = nxt
                k -= self._tree[nxt]
            bit >>= 1
        return pos  # tree slot pos+1 == player id pos


def _seed_communities(graph: NxFriendGraph, z: int,
                      rng: np.random.Generator) -> dict[int, int]:
    """Steps 1–4 of §3.4: grow z friend-pulled communities of ~|V|/z."""
    n = graph.num_players
    target = max(1, n // z)
    unassigned = set(range(n))
    stats = _OrderStatSet(n)
    assignment: dict[int, int] = {}

    def draw_unassigned() -> int:
        # Bit-equal to the original ``rng.choice(sorted(unassigned))``:
        # Generator.choice of a 1-D sequence draws one
        # ``integers(0, len)`` and indexes the sorted order, which the
        # order-statistic tree answers without building the sort.
        k = int(rng.integers(0, len(unassigned)))
        return stats.kth(k)

    def assign(player: int, community: int, members: list[int]) -> None:
        assignment[player] = community
        unassigned.discard(player)
        stats.remove(player)
        members.append(player)

    for community in range(z):
        if not unassigned:
            break
        members: list[int] = []
        # Step 1: a random seed player plus all its unassigned friends.
        seed = draw_unassigned()
        for player in [seed, *sorted(graph.friends(seed) & unassigned)]:
            if player in unassigned:
                assign(player, community, members)
        # Steps 2–3: pull in friends-of-members until the size target.
        attempts = 0
        while len(members) < target and unassigned and attempts < 4 * target:
            attempts += 1
            anchor = int(members[int(rng.integers(0, len(members)))])
            pulled = sorted(graph.friends(anchor) & unassigned)
            if not pulled:
                # Dead end: jump-start from a fresh unassigned player.
                pulled = [draw_unassigned()]
            for player in pulled:
                assign(player, community, members)

    # Step 4 cleanup: any leftovers go to the smallest communities.
    if unassigned:
        sizes = {c: 0 for c in range(z)}
        for community in assignment.values():
            sizes[community] += 1
        for player in sorted(unassigned):
            community = min(sizes, key=lambda c: sizes[c])
            assignment[player] = community
            sizes[community] += 1
    return assignment


def paper_partition(graph: NxFriendGraph, z: int, rng: np.random.Generator,
                    h1: int = DEFAULT_SWAP_ATTEMPTS,
                    h2: int = DEFAULT_MISS_LIMIT) -> dict[int, int]:
    """The full §3.4 algorithm: seed-and-swap modularity improvement."""
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    if h2 >= h1:
        raise ValueError(f"h2 ({h2}) must be smaller than h1 ({h1})")
    if graph.num_players == 0:
        return {}
    if z == 1:
        return {p: 0 for p in range(graph.num_players)}

    partition = Partition(graph, _seed_communities(graph, z, rng))

    # Steps 5–6: random group swaps kept only when modularity improves.
    misses = 0
    gamma = partition.modularity()
    for _ in range(h1):
        if misses >= h2:
            break
        community_a, community_b = rng.choice(z, size=2, replace=False)
        members_a = [p for p, c in partition.community_of.items()
                     if c == community_a]
        members_b = [p for p, c in partition.community_of.items()
                     if c == community_b]
        if not members_a or not members_b:
            misses += 1
            continue
        player_i = int(members_a[int(rng.integers(0, len(members_a)))])
        player_j = int(members_b[int(rng.integers(0, len(members_b)))])
        group_i = [player_i, *sorted(graph.friends(player_i))]
        group_j = [player_j, *sorted(graph.friends(player_j))]

        moves: list[tuple[int, int]] = []  # (player, previous community)
        for player in group_i:
            moves.append((player, partition.move(player, int(community_b))))
        for player in group_j:
            if player not in group_i:
                moves.append((player, partition.move(player, int(community_a))))

        new_gamma = partition.modularity()
        if new_gamma > gamma:
            gamma = new_gamma
            misses = 0
        else:
            # Miss: roll the swap back, newest move first.
            for player, previous in reversed(moves):
                partition.move(player, previous)
            misses += 1
    return partition.as_dict()


def _restrict(graph: NxFriendGraph, players: list[int]) -> NxFriendGraph:
    """Friendship graph reindexed to the given players (dense 0..n-1)."""
    index_of = {p: i for i, p in enumerate(players)}
    dense = NxFriendGraph(len(players))
    player_set = set(players)
    for a, b in graph.edges():
        if a in player_set and b in player_set:
            dense.add_friendship(index_of[a], index_of[b])
    return dense


def choose_game(player: int, friends: NxFriendGraph,
                playing: dict[int, Game], rng: np.random.Generator) -> Game:
    """The §4.1 social game-choice rule."""
    friend_games = [playing[f] for f in friends.adjacency().get(player, ())
                    if f in playing]
    if not friend_games:
        return random_game(rng)
    counts = Counter(game.name for game in friend_games)
    best_count = max(counts.values())
    for game in GAME_CATALOGUE:
        if counts.get(game.name, 0) == best_count:
            return game
    # Unreachable for catalogue games; defensive for custom games.
    return friend_games[0]
