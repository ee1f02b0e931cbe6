"""Community clustering for server assignment — §3.4, Eq. 13.

The paper partitions the friendship graph into ``z`` communities (one
per server in a datacenter), evaluated by Newman–Girvan modularity::

    Gamma = sum_a (q_aa - p_a^2)                                (13)

where ``q_ab`` is the fraction of edges joining communities a and b and
``p_a = sum_b q_ab``.  Equivalently, with ``e_c`` internal edges of
community c, ``deg_c`` the total degree inside c and ``E`` all edges:
``Gamma = sum_c (e_c / E - (deg_c / 2E)^2)``.

Two partitioners are provided:

* :func:`paper_partition` — the paper's greedy *seed-and-swap* algorithm
  (steps 1–6 of §3.4): grow communities by pulling in friends until each
  holds ~|V|/z players, then repeatedly swap the communities of two
  random players together with their friends, keeping a swap only when
  modularity improves, stopping after ``h1`` attempts or ``h2``
  consecutive misses.
* :func:`greedy_modularity_reference` — networkx's Clauset-Newman-Moore
  partitioner folded down to z communities, used as an ablation
  reference.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .graph import FriendGraph

__all__ = [
    "modularity",
    "Partition",
    "random_partition",
    "paper_partition",
    "greedy_modularity_reference",
    "DEFAULT_SWAP_ATTEMPTS",
    "DEFAULT_MISS_LIMIT",
]

#: h1 — maximum number of swap attempts (the paper's default setting).
DEFAULT_SWAP_ATTEMPTS = 100

#: h2 — consecutive misses before giving up early (h2 < h1).
DEFAULT_MISS_LIMIT = 10


def modularity(graph: FriendGraph, assignment: Mapping[int, int]) -> float:
    """Eq. 13 modularity of a player→community assignment.

    Players missing from ``assignment`` are an error; a graph with no
    edges has modularity 0 by convention.
    """
    total_edges = graph.num_edges
    if total_edges == 0:
        return 0.0
    internal: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for player in range(graph.num_players):
        if player not in assignment:
            raise ValueError(f"player {player} missing from the assignment")
        community = assignment[player]
        degree_sum[community] = degree_sum.get(community, 0) + graph.degree(player)
    for a, b in graph.edges():
        if assignment[a] == assignment[b]:
            community = assignment[a]
            internal[community] = internal.get(community, 0) + 1
    gamma = 0.0
    for community, degrees in degree_sum.items():
        e_c = internal.get(community, 0)
        gamma += e_c / total_edges - (degrees / (2.0 * total_edges)) ** 2
    return gamma


class Partition:
    """A mutable player→community assignment with O(deg) modularity updates.

    Reads the graph's cached adjacency tuples (a friend list and its
    length, no set copies) and keeps each community's member set, so a
    swap attempt finds a community's members without a scan over every
    player.  The Eq. 13 sum runs over communities in first-seen order;
    the keep/rollback rule compares these floats, so that order is
    part of the result.
    """

    def __init__(self, graph: FriendGraph, assignment: Mapping[int, int]):
        self.graph = graph
        self._adjacency = graph.adjacency()
        self.community_of = [assignment[p] for p in range(graph.num_players)]
        self._members: dict[int, set[int]] = {}
        self._internal: dict[int, int] = {}
        self._degree_sum: dict[int, int] = {}
        for player, community in enumerate(self.community_of):
            self._members.setdefault(community, set()).add(player)
            self._degree_sum[community] = (
                self._degree_sum.get(community, 0)
                + len(self._adjacency[player]))
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
        community_of = self.community_of
        old = community_of[player]
        if old == community:
            return old
        friends = self._adjacency[player]
        left = joined = 0
        for friend in friends:
            friend_community = community_of[friend]
            if friend_community == old:
                left += 1
            elif friend_community == community:
                joined += 1
        if left:
            self._internal[old] = self._internal.get(old, 0) - left
        if joined:
            self._internal[community] = (
                self._internal.get(community, 0) + joined)
        degree = len(friends)
        self._degree_sum[old] -= degree
        self._degree_sum[community] = (
            self._degree_sum.get(community, 0) + degree)
        self._members[old].discard(player)
        self._members.setdefault(community, set()).add(player)
        community_of[player] = community
        return old

    def members(self, community: int) -> list[int]:
        """The community's players in ascending id order."""
        return sorted(self._members.get(community, ()))

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.community_of))


def random_partition(num_players: int, z: int,
                     rng: np.random.Generator) -> dict[int, int]:
    """Baseline: uniform random community for each of ``num_players``."""
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    return {p: int(rng.integers(0, z)) for p in range(num_players)}


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


def _seed_communities(graph: FriendGraph, z: int,
                      rng: np.random.Generator) -> dict[int, int]:
    """Steps 1–4 of §3.4: grow z friend-pulled communities of ~|V|/z."""
    n = graph.num_players
    adjacency = graph.adjacency()
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
        for player in [seed,
                       *sorted(unassigned.intersection(adjacency[seed]))]:
            if player in unassigned:
                assign(player, community, members)
        # Steps 2–3: pull in friends-of-members until the size target.
        attempts = 0
        while len(members) < target and unassigned and attempts < 4 * target:
            attempts += 1
            anchor = int(members[int(rng.integers(0, len(members)))])
            pulled = sorted(unassigned.intersection(adjacency[anchor]))
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


def paper_partition(graph: FriendGraph, z: int, rng: np.random.Generator,
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
    adjacency = graph.adjacency()

    # Steps 5–6: random group swaps kept only when modularity improves.
    misses = 0
    gamma = partition.modularity()
    for _ in range(h1):
        if misses >= h2:
            break
        community_a, community_b = rng.choice(z, size=2, replace=False)
        members_a = partition.members(community_a)
        members_b = partition.members(community_b)
        if not members_a or not members_b:
            misses += 1
            continue
        player_i = int(members_a[int(rng.integers(0, len(members_a)))])
        player_j = int(members_b[int(rng.integers(0, len(members_b)))])
        group_i = [player_i, *sorted(adjacency[player_i])]
        group_j = [player_j, *sorted(adjacency[player_j])]

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


def greedy_modularity_reference(graph: FriendGraph, z: int) -> dict[int, int]:
    """networkx Clauset–Newman–Moore communities folded to z labels."""
    import networkx.algorithms.community as nx_community

    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    if graph.num_players == 0:
        return {}
    nx_graph = graph.to_networkx()
    communities = nx_community.greedy_modularity_communities(nx_graph)
    assignment: dict[int, int] = {}
    # Largest communities keep their own label; the rest fold modulo z.
    for index, members in enumerate(
            sorted(communities, key=len, reverse=True)):
        for player in members:
            assignment[player] = index % z
    return assignment
