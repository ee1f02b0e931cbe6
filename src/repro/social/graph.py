"""Friendship graphs.

§4.1: "The number of friends for each player follows power-law
distribution with skew factor of 1.5."  §3.4 represents players as an
undirected graph G = (V, E) with e_ij = 1 when i and j are friends, and
F(i) denoting i's friend set.

Generation uses a configuration-model-style stub matching over the
power-law degree sequence (self-loops and duplicate edges discarded),
which yields the right degree shape without imposing extra structure.

Storage is one insertion-ordered neighbour dict per player (the
networkx ``Graph`` layout without the library): every query below
returns what a networkx graph built by the same ``add_friendship``
calls returns, in the same order, so the partitioner's RNG draws and
float sums do not move.  networkx is imported only by
:meth:`FriendGraph.to_networkx`, for the reference ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..sim.rng import powerlaw_counts

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FriendGraph", "generate_friend_graph"]


class FriendGraph:
    """An undirected friendship graph over integer player ids."""

    def __init__(self, num_players: int,
                 edges: Iterable[tuple[int, int]] = ()) -> None:
        if num_players < 0:
            raise ValueError(f"num_players must be non-negative, got {num_players}")
        self.num_players = num_players
        # Dict keys in first-insertion order; the values are unused.
        self._neighbours: list[dict[int, None]] = [
            {} for _ in range(num_players)]
        self._num_edges = 0
        self._adjacency: dict[int, tuple[int, ...]] | None = None
        for a, b in edges:
            self.add_friendship(a, b)

    # -- mutation ----------------------------------------------------------
    def add_friendship(self, a: int, b: int) -> None:
        self._check(a)
        self._check(b)
        if a == b:
            raise ValueError(f"player {a} cannot befriend itself")
        if b not in self._neighbours[a]:
            self._neighbours[a][b] = None
            self._neighbours[b][a] = None
            self._num_edges += 1
            self._adjacency = None

    def _check(self, player: int) -> None:
        if not 0 <= player < self.num_players:
            raise ValueError(
                f"player {player} out of range [0, {self.num_players})")

    # -- queries -----------------------------------------------------------
    def friends(self, player: int) -> set[int]:
        """F(i): the friend set of a player."""
        self._check(player)
        # Built from an iterator, not from the dict (which presizes the
        # table), so the set iterates as ``set(neighbors(i))`` of a
        # networkx graph does; the kd-tree ablation draws in that order.
        return set(iter(self._neighbours[player]))

    def degree(self, player: int) -> int:
        self._check(player)
        return len(self._neighbours[player])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each friendship once, as networkx yields it: by the lower
        id, then in that player's insertion order."""
        for a, neighbours in enumerate(self._neighbours):
            for b in neighbours:
                if b > a:
                    yield a, b

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Every player's friends as immutable tuples, cached.

        The per-day game-choice and server-assignment loops and the
        §3.4 partitioner read friend lists for (almost) every player;
        building a fresh ``set`` per call dominates those loops.  The
        cache is invalidated by any mutation.  Tuple order is insertion
        order, which is deterministic for a deterministically built
        graph.
        """
        if self._adjacency is None:
            self._adjacency = {
                player: tuple(neighbours)
                for player, neighbours in enumerate(self._neighbours)}
        return self._adjacency

    def to_networkx(self) -> nx.Graph:
        """A networkx copy with the same nodes and ``edges()`` sequence
        (for reference algorithms)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_players))
        graph.add_edges_from(self.edges())
        return graph


def generate_friend_graph(rng: np.random.Generator, num_players: int,
                          skew: float = 1.5, max_friends: int = 150
                          ) -> FriendGraph:
    """Sample a friendship graph with power-law friend counts.

    Stub matching: each player gets ``degree`` stubs from the power law;
    stubs are shuffled and paired.  Self-loops and duplicate pairs are
    dropped, slightly truncating the heaviest nodes — the standard
    configuration-model behaviour, acceptable here since the paper only
    relies on the skewed shape.
    """
    if num_players < 0:
        raise ValueError(f"num_players must be non-negative, got {num_players}")
    graph = FriendGraph(num_players)
    if num_players < 2:
        return graph
    degrees = powerlaw_counts(rng, num_players, skew=skew, minimum=1,
                              maximum=min(max_friends, num_players - 1))
    stubs = np.repeat(np.arange(num_players), degrees)
    rng.shuffle(stubs)
    if len(stubs) % 2 == 1:
        stubs = stubs[:-1]
    for a, b in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
        if a != b:
            graph.add_friendship(a, b)
    return graph
