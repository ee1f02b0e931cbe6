"""Server assignment inside a datacenter — §3.4.

Wires the social substrate to the cloud substrate: build the combined
(explicit + implicit) friendship graph, partition it into z communities
with the paper's seed-and-swap algorithm, and place each community on
one server.  The random baseline scatters players uniformly.

Also measures the *server assignment latency* of Fig. 9 — the wall time
of actually running the clustering, which is what the paper reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..cloud.datacenter import Datacenter
from ..social.communities import paper_partition, random_partition
from ..social.graph import FriendGraph

__all__ = ["AssignmentResult", "assign_players_socially",
           "assign_players_randomly"]


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of one assignment pass."""

    partition: dict[int, int]
    wall_time_s: float
    num_players: int


def _restrict(graph: FriendGraph, players: list[int]) -> FriendGraph:
    """Friendship graph reindexed to the given players (dense 0..n-1).

    Reads only these players' cached adjacency, never the whole edge
    list.  Walking them in ascending id and keeping each friendship at
    its lower end adds the edges in the full graph's ``edges()`` order,
    so the dense graph is the one a full edge scan would build.
    """
    index_of = {p: i for i, p in enumerate(players)}
    dense = FriendGraph(len(players))
    adjacency = graph.adjacency()
    for a in sorted(index_of):
        i = index_of[a]
        for b in adjacency[a]:
            if b > a and b in index_of:
                dense.add_friendship(i, index_of[b])
    return dense


def assign_players_socially(datacenter: Datacenter, players: list[int],
                            friends: FriendGraph, rng: np.random.Generator,
                            h1: int = 100, h2: int = 10) -> AssignmentResult:
    """§3.4: cluster friends into z communities, one per server."""
    start = time.perf_counter()
    if players:
        dense = _restrict(friends, players)
        dense_partition = paper_partition(
            dense, datacenter.num_servers, rng, h1=h1, h2=h2)
        partition = {players[i]: c for i, c in dense_partition.items()}
        datacenter.assign_partition(partition)
    else:
        partition = {}
    elapsed = time.perf_counter() - start
    return AssignmentResult(partition=partition, wall_time_s=elapsed,
                            num_players=len(players))


def assign_players_randomly(datacenter: Datacenter, players: list[int],
                            rng: np.random.Generator) -> AssignmentResult:
    """Baseline: uniform random server per player."""
    start = time.perf_counter()
    dense = random_partition(len(players), datacenter.num_servers, rng)
    partition = {players[i]: c for i, c in dense.items()}
    datacenter.assign_partition(partition)
    elapsed = time.perf_counter() - start
    return AssignmentResult(partition=partition, wall_time_s=elapsed,
                            num_players=len(players))
