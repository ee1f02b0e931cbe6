"""Player populations: who exists, where, with which friends and games.

Assembles the §4.1 experimental population: located players (topology),
a power-law friendship graph, a supernode-capable subset (10 % in the
simulation, 3/75 x 10 on PlanetLab), and the social game-choice rule —
"if none of its friends is playing, it randomly chooses a game to play;
otherwise, it chooses the game that has the largest number of its
friends playing."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..network.topology import Topology, build_topology
from ..social.graph import FriendGraph, generate_friend_graph
from .games import GAME_CATALOGUE

__all__ = ["Population", "build_population", "choose_game"]


@dataclass
class Population:
    """A complete experimental player population."""

    topology: Topology
    friends: FriendGraph
    #: Boolean mask: which players have supernode-capable hardware.
    supernode_capable: np.ndarray

    def __post_init__(self) -> None:
        n = self.topology.num_players
        if self.friends.num_players != n:
            raise ValueError("friend graph size must match the topology")
        if self.supernode_capable.shape != (n,):
            raise ValueError("capability mask must match the player count")

    def capable_players(self) -> np.ndarray:
        """Ids of supernode-capable players."""
        return np.flatnonzero(self.supernode_capable)


def build_population(rng: np.random.Generator, num_players: int,
                     num_datacenters: int,
                     supernode_capable_share: float = 0.10,
                     **topology_kwargs) -> Population:
    """Sample a population with the §4.1 defaults.

    "there were 100,000 game players ..., 10 % of which have the
    capacity to be supernodes."
    """
    if not 0 <= supernode_capable_share <= 1:
        raise ValueError("supernode_capable_share must lie in [0, 1]")
    topology = build_topology(rng, num_players, num_datacenters,
                              **topology_kwargs)
    friends = generate_friend_graph(rng, num_players)
    capable = rng.random(num_players) < supernode_capable_share
    return Population(topology=topology, friends=friends,
                      supernode_capable=capable)


def choose_game(player: int, adjacency: Mapping[int, Sequence[int]],
                code: Sequence[int], fallbacks: Iterator[int]) -> int:
    """The §4.1 social game-choice rule, as a catalogue index.

    ``adjacency`` is the friend graph's cached :meth:`~repro.social.
    graph.FriendGraph.adjacency`; ``code`` holds each player's
    catalogue index today, -1 while it has none.  Friends' games are
    counted by index; ties go to the earlier catalogue entry
    (deterministic).  A player with no friend playing takes the next
    value of ``fallbacks`` (its uniform draw); no other player
    consumes one.
    """
    counts = [0] * len(GAME_CATALOGUE)
    for friend in adjacency.get(player, ()):
        game = code[friend]
        if game >= 0:
            counts[game] += 1
    best = max(counts)
    return counts.index(best) if best else next(fallbacks)
