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
from typing import Mapping, Sequence

import numpy as np

from ..network.topology import Topology, build_topology
from ..social.graph import FriendGraph, generate_friend_graph
from .games import GAME_CATALOGUE, Game, random_game

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


#: Catalogue position of each game name (built backwards, so a repeated
#: name keeps its earliest position).
_CATALOGUE_POSITION: dict[str, int] = {
    game.name: position
    for position, game in reversed(list(enumerate(GAME_CATALOGUE)))}


def choose_game(player: int, adjacency: Mapping[int, Sequence[int]],
                playing: Mapping[int, Game],
                rng: np.random.Generator) -> Game:
    """The §4.1 social game-choice rule.

    ``adjacency`` is the friend graph's cached :meth:`~repro.social.
    graph.FriendGraph.adjacency`; ``playing`` maps currently-online
    players to the game they play.  Friends' games are counted by name
    at their catalogue position; ties go to the earlier catalogue entry
    (deterministic).  If a non-catalogue name alone holds the top
    count, the first playing friend's game is returned.  The RNG draws
    only when no friend plays.
    """
    counts = [0] * len(GAME_CATALOGUE)
    first: Game | None = None
    others: dict[str, int] | None = None
    for friend in adjacency.get(player, ()):
        if friend in playing:
            game = playing[friend]
            if first is None:
                first = game
            position = _CATALOGUE_POSITION.get(game.name)
            if position is not None:
                counts[position] += 1
            else:
                if others is None:
                    others = {}
                others[game.name] = others.get(game.name, 0) + 1
    if first is None:
        return random_game(rng)
    best = max(counts)
    if others is not None and max(others.values()) > best:
        return first
    return GAME_CATALOGUE[counts.index(best)]
