"""Datacenters: server pools plus player→server assignment.

A datacenter hosts ``z`` game-state servers (§4.1 default: 50 servers
per datacenter).  The assignment of players to servers determines the
*server latency* component of the response: interactions between players
on different servers cost inter-server hops (see
:mod:`repro.cloud.server`).  The assignment itself is pluggable — random
(the baseline) or social-network based (§3.4, in
:mod:`repro.core.server_assignment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .server import SERVER_HOP_MS, GameServer

__all__ = ["Datacenter", "DEFAULT_SERVERS_PER_DATACENTER"]

#: §4.1: "The number of servers within each datacenter is 50."
DEFAULT_SERVERS_PER_DATACENTER = 50


@dataclass
class Datacenter:
    """A datacenter: id, location index and its game servers."""

    datacenter_id: int
    num_servers: int = DEFAULT_SERVERS_PER_DATACENTER
    hop_ms: float = SERVER_HOP_MS
    servers: list[GameServer] = field(init=False)
    _player_server: dict[int, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError(f"num_servers must be positive, got {self.num_servers}")
        if self.hop_ms < 0:
            raise ValueError("hop_ms must be non-negative")
        self.servers = [GameServer(i) for i in range(self.num_servers)]

    # -- assignment --------------------------------------------------------
    def assign(self, player: int, server_index: int) -> None:
        """Place ``player``'s data on one server (single copy, §3.4)."""
        if not 0 <= server_index < self.num_servers:
            raise ValueError(
                f"server index {server_index} out of range [0, {self.num_servers})")
        previous = self._player_server.get(player)
        if previous is not None:
            self.servers[previous].unassign(player)
        self.servers[server_index].assign(player)
        self._player_server[player] = server_index

    def assign_partition(self, partition: Mapping[int, int]) -> None:
        """Assign players according to a {player: community} map.

        Communities map one-to-one onto servers modulo the server count
        (§3.4 finds exactly z communities for z servers).
        """
        for player, community in partition.items():
            self.assign(player, community % self.num_servers)

    def server_of(self, player: int) -> int | None:
        return self._player_server.get(player)

    # -- latency -----------------------------------------------------------
    def interaction_latency_ms(self, player_a: int, player_b: int) -> float:
        """Server-latency of one in-game interaction between two players.

        Unassigned players are treated as remote (worst case) so the
        caller never silently under-counts.
        """
        server_a = self._player_server.get(player_a)
        server_b = self._player_server.get(player_b)
        if server_a is None or server_b is None:
            return 2.0 * self.hop_ms
        return self.servers[server_a].interaction_latency_ms(
            self.servers[server_b], self.hop_ms)

    def mean_interaction_latency_ms(
            self, interactions: Iterable[tuple[int, int]]) -> float:
        """Average server latency over a set of interacting pairs."""
        pairs = list(interactions)
        if not pairs:
            return 0.0
        total = sum(self.interaction_latency_ms(a, b) for a, b in pairs)
        return total / len(pairs)

    def cross_server_fraction(self,
                              interactions: Iterable[tuple[int, int]]) -> float:
        """Share of interactions that straddle two servers."""
        pairs = list(interactions)
        if not pairs:
            return 0.0
        crossing = sum(
            1 for a, b in pairs
            if self._player_server.get(a) != self._player_server.get(b)
            or self._player_server.get(a) is None)
        return crossing / len(pairs)
