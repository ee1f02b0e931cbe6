"""Game-state servers inside a datacenter.

§3.4: a datacenter consists of many servers that cooperate on the game
state.  Each player's (single) data copy lives on one server; when two
players on *different* servers interact, the servers must exchange game
state, which adds *server latency* to the response.  The social-network
based assignment strategy exists exactly to shrink this term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GameServer", "SERVER_HOP_MS"]

#: One inter-server state-exchange hop inside a datacenter (ms): LAN
#: RTT plus serialisation, locking and cross-server state merge;
#: interactions between co-located players cost none of it.
SERVER_HOP_MS = 15.0


@dataclass
class GameServer:
    """One server: hosts a set of players' authoritative state."""

    server_id: int
    players: set[int] = field(default_factory=set)
    processed_actions: int = 0
    cross_server_interactions: int = 0

    def assign(self, player: int) -> None:
        self.players.add(player)

    def unassign(self, player: int) -> None:
        self.players.discard(player)

    def interaction_latency_ms(self, other: "GameServer",
                               hop_ms: float = SERVER_HOP_MS) -> float:
        """Server-latency cost of one interaction with ``other``'s player.

        Same server: the state is local, no hop.  Different servers: one
        round of state exchange (request + reply) per interaction.
        """
        if hop_ms < 0:
            raise ValueError("hop_ms must be non-negative")
        if other.server_id == self.server_id:
            return 0.0
        self.cross_server_interactions += 1
        return 2.0 * hop_ms
