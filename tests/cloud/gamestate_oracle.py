"""Frozen oracle: the virtual-world model of the cloud's game state.

Verbatim copies, taken when the world model left ``src/``, of
``ActionType``, ``Action``, ``Avatar``, ``UpdateMessage``,
``VirtualWorld`` and ``ACTION_SIZE_BITS`` from
``repro.cloud.gamestate``.  In CloudFog the cloud keeps the
authoritative MMOG state: it collects player actions, computes the new
state of the virtual world (§3.1) and pushes compact update messages
to supernodes.  A run charges those messages as the constant Λ
(``repro.cloud.gamestate.UPDATE_MESSAGE_BITS_PER_SUPERNODE``); this
model steps a world and sizes the deltas, so the tests can check Λ
against simulated traffic (``tests/integration/test_update_traffic.py``).
Do not edit this file to follow the live code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: Upstream size of one player action message (user input is tiny; the
#: paper notes uploading "does not seriously affect the response
#: latency", §3.1).  ~100 bytes.
ACTION_SIZE_BITS = 800.0


class ActionType(Enum):
    """Kinds of player actions the world understands (§3.1 examples)."""

    MOVE = "move"
    STRIKE = "strike"
    INTERACT = "interact"
    EMOTE = "emote"


@dataclass(frozen=True)
class Action:
    """One player input forwarded to the cloud."""

    player: int
    kind: ActionType
    target: int | None = None
    dx: float = 0.0
    dy: float = 0.0

    @property
    def size_bits(self) -> float:
        return ACTION_SIZE_BITS

    def involves(self) -> tuple[int, ...]:
        """Players whose state this action touches."""
        if self.target is None or self.target == self.player:
            return (self.player,)
        return (self.player, self.target)


@dataclass
class Avatar:
    """A player's in-world representation."""

    player: int
    x: float = 0.0
    y: float = 0.0
    health: float = 100.0
    score: float = 0.0

    def __post_init__(self) -> None:
        if self.health < 0:
            raise ValueError("health must be non-negative")


@dataclass(frozen=True)
class UpdateMessage:
    """The delta the cloud pushes to every supernode after a step."""

    tick: int
    changed_players: tuple[int, ...]
    size_bits: float

    def __post_init__(self) -> None:
        if self.size_bits < 0:
            raise ValueError("size must be non-negative")


@dataclass
class VirtualWorld:
    """The authoritative game world: avatars plus a tick counter.

    The per-tick update-message size scales with the number of changed
    avatars (a delta encoding), floored at a small heartbeat so idle
    ticks still cost something.
    """

    bits_per_changed_avatar: float = 400.0
    heartbeat_bits: float = 2_000.0
    avatars: dict[int, Avatar] = field(default_factory=dict)
    tick: int = 0

    def add_player(self, player: int, x: float = 0.0, y: float = 0.0) -> Avatar:
        if player in self.avatars:
            raise ValueError(f"player {player} already has an avatar")
        avatar = Avatar(player=player, x=x, y=y)
        self.avatars[player] = avatar
        return avatar

    def remove_player(self, player: int) -> None:
        if player not in self.avatars:
            raise KeyError(f"player {player} has no avatar")
        del self.avatars[player]

    def __contains__(self, player: int) -> bool:
        return player in self.avatars

    def __len__(self) -> int:
        return len(self.avatars)

    def apply(self, action: Action) -> list[int]:
        """Apply one action; return the players whose state changed."""
        if action.player not in self.avatars:
            raise KeyError(f"player {action.player} has no avatar")
        avatar = self.avatars[action.player]
        changed = [action.player]
        if action.kind is ActionType.MOVE:
            avatar.x += action.dx
            avatar.y += action.dy
        elif action.kind is ActionType.STRIKE:
            if action.target is not None and action.target in self.avatars:
                victim = self.avatars[action.target]
                victim.health = max(0.0, victim.health - 10.0)
                avatar.score += 1.0
                changed.append(action.target)
        elif action.kind is ActionType.INTERACT:
            if action.target is not None and action.target in self.avatars:
                changed.append(action.target)
        # EMOTE changes only the actor's cosmetic state.
        return changed

    def step(self, actions: list[Action]) -> UpdateMessage:
        """Advance one tick: apply all actions, emit the update delta."""
        changed: set[int] = set()
        for action in actions:
            changed.update(self.apply(action))
        self.tick += 1
        size = max(self.heartbeat_bits,
                   len(changed) * self.bits_per_changed_avatar)
        return UpdateMessage(tick=self.tick,
                             changed_players=tuple(sorted(changed)),
                             size_bits=size)

    def positions(self) -> np.ndarray:
        """(n, 2) avatar positions, ordered by player id."""
        if not self.avatars:
            return np.empty((0, 2), dtype=np.float64)
        ordered = sorted(self.avatars)
        return np.array([[self.avatars[p].x, self.avatars[p].y]
                         for p in ordered], dtype=np.float64)
