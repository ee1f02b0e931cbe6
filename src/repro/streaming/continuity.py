"""QoS metrics: playback continuity and the satisfied-player predicate.

§4.1: "continuity is measured by the proportion of packets arrived
within the required response latency over all packets in a game video."

§4.3.1: "if a user can receive 95 % of its game packets within the
game's response latency, we consider this user as a satisfied player."
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "SATISFIED_CONTINUITY_THRESHOLD",
    "is_satisfied",
    "satisfied_ratio",
]

#: A player is satisfied when at least this share of packets is on time.
SATISFIED_CONTINUITY_THRESHOLD = 0.95


def is_satisfied(continuity: float,
                 threshold: float = SATISFIED_CONTINUITY_THRESHOLD) -> bool:
    """The paper's satisfied-player predicate."""
    if not 0 <= continuity <= 1:
        raise ValueError(f"continuity must lie in [0, 1], got {continuity}")
    return continuity >= threshold


def satisfied_ratio(continuities: Iterable[float],
                    threshold: float = SATISFIED_CONTINUITY_THRESHOLD) -> float:
    """Share of players whose session continuity satisfied them."""
    values = list(continuities)
    if not values:
        return 0.0
    return sum(1 for c in values if is_satisfied(c, threshold)) / len(values)

