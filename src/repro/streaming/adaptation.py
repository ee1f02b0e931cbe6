"""Receiver-driven encoding-rate adaptation — §3.3, Eqs. 10–12.

The controller watches the buffered-segment estimate ``r`` (Eq. 9) and
adjusts the encoding quality one level at a time:

* adjust **up** when ``r > (1 + beta) / rho`` (Eq. 10, tolerance-scaled),
  where ``beta`` is the maximum relative bitrate step of the ladder
  (Eq. 11) so the buffer already holds a full next-level segment;
* adjust **down** when ``r < theta / rho`` (Eq. 12), proactively
  protecting playback continuity under congestion;
* ``rho`` is the game's latency tolerance degree: latency-sensitive
  games (small rho) get a *higher* up-threshold and a *higher*
  down-threshold, i.e. they keep more safety margin;
* to prevent bitrate fluctuation, an adjustment fires only after the
  trigger condition holds for ``hysteresis`` consecutive estimates;
* players may disable adaptation entirely, pinning the game's default
  rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .video import QUALITY_LADDER, QualityLevel, adjust_up_factor, get_level

__all__ = ["Adjustment", "RateController", "DEFAULT_ADJUST_DOWN_THRESHOLD"]

#: Default adjust-down threshold theta (>= 1 per Eq. 12); the evaluation
#: section's default setting.
DEFAULT_ADJUST_DOWN_THRESHOLD = 1.5


class Adjustment(Enum):
    """Outcome of one controller observation."""

    NONE = "none"
    UP = "up"
    DOWN = "down"


@dataclass
class RateController:
    """One player's adaptation state machine."""

    initial_level: int
    tolerance: float = 1.0
    theta: float = DEFAULT_ADJUST_DOWN_THRESHOLD
    hysteresis: int = 3
    enabled: bool = True
    ladder: Sequence[QualityLevel] = QUALITY_LADDER

    level: int = field(init=False)
    adjustments: int = field(init=False, default=0)
    _beta: float = field(init=False)
    _up_streak: int = field(init=False, default=0)
    _down_streak: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0 < self.tolerance <= 1:
            raise ValueError(f"tolerance must lie in (0, 1], got {self.tolerance}")
        if self.theta < 1:
            raise ValueError(f"theta must be >= 1 (Eq. 12), got {self.theta}")
        if self.hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {self.hysteresis}")
        get_level(self.initial_level, self.ladder)  # validates range
        self.level = self.initial_level
        self._beta = adjust_up_factor(self.ladder)

    # -- thresholds --------------------------------------------------------
    @property
    def beta(self) -> float:
        """Eq. 11 adjust-up factor for the configured ladder."""
        return self._beta

    @property
    def up_threshold(self) -> float:
        """Tolerance-scaled Eq. 10 threshold: (1 + beta) / rho."""
        return (1.0 + self._beta) / self.tolerance

    @property
    def down_threshold(self) -> float:
        """Tolerance-scaled Eq. 12 threshold: theta / rho."""
        return self.theta / self.tolerance

    @property
    def quality(self) -> QualityLevel:
        return get_level(self.level, self.ladder)

    # -- control -----------------------------------------------------------
    def observe(self, buffered_segments: float) -> Adjustment:
        """Feed one estimate of ``r``; maybe adjust the level.

        Returns the adjustment applied (after hysteresis).  A disabled
        controller never adjusts (§3.3: users can pin the default rate).
        """
        if buffered_segments < 0:
            raise ValueError("buffered_segments must be non-negative")
        if not self.enabled:
            return Adjustment.NONE

        if buffered_segments > self.up_threshold:
            self._up_streak += 1
            self._down_streak = 0
        elif buffered_segments < self.down_threshold:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
            return Adjustment.NONE

        # A satisfied hysteresis consumes the streak whether or not the
        # ladder has room: at a boundary the trigger still fires (and
        # resolves to no-op), so the next adjustment needs a full fresh
        # streak rather than firing on the first post-boundary estimate.
        if self._up_streak >= self.hysteresis:
            self._up_streak = 0
            if self.level < len(self.ladder):
                self.level += 1
                self.adjustments += 1
                return Adjustment.UP
            return Adjustment.NONE
        if self._down_streak >= self.hysteresis:
            self._down_streak = 0
            if self.level > 1:
                self.level -= 1
                self.adjustments += 1
                return Adjustment.DOWN
            return Adjustment.NONE
        return Adjustment.NONE
