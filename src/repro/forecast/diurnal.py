"""Diurnal / weekly player-population patterns.

§3.5 (citing [36, 37]): "the number of online players generally varies
with a diurnal pattern", "the workload of MMOGs has a regular weekly
pattern and week-to-week load variations of players are less than 10 %",
and §4.1 treats 8 pm–midnight (subcycles 20–24) as the nightly peak.

This module synthesises such series for the provisioning experiments and
for testing the forecaster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DiurnalPattern", "HOURS_PER_WEEK"]

HOURS_PER_WEEK = 24 * 7

#: Default hourly shape: quiet small hours, daytime ramp, sharp evening
#: peak at hours 19-23 (subcycles 20-24), normalised to max 1.
_DEFAULT_HOURLY_SHAPE = np.array([
    0.30, 0.22, 0.16, 0.12, 0.10, 0.10, 0.12, 0.16,   # 00-07
    0.22, 0.28, 0.33, 0.38, 0.42, 0.45, 0.48, 0.52,   # 08-15
    0.58, 0.66, 0.76, 0.88, 1.00, 1.00, 0.95, 0.60,   # 16-23
])


@dataclass
class DiurnalPattern:
    """Weekly-seasonal hourly player-count generator."""

    base_players: float = 1000.0
    hourly_shape: np.ndarray = field(
        default_factory=lambda: _DEFAULT_HOURLY_SHAPE.copy())
    #: Multiplier per day of week (weekend evenings run hotter).
    daily_weights: np.ndarray = field(default_factory=lambda: np.array(
        [0.92, 0.94, 0.96, 0.98, 1.05, 1.12, 1.03]))
    #: Relative week-to-week noise (< 0.10 per the paper's sources).
    weekly_noise: float = 0.05

    def __post_init__(self) -> None:
        self.hourly_shape = np.asarray(self.hourly_shape, dtype=np.float64)
        self.daily_weights = np.asarray(self.daily_weights, dtype=np.float64)
        if self.base_players <= 0:
            raise ValueError("base_players must be positive")
        if self.hourly_shape.shape != (24,):
            raise ValueError("hourly_shape must have 24 entries")
        if self.daily_weights.shape != (7,):
            raise ValueError("daily_weights must have 7 entries")
        if np.any(self.hourly_shape <= 0) or np.any(self.daily_weights <= 0):
            raise ValueError("shape weights must be positive")
        if not 0 <= self.weekly_noise < 0.5:
            raise ValueError("weekly_noise must lie in [0, 0.5)")

    def expected(self, hour_of_week: int) -> float:
        """Noise-free expected player count at an hour of the week."""
        if not 0 <= hour_of_week < HOURS_PER_WEEK:
            raise ValueError(f"hour_of_week out of range: {hour_of_week}")
        day, hour = divmod(hour_of_week, 24)
        return (self.base_players * self.daily_weights[day]
                * self.hourly_shape[hour])

    def generate(self, rng: np.random.Generator, weeks: int) -> np.ndarray:
        """Hourly counts for ``weeks`` weeks (length weeks * 168)."""
        if weeks <= 0:
            raise ValueError(f"weeks must be positive, got {weeks}")
        expected = np.array([self.expected(h) for h in range(HOURS_PER_WEEK)])
        series = np.tile(expected, weeks)
        if self.weekly_noise > 0:
            noise = rng.normal(1.0, self.weekly_noise, size=series.shape)
            series = series * np.clip(noise, 0.5, 1.5)
        return np.maximum(series, 0.0)
