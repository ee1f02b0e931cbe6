"""Player churn: session start times, durations and day plans.

§4.1's workload settings:

* play-duration mixture [48]: 50 % of players play (0, 2] hours a day,
  30 % play (2, 5] hours and 20 % play (5, 24] hours;
* session start: probability 30 % uniformly in subcycles [1, 19] and
  70 % in the peak subcycles [20, 24].

A day's joins are its plans' start subcycles (:class:`DayPlans`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DurationMixture", "StartTimeModel", "DayPlans",
           "sample_day_plans"]


@dataclass(frozen=True)
class DurationMixture:
    """The 50/30/20 daily play-duration mixture (hours)."""

    short_share: float = 0.5    # (0, 2] h
    medium_share: float = 0.3   # (2, 5] h
    long_share: float = 0.2     # (5, 24] h

    def __post_init__(self) -> None:
        total = self.short_share + self.medium_share + self.long_share
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"shares must sum to 1, got {total}")
        if min(self.short_share, self.medium_share, self.long_share) < 0:
            raise ValueError("shares must be non-negative")

    def sample_hours(self, rng: np.random.Generator,
                     n: int | None = None) -> np.ndarray | float:
        """Daily play hours for n players (uniform inside each band)."""
        size = 1 if n is None else n
        bands = rng.choice(3, size=size, p=[self.short_share,
                                            self.medium_share,
                                            self.long_share])
        low = np.array([0.0, 2.0, 5.0])[bands]
        high = np.array([2.0, 5.0, 24.0])[bands]
        hours = rng.uniform(low, high)
        return float(hours[0]) if n is None else hours


@dataclass(frozen=True)
class StartTimeModel:
    """Start subcycle: 30 % in [1, 19], 70 % in the peak [20, 24]."""

    offpeak_share: float = 0.3
    offpeak_range: tuple[int, int] = (1, 19)
    peak_range: tuple[int, int] = (20, 24)

    def __post_init__(self) -> None:
        if not 0 <= self.offpeak_share <= 1:
            raise ValueError("offpeak_share must lie in [0, 1]")
        for lo, hi in (self.offpeak_range, self.peak_range):
            if lo > hi or lo < 1:
                raise ValueError("subcycle ranges must be 1-based and ordered")

    def sample_subcycles(self, rng: np.random.Generator,
                         n: int | None = None) -> np.ndarray | int:
        """1-based start subcycles for n players."""
        size = 1 if n is None else n
        peak = rng.random(size) >= self.offpeak_share
        lo_off, hi_off = self.offpeak_range
        lo_peak, hi_peak = self.peak_range
        starts = np.where(
            peak,
            rng.integers(lo_peak, hi_peak + 1, size=size),
            rng.integers(lo_off, hi_off + 1, size=size))
        return int(starts[0]) if n is None else starts


@dataclass(frozen=True, eq=False)
class DayPlans:
    """One day's plans as columns, one row per participant.

    ``player`` (int64) plays from the 1-based subcycle ``start``
    (int64) for ``hours`` (float64) hours: ``ceil(hours)`` whole
    subcycles, clamped to the day (cycles do not wrap, §4.1).  Rows
    keep the sampling order, which every consumer walks in.
    Construction checks the whole batch at once and names the first
    bad row.
    """

    player: np.ndarray
    start: np.ndarray
    hours: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.player) == len(self.start) == len(self.hours):
            raise ValueError("plan columns differ in length")
        for name, bad, rule in (("start", self.start < 1, ">= 1"),
                                ("hours", ~(self.hours > 0), "> 0")):
            if bad.any():
                index = int(np.argmax(bad))
                raise ValueError(
                    f"plan {index} (player {self.player[index]}): {name} "
                    f"must be {rule}, got {getattr(self, name)[index]}")

    @classmethod
    def of(cls, player, start, hours) -> "DayPlans":
        """Plans from array-likes or scalars, cast to the column dtypes."""
        player = np.asarray(player, dtype=np.int64)
        return cls(player, np.full(player.shape, start, dtype=np.int64),
                   np.full(player.shape, hours, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.player)

    def take(self, index) -> "DayPlans":
        """The rows at ``index``, in that order."""
        return DayPlans(self.player[index], self.start[index],
                        self.hours[index])

    def append(self, other: "DayPlans") -> "DayPlans":
        """These rows followed by ``other``'s."""
        return DayPlans(np.concatenate((self.player, other.player)),
                        np.concatenate((self.start, other.start)),
                        np.concatenate((self.hours, other.hours)))


def sample_day_plans(rng: np.random.Generator, players: np.ndarray,
                     durations: DurationMixture | None = None,
                     starts: StartTimeModel | None = None) -> DayPlans:
    """Sample one day's plans for a set of player ids.

    Durations are drawn first, then starts, each as one batch; play
    time is floored at 1e-3 h.
    """
    durations = durations or DurationMixture()
    starts = starts or StartTimeModel()
    players = np.asarray(players, dtype=np.int64)
    if len(players) == 0:
        return DayPlans.of(players, [], [])
    hours = durations.sample_hours(rng, len(players))
    subcycles = starts.sample_subcycles(rng, len(players))
    return DayPlans.of(players, subcycles, np.maximum(hours, 1e-3))
