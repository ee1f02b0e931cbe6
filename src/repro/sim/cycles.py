"""The cycle-driven schedule of the paper's experiments (PeerSim model).

The paper's macro experiments run on PeerSim in *cycle-driven* mode: the
experiment "is divided into 28 cycles with each cycle representing one
day's gaming activities; each cycle is further divided into 24 one-hour
subcycles" (§4.1), with subcycles 20–24 forming the nightly peak and the
first 21 cycles (3 weeks) used as a reputation warm-up.

:class:`Schedule` holds that layout.  The loop that executes it is
``repro.core.sweep``: ``run_schedule`` runs the days, ``sweep_day`` the
subcycles of one day.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Schedule", "PAPER_SCHEDULE"]


@dataclass(frozen=True)
class Schedule:
    """The day/subcycle layout of an experiment.

    ``peak_subcycles`` is inclusive and 1-based; the paper treats
    subcycles 20–24 (8 pm to midnight) as peak hours and uses the first
    ``warmup_days`` (21 = 3 weeks) to accumulate reputation before
    measurements start.
    """

    days: int = 28
    hours_per_day: int = 24
    warmup_days: int = 21
    peak_subcycles: tuple[int, int] = (20, 24)

    def __post_init__(self) -> None:
        if self.days <= 0 or self.hours_per_day <= 0:
            raise ValueError("days and hours_per_day must be positive")
        if not 0 <= self.warmup_days <= self.days:
            raise ValueError(
                f"warmup_days ({self.warmup_days}) must lie in [0, {self.days}]")
        lo, hi = self.peak_subcycles
        if not 1 <= lo <= hi <= self.hours_per_day:
            raise ValueError(f"invalid peak window {self.peak_subcycles}")


#: The exact schedule used by the paper's evaluation (§4.1): 28 one-day
#: cycles of 24 subcycles, 3 warm-up weeks, nightly peak 8 pm–midnight.
PAPER_SCHEDULE = Schedule()
