"""Video quality ladder — the paper's Table 2.

Game video can be encoded at five quality levels; higher levels mean
higher resolution and bitrate but a longer per-segment delivery time, so
each level is paired with the *game latency requirement* it suits and a
*latency tolerance degree* ρ used by the rate-adaptation thresholds
(§3.3).

The published table is partially garbled in the available text; the
digits are reconstructed from the worked examples in §3.3, which pin the
ladder exactly: "500 kbps corresponds to 384x216 resolution, and such a
segment leads to 50 ms latency", "a latency requirement of 90 ms [uses]
1200 kbps ... quality level 4", adjust-up "from 800 kbps to 1200 kbps",
adjust-down "from 800 kbps to 500 kbps".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "QualityLevel",
    "QUALITY_LADDER",
    "FRAME_RATE_FPS",
    "level_for_latency_requirement",
    "adjust_up_factor",
]

#: OnLive streams at 30 frames per second (§4.1); one packet per frame.
FRAME_RATE_FPS = 30


@dataclass(frozen=True)
class QualityLevel:
    """One row of Table 2."""

    level: int
    width: int
    height: int
    bitrate_kbps: int
    latency_requirement_ms: float
    tolerance: float  # latency tolerance degree rho in (0, 1]

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.bitrate_kbps <= 0:
            raise ValueError("bitrate must be positive")
        if not 0 < self.tolerance <= 1:
            raise ValueError(f"tolerance must lie in (0, 1], got {self.tolerance}")

    @property
    def bitrate_bps(self) -> float:
        return self.bitrate_kbps * 1000.0


#: Table 2, ordered by quality level 1..5 (index = level - 1).
QUALITY_LADDER: tuple[QualityLevel, ...] = (
    QualityLevel(1, 288, 216, 300, 30.0, 0.6),
    QualityLevel(2, 384, 216, 500, 50.0, 0.7),
    QualityLevel(3, 640, 480, 800, 70.0, 0.8),
    QualityLevel(4, 720, 486, 1200, 90.0, 0.9),
    QualityLevel(5, 1280, 720, 1800, 110.0, 1.0),
)


def get_level(level: int,
              ladder: Sequence[QualityLevel] = QUALITY_LADDER
              ) -> QualityLevel:
    """Return the :class:`QualityLevel` for a 1-based level number.

    ``ladder`` defaults to Table 2 but any ordered ladder works; a
    controller configured with a custom ladder must resolve its rows
    here, not in the global table.
    """
    if not 1 <= level <= len(ladder):
        raise ValueError(
            f"level must lie in [1, {len(ladder)}], got {level}")
    return ladder[level - 1]


def level_for_latency_requirement(requirement_ms: float,
                                  ladder: Sequence[QualityLevel] = QUALITY_LADDER
                                  ) -> QualityLevel:
    """Highest quality level whose latency requirement fits the game's.

    §3.3: "if a game video has a latency requirement of 90 ms, the
    supernode should use 1200 kbps encoding bitrate, corresponding to a
    quality level of 4" — i.e. the largest level whose requirement does
    not exceed the game's budget.  Requirements below the lowest rung
    still get the lowest level (sacrificing the deadline, not service).
    """
    if requirement_ms <= 0:
        raise ValueError(f"requirement must be positive, got {requirement_ms}")
    fitting = [q for q in ladder if q.latency_requirement_ms <= requirement_ms]
    if not fitting:
        return min(ladder, key=lambda q: q.latency_requirement_ms)
    return max(fitting, key=lambda q: q.level)


def adjust_up_factor(ladder: Sequence[QualityLevel] = QUALITY_LADDER) -> float:
    """The paper's β (Eq. 11): max relative bitrate step in the ladder.

    β = max_i (b_{q_{i+1}} - b_{q_i}) / b_{q_i} guarantees that when the
    buffer holds 1 + β segments' worth of the current level, it holds at
    least one segment's worth of the next level up.
    """
    if len(ladder) < 2:
        raise ValueError("the ladder needs at least two levels")
    ordered = sorted(ladder, key=lambda q: q.level)
    return max(
        (high.bitrate_kbps - low.bitrate_kbps) / low.bitrate_kbps
        for low, high in zip(ordered, ordered[1:]))
