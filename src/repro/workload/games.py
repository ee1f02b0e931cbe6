"""Game catalogue: the five games of the evaluation.

§4.1: "We defined 5 games, their quality levels and latency requirements
are shown in Table 2."  Each game maps to one Table-2 row: its response-
latency requirement, latency tolerance degree ρ and default video level.
Different genres have different latency requirements [23] — from the
twitchy first-person shooter at 30 ms tolerance to a slow RPG that
tolerates 110 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..streaming.video import QUALITY_LADDER, QualityLevel

__all__ = ["Game", "GAME_CATALOGUE", "GAME_CODE", "STREAM_RATE_MBPS",
           "LATENCY_REQUIREMENT_MS", "game_for_level", "random_codes",
           "weighted_codes"]


@dataclass(frozen=True)
class Game:
    """One game title and its QoS demands."""

    name: str
    genre: str
    quality: QualityLevel

    @property
    def latency_requirement_ms(self) -> float:
        """The response-latency requirement of this game's genre."""
        return self.quality.latency_requirement_ms

    @property
    def tolerance(self) -> float:
        """Latency tolerance degree ρ (§3.3)."""
        return self.quality.tolerance

    @property
    def default_level(self) -> int:
        return self.quality.level

    @property
    def stream_rate_mbps(self) -> float:
        return self.quality.bitrate_bps / 1e6


#: The five games, one per Table-2 quality level, with genre labels
#: reflecting the latency-sensitivity literature the paper cites [23]:
#: first-person games are strictest, omnipresent-view games most lenient.
GAME_CATALOGUE: tuple[Game, ...] = tuple(
    Game(name, genre, QUALITY_LADDER[level - 1])
    for name, genre, level in (
        ("ArenaStrike", "first-person shooter", 1),
        ("BladeDuel", "action RPG", 2),
        ("WarBanner", "role-playing game", 3),
        ("EmpireForge", "real-time strategy", 4),
        ("KingdomSaga", "omnipresent simulation", 5),
    )
)


#: Catalogue index of each game name: a player's ``SimState.game_code``
#: and the session log's ``game`` column hold these.
GAME_CODE = {game.name: code for code, game in enumerate(GAME_CATALOGUE)}

#: Per-game tables indexed by catalogue position (a player's
#: ``SimState.game_code``), each value taken from its :class:`Game`
#: property so it keeps that property's bits.
STREAM_RATE_MBPS = np.array([game.stream_rate_mbps
                             for game in GAME_CATALOGUE])
LATENCY_REQUIREMENT_MS = np.array([game.latency_requirement_ms
                                   for game in GAME_CATALOGUE])


def game_for_level(level: int) -> Game:
    """The catalogue game whose default quality level is ``level``."""
    for game in GAME_CATALOGUE:
        if game.default_level == level:
            return game
    raise ValueError(f"no game with quality level {level}")


def random_codes(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform catalogue indices, one per player with no
    friend playing.  Numpy's bounded integers agree one at a time or in
    a block, so value k equals the k-th scalar
    ``rng.integers(0, len(GAME_CATALOGUE))`` draw."""
    return rng.integers(0, len(GAME_CATALOGUE), size=size)


def weighted_codes(rng: np.random.Generator, weights,
                   size: int) -> np.ndarray:
    """``size`` catalogue indices from a scenario game mix
    (``weights`` maps game name to weight; games of positive weight
    are drawn in proportion).  One ``rng.choice`` block: the same
    values and generator state as ``size`` scalar calls."""
    codes = [code for code, game in enumerate(GAME_CATALOGUE)
             if weights.get(game.name, 0.0) > 0.0]
    probs = np.array([weights[GAME_CATALOGUE[code].name] for code in codes])
    picks = rng.choice(len(codes), size=size, p=probs / probs.sum())
    return np.array(codes, dtype=np.int8)[picks]
