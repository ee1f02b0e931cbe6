"""A run's workload overrides: one frozen value on ``SystemConfig``.

§4.1 drives every experiment through workload settings (daily
participants, the 30 %/70 % start split, the 50/30/20 duration mix,
and for Figs. 13–15 arrival rates); the scenario DSL adds game mixes,
timezone offsets, a quality ceiling, downlink caps and flash crowds.
:class:`WorkloadOverrides` holds all of them, as
``SystemConfig.workload``.  The config is the only place a run's
workload lives, so a sharded partition, a resumed run and a fresh run
all read the same value, and a checkpoint carries it inside its
serialized config.

This module is also the one schema and the one validator of that
value.  :class:`WorkloadOverrides` and :class:`FlashCrowdStage` check
every field at construction, whoever builds them — code,
:func:`set_arrival_rates`, a checkpoint's config or a scenario
document — and store it in one canonical form (tuples, floats, game
weights in catalogue order).  Each error names its field first
(``weekly_weights: …``), so the scenario parser only prefixes the
document section.

Every field defaults to "no override"; the all-default value leaves
every baseline bit-identical.  The sweep (``core.sweep``) and
:class:`FlashCrowdStage` read it from ``state.config.workload``, and
scoring applies the downlink cap where it gathers the receivers'
download rates — no population is mutated.

Foundation rank: imports only ``workload``, ``forecast`` and
``streaming.video`` leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..forecast.diurnal import DiurnalPattern
from ..streaming.video import QUALITY_LADDER
from .churn import DayPlans, DurationMixture, StartTimeModel
from .games import GAME_CODE, random_codes, weighted_codes

__all__ = ["FlashCrowdStage", "WorkloadOverrides", "set_arrival_rates"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(name: str, value) -> int:
    if not _is_int(value) or value <= 0:
        raise ValueError(f"{name}: must be a positive integer, "
                         f"got {value!r}")
    return value


def _positive_float(name: str, value) -> float:
    if not _is_number(value) or not value > 0:
        raise ValueError(f"{name}: must be a positive number, "
                         f"got {value!r}")
    return float(value)


def _entries(name: str, value, count: int | None = None) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: must be a list, got {value!r}")
    if count is not None and len(value) != count:
        raise ValueError(f"{name}: needs {count} entries, "
                         f"got {len(value)}")
    return tuple(value)


@dataclass(frozen=True)
class FlashCrowdStage:
    """Inject ``players`` extra joiners at one (day, subcycle).

    A ``SUBCYCLE_STAGES`` hook: ``stage_scenario`` runs it every
    subcycle, between faults and arrivals, and it acts only at its own
    coordinates.  Joiners are drawn (without replacement, from the
    dedicated ``scenario-flash-{day}-{subcycle}`` stream, so every
    baseline stream stays untouched) among players with no plan today —
    neither a session in the table nor a pending start — and queued
    into ``ctx.starts`` for this very subcycle, after any organic plans
    already starting then, so ``stage_arrivals`` walks them through the
    ordinary §3.2.2 join path against the post-fault directory.  A
    joiner's game follows the day's game rules: the workload's game mix
    when it has one (a uniform catalogue draw otherwise), and never
    above its quality ceiling.
    """

    day: int
    subcycle: int
    players: int
    duration_hours: float = 2.0
    #: Game every crowd member plays (catalogue name); None keeps each
    #: joiner's day game and draws one for players without one.
    game: str | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.day) or self.day < 0:
            raise ValueError(f"day: must be a non-negative integer, "
                             f"got {self.day!r}")
        if not _is_int(self.subcycle) or self.subcycle < 1:
            raise ValueError(f"subcycle: is 1-based, got "
                             f"{self.subcycle!r}")
        _positive_int("players", self.players)
        object.__setattr__(self, "duration_hours", _positive_float(
            "duration_hours", self.duration_hours))
        if self.game is not None and self.game not in GAME_CODE:
            raise ValueError(f"game: unknown game {self.game!r}; one of "
                             f"{sorted(GAME_CODE)}")

    def __call__(self, state, ctx) -> None:
        if ctx.day != self.day or ctx.subcycle != self.subcycle:
            return
        rng = state.rng_factory.stream(
            f"scenario-flash-{self.day}-{self.subcycle}")
        busy = [ctx.sessions.players()]
        busy.extend(plans.player for plans in ctx.starts.values())
        idle = np.setdiff1d(np.arange(state.topology.num_players),
                            np.concatenate(busy)).tolist()
        if not idle:
            return
        count = min(self.players, len(idle))
        chosen = rng.choice(len(idle), size=count, replace=False)
        joiners = [idle[index] for index in np.sort(chosen).tolist()]
        workload = state.config.workload
        games = state.game_code[joiners]
        if self.game is not None:
            games[:] = GAME_CODE[self.game]
        else:
            # Joiners without a game today draw one each, in joiner
            # order: one block, as the day's choice draws.
            missing = games < 0
            draws = int(np.count_nonzero(missing))
            weights = workload.game_weights
            games[missing] = (
                random_codes(rng, draws) if weights is None
                else weighted_codes(rng, dict(weights), draws))
        if workload.quality_ceiling is not None:
            np.minimum(games, workload.quality_ceiling - 1, out=games)
        state.game_code[joiners] = games
        crowd = DayPlans.of(joiners, self.subcycle, self.duration_hours)
        queued = ctx.starts.get(self.subcycle)
        ctx.starts[self.subcycle] = (crowd if queued is None
                                     else queued.append(crowd))


def _weekly_weights(name: str, weights) -> tuple[float, ...]:
    weights = _entries(name, weights, 7)
    if not all(_is_number(w) and w > 0 for w in weights):
        raise ValueError(f"{name}: must all be positive numbers, "
                         f"got {list(weights)!r}")
    return tuple(float(w) for w in weights)


def _duration_shares(name: str, shares) -> tuple[float, float, float]:
    shares = _entries(name, shares, 3)
    if not all(_is_number(share) for share in shares):
        raise ValueError(f"{name}: must be numbers, got {list(shares)!r}")
    shares = tuple(float(share) for share in shares)
    try:
        DurationMixture(*shares)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return shares


def _share(name: str, share) -> float:
    if not _is_number(share) or not 0 <= share <= 1:
        raise ValueError(f"{name}: must lie in [0, 1], got {share!r}")
    return float(share)


def _game_weights(name: str, pairs) -> tuple[tuple[str, float], ...]:
    pairs = _entries(name, pairs)
    if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
               and isinstance(pair[0], str) for pair in pairs):
        raise ValueError(f"{name}: entries must be (game name, weight) "
                         f"pairs, got {list(pairs)!r}")
    weights = dict(pairs)
    if len(weights) != len(pairs):
        raise ValueError(f"{name}: a game appears more than once")
    unknown = sorted(set(weights) - set(GAME_CODE))
    if unknown:
        raise ValueError(f"{name}: unknown games {unknown}; valid games: "
                         f"{sorted(GAME_CODE)}")
    if not all(_is_number(w) and w >= 0 for w in weights.values()):
        raise ValueError(f"{name}: weights must be non-negative numbers")
    if not any(w > 0 for w in weights.values()):
        raise ValueError(f"{name}: at least one game needs positive "
                         f"weight")
    # Catalogue order: one canonical value however the pairs were given.
    return tuple((game, float(weights[game])) for game in GAME_CODE
                 if game in weights)


def _start_offsets(name: str, offsets) -> tuple[int, ...]:
    offsets = _entries(name, offsets)
    if not offsets or not all(_is_int(o) and o >= 0 for o in offsets):
        raise ValueError(f"{name}: must be a non-empty list of "
                         f"non-negative integer subcycle shifts, got "
                         f"{list(offsets)!r}")
    return offsets


def _quality_ceiling(name: str, level) -> int:
    if not _is_int(level) or not 1 <= level <= len(QUALITY_LADDER):
        raise ValueError(f"{name}: must be a ladder level in "
                         f"[1, {len(QUALITY_LADDER)}], got {level!r}")
    return level


def _flash_crowds(name: str, crowds) -> tuple[FlashCrowdStage, ...]:
    crowds = _entries(name, crowds)
    for crowd in crowds:
        if not isinstance(crowd, FlashCrowdStage):
            raise ValueError(f"{name}: entries must be FlashCrowdStage "
                             f"values, got {crowd!r}")
    return crowds


#: The check of every field, run on each value that is not None; each
#: returns the field's canonical form.
_CHECKS = {
    "daily_participants": _positive_int,
    "weekly_weights": _weekly_weights,
    "duration_shares": _duration_shares,
    "offpeak_share": _share,
    "game_weights": _game_weights,
    "start_offsets": _start_offsets,
    "quality_ceiling": _quality_ceiling,
    "downlink_cap_mbps": _positive_float,
    "flash_crowds": _flash_crowds,
}


@dataclass(frozen=True)
class WorkloadOverrides:
    """The workload overrides of one run; every field optional.

    In a sharded run every partition carries the same value, so the
    participant count and each flash crowd apply per region.
    """

    #: Players drawn to play each day (None: everyone plays).
    daily_participants: int | None = None
    #: Day-of-week multipliers of ``daily_participants`` (7 entries).
    weekly_weights: tuple[float, ...] | None = None
    #: (short, medium, long) play-duration shares (None: 50/30/20).
    duration_shares: tuple[float, float, float] | None = None
    #: Share of starts outside the evening peak (None: 30 %).
    offpeak_share: float | None = None
    #: ``(game name, weight)`` pairs replacing the social game choice.
    game_weights: tuple[tuple[str, float], ...] | None = None
    #: Per-region start-subcycle shifts (timezone profiles), one entry
    #: per datacenter region, cycled when shorter.
    start_offsets: tuple[int, ...] | None = None
    #: Quality-ladder ceiling: no session streams above this level.
    quality_ceiling: int | None = None
    #: Cap on every player's download rate (Mbit/s) when scored.
    downlink_cap_mbps: float | None = None
    #: Scripted join spikes, run in this order every subcycle.
    flash_crowds: tuple[FlashCrowdStage, ...] = ()

    def __post_init__(self) -> None:
        # Fail at config build, not mid-run.
        for item in fields(self):
            value = getattr(self, item.name)
            if value is not None:
                object.__setattr__(self, item.name,
                                   _CHECKS[item.name](item.name, value))

    def durations(self) -> DurationMixture:
        """The daily play-duration mixture."""
        if self.duration_shares is None:
            return DurationMixture()
        return DurationMixture(*self.duration_shares)

    def start_times(self) -> StartTimeModel:
        """The start-subcycle model."""
        if self.offpeak_share is None:
            return StartTimeModel()
        return StartTimeModel(offpeak_share=self.offpeak_share)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadOverrides":
        """Rebuild from ``dataclasses.asdict`` output, JSON-decoded or
        not (the checks turn lists back into tuples; crowds become
        stages here)."""
        values = {item.name: data[item.name] for item in fields(cls)}
        values["flash_crowds"] = tuple(
            FlashCrowdStage(**crowd) for crowd in values["flash_crowds"])
        return cls(**values)


def set_arrival_rates(offpeak_per_min: float, peak_per_min: float
                      ) -> WorkloadOverrides:
    """The workload that drives participation from arrival rates
    (Figs. 13-15).

    Off-peak joiners arrive over 19 subcycles, peak joiners over 5;
    the start-time split follows from the two rates.
    """
    if offpeak_per_min < 0 or peak_per_min < 0:
        raise ValueError("arrival rates must be non-negative")
    offpeak_total = offpeak_per_min * 60.0 * 19.0
    peak_total = peak_per_min * 60.0 * 5.0
    total = offpeak_total + peak_total
    if total <= 0:
        raise ValueError("at least one arrival rate must be positive")
    # Arrival-driven participation follows the weekly pattern the
    # paper's forecasting premise rests on ([36, 37]): weekends run
    # hotter, midweek cooler.
    return WorkloadOverrides(
        daily_participants=int(round(total)),
        weekly_weights=tuple(DiurnalPattern().daily_weights.tolist()),
        offpeak_share=offpeak_total / total)
