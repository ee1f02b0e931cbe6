"""Runtime hooks a compiled scenario installs on a ``SimState``.

Two picklable pieces (sharded workers rebuild partitions in their own
process and re-apply the configurator, so everything here must cross a
process boundary):

* :class:`ScenarioConfigurator` — the set-once ``configure(state)``
  callable threaded through ``run_config``/``run_sharded``.  It writes
  only the null-defaulted scenario seams of
  :class:`~repro.core.state.SimState` (workload knobs, game weights,
  timezone offsets, quality ceiling, downlink caps, sweep stages), so
  with no scenario active every baseline stays bit-identical.
* :class:`FlashCrowdStage` — a ``SUBCYCLE_STAGES`` hook (run by
  ``stage_scenario`` between faults and arrivals) that injects a
  scripted join spike.  It draws exclusively from its own dedicated
  ``scenario-flash-{day}-{subcycle}`` stream, leaving every baseline
  RNG stream untouched.

This module is foundation-rank: it duck-types the state/context objects
and imports only ``workload`` leaves, never ``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workload.churn import DayPlans, DurationMixture, StartTimeModel
from ..workload.games import (GAME_CATALOGUE, draw_weighted, random_game,
                              under_ceiling, weighted_catalogue)

__all__ = ["ScenarioConfigurator", "FlashCrowdStage"]

_GAMES_BY_NAME = {game.name: game for game in GAME_CATALOGUE}


@dataclass(frozen=True)
class FlashCrowdStage:
    """Inject ``players`` extra joiners at one (day, subcycle).

    Runs every subcycle as part of ``stage_scenario`` and acts only at
    its own coordinates.  Joiners are drawn (without replacement, from
    a dedicated RNG stream) among players with no plan today — neither
    a session in the table nor a pending start — and queued into
    ``ctx.starts`` for this very subcycle, after any organic plans
    already starting then, so ``stage_arrivals`` walks them through the
    ordinary §3.2.2 join path against the post-fault directory.  A
    joiner's game follows the day's game rules: the scenario game mix
    when ``state.game_weights`` is set (a uniform catalogue draw
    otherwise), and never above ``state.quality_ceiling``.
    """

    day: int
    subcycle: int
    players: int
    duration_hours: float = 2.0
    #: Game every crowd member plays (catalogue name); None keeps each
    #: joiner's day game and draws one for players without one.
    game: str | None = None

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
        weights = state.game_weights
        mix = None if weights is None else weighted_catalogue(weights)
        games = state.games
        for player in joiners:
            if self.game is not None:
                game = _GAMES_BY_NAME[self.game]
            elif player in games:
                game = games[player]
            elif mix is None:
                game = random_game(rng)
            else:
                game = draw_weighted(rng, *mix)
            games[player] = under_ceiling(game, state.quality_ceiling)
        crowd = DayPlans.of(joiners, self.subcycle, self.duration_hours)
        queued = ctx.starts.get(self.subcycle)
        ctx.starts[self.subcycle] = (crowd if queued is None
                                     else queued.append(crowd))


@dataclass(frozen=True)
class ScenarioConfigurator:
    """Apply a compiled scenario's overrides to a fresh ``SimState``.

    Every field is optional; an all-default configurator is a no-op.
    Applied once per state — including each shard partition's and each
    resume's rebuilt state — before the first day runs.
    """

    daily_participants: int | None = None
    weekly_weights: tuple[float, ...] | None = None
    duration_shares: tuple[float, float, float] | None = None
    offpeak_share: float | None = None
    game_weights: tuple[tuple[str, float], ...] | None = None
    start_offsets: tuple[int, ...] | None = None
    quality_ceiling: int | None = None
    downlink_cap_mbps: float | None = None
    stages: tuple = ()

    def __call__(self, state) -> None:
        if self.daily_participants is not None:
            state.daily_participants = self.daily_participants
        if self.weekly_weights is not None:
            state.weekly_weights = np.asarray(self.weekly_weights,
                                              dtype=np.float64)
        if self.duration_shares is not None:
            state.duration_mixture = DurationMixture(*self.duration_shares)
        if self.offpeak_share is not None:
            state.start_times = StartTimeModel(
                offpeak_share=self.offpeak_share)
        if self.game_weights is not None:
            state.game_weights = dict(self.game_weights)
        if self.start_offsets is not None:
            state.start_offsets = tuple(self.start_offsets)
        if self.quality_ceiling is not None:
            state.quality_ceiling = self.quality_ceiling
        if self.downlink_cap_mbps is not None:
            links = state.topology.player_links.download_mbps
            np.minimum(links, self.downlink_cap_mbps, out=links)
        if self.stages:
            state.scenario_stages = tuple(state.scenario_stages) \
                + tuple(self.stages)
