"""Frozen oracle: the day plans as they ran on one object per plan.

Verbatim copies, taken before a day's plans became one struct of
arrays, of ``PlayerDayPlan`` (with its ``online_at`` window rule) and
``sample_day_plans`` from ``repro.workload.churn``, of
``repro.core.sweep.sample_plans`` with its timezone offset shift (it
reads a duck-typed state), of the start-cohort grouping at the top of
``repro.core.sweep.sweep_day`` and of the per-window occupancy count
of ``repro.core.sweep.run_provisioning`` in its per-plan ``online_at``
form.  ``test_plans_parity.py`` runs them beside the live code on the
same inputs: equal columns, equal cohorts, equal counts and equal
generator states afterwards mean every RNG draw and every plan's order
is unchanged.  Do not edit this file to follow the live code."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.workload.churn import DurationMixture, StartTimeModel


@dataclass(frozen=True)
class PlayerDayPlan:
    """One player's gaming plan for one day."""

    player: int
    start_subcycle: int       # 1-based
    duration_hours: float

    def __post_init__(self) -> None:
        if self.start_subcycle < 1:
            raise ValueError("start_subcycle is 1-based")
        if self.duration_hours <= 0:
            raise ValueError("duration must be positive")

    def online_at(self, subcycle: int) -> bool:
        """Is the player online during a (1-based) subcycle?

        Sessions run for ceil(duration) whole subcycles and do not wrap
        past midnight (each cycle is one day's activities, §4.1).
        """
        if subcycle < 1:
            raise ValueError("subcycle is 1-based")
        end = self.start_subcycle + int(np.ceil(self.duration_hours)) - 1
        return self.start_subcycle <= subcycle <= end


def sample_day_plans(rng: np.random.Generator, players: np.ndarray,
                     durations: DurationMixture | None = None,
                     starts: StartTimeModel | None = None
                     ) -> list[PlayerDayPlan]:
    """Sample one day's plans for a set of player ids."""
    durations = durations or DurationMixture()
    starts = starts or StartTimeModel()
    players = np.asarray(players, dtype=np.int64)
    n = len(players)
    if n == 0:
        return []
    hours = np.atleast_1d(durations.sample_hours(rng, n))
    subcycles = np.atleast_1d(starts.sample_subcycles(rng, n))
    return [PlayerDayPlan(int(p), int(s), float(max(h, 1e-3)))
            for p, s, h in zip(players, subcycles, hours)]


def sample_plans(state, rng: np.random.Generator,
                 day: int = 0) -> list[PlayerDayPlan]:
    """``sweep.sample_plans``: participants, plans, timezone shift."""
    n = state.topology.num_players
    workload = state.config.workload
    if workload.daily_participants is not None:
        weight = 1.0
        if workload.weekly_weights is not None:
            weight = float(workload.weekly_weights[day % 7])
        count = min(n, int(round(workload.daily_participants * weight)))
        players = rng.choice(n, size=max(1, count), replace=False)
    else:
        players = np.arange(n)
    plans = sample_day_plans(rng, players, workload.durations(),
                             workload.start_times())
    offsets = workload.start_offsets
    if offsets:
        hours = state.config.schedule.hours_per_day
        nearest = state.nearest_dc
        plans = [
            plan if offset == 0 else
            replace(plan, start_subcycle=(
                (plan.start_subcycle - 1 + offset) % hours) + 1)
            for plan in plans
            for offset in (int(offsets[int(nearest[plan.player])
                                       % len(offsets)]),)]
    return plans


def group_starts(plans: list[PlayerDayPlan],
                 hours: int) -> dict[int, list[PlayerDayPlan]]:
    """``sweep_day``'s start cohorts: clamped start → plans, in plan
    order."""
    starts: dict[int, list[PlayerDayPlan]] = {}
    for plan in plans:
        starts.setdefault(min(plan.start_subcycle, hours), []).append(plan)
    return starts


def window_counts(plans: list[PlayerDayPlan], hours: int,
                  window: int) -> list[int]:
    """Players online somewhere in each provisioning window."""
    counts = []
    for window_start in range(1, hours + 1, window):
        window_end = min(hours, window_start + window - 1)
        counts.append(sum(
            1 for plan in plans
            if any(plan.online_at(s)
                   for s in range(window_start, window_end + 1))))
    return counts
