"""Parity: the columnar day plans against the frozen per-object oracle.

``plans_oracle.py`` holds the plan code as it ran on one
``PlayerDayPlan`` per participant.  Each test feeds the live column
code and the oracle the same inputs and asserts with ``==``: the same
columns in the same order, the same generator state after sampling,
the same start cohorts and the same provisioning window counts.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sweep
from repro.workload.churn import DurationMixture, StartTimeModel

from . import plans_oracle as oracle
from .test_churn import RecordingProvisioner


class _FloorDurations:
    """Play times straddling the 1e-3 h floor, exact zeros included."""

    def sample_hours(self, rng, n):
        tiny = rng.uniform(0.0, 2e-3, size=n)
        return np.where(rng.random(n) < 0.25, 0.0, tiny)


def _columns(plans):
    return (plans.player.tolist(), plans.start.tolist(),
            plans.hours.tolist())


def _oracle_columns(plans):
    return ([plan.player for plan in plans],
            [plan.start_subcycle for plan in plans],
            [plan.duration_hours for plan in plans])


@st.composite
def plan_states(draw):
    """A duck-typed state with everything ``sample_plans`` reads."""
    n = draw(st.integers(min_value=1, max_value=120))
    num_dcs = draw(st.integers(min_value=1, max_value=6))
    offsets = draw(st.one_of(
        st.none(), st.tuples(),
        st.lists(st.integers(min_value=0, max_value=23), min_size=1,
                 max_size=6).map(tuple)))
    durations = draw(st.one_of(
        st.just(DurationMixture()), st.just(_FloorDurations()),
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.integers(1, 4)).map(
            lambda w: DurationMixture(*(x / sum(w) for x in w)))))
    starts = StartTimeModel(
        offpeak_share=draw(st.floats(min_value=0.0, max_value=1.0)))
    workload = SimpleNamespace(
        daily_participants=draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=n + 10))),
        weekly_weights=draw(st.one_of(
            st.none(), st.lists(st.floats(0.0, 1.5), min_size=7,
                                max_size=7).map(np.array))),
        durations=lambda: durations,
        start_times=lambda: starts,
        start_offsets=offsets)
    return SimpleNamespace(
        topology=SimpleNamespace(num_players=n),
        config=SimpleNamespace(
            schedule=SimpleNamespace(hours_per_day=draw(
                st.integers(min_value=12, max_value=24))),
            workload=workload),
        nearest_dc=np.array(draw(st.lists(
            st.integers(min_value=0, max_value=num_dcs - 1),
            min_size=n, max_size=n)), dtype=np.int64))


def _both(state, seed, day):
    """Live and oracle plans sampled from twin generators."""
    live_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    live = sweep.sample_plans(state, live_rng, day=day)
    frozen = oracle.sample_plans(state, oracle_rng, day=day)
    return live, frozen, live_rng, oracle_rng


@given(state=plan_states(), seed=st.integers(0, 2**32 - 1),
       day=st.integers(0, 13))
@settings(max_examples=150, deadline=None)
def test_sampled_columns_and_rng_state_match_oracle(state, seed, day):
    live, frozen, live_rng, oracle_rng = _both(state, seed, day)
    assert _columns(live) == _oracle_columns(frozen)
    assert live.player.dtype == live.start.dtype == np.int64
    assert live.hours.dtype == np.float64
    assert live_rng.bit_generator.state == oracle_rng.bit_generator.state


@given(state=plan_states(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_start_cohorts_match_oracle(state, seed):
    live, frozen, _, _ = _both(state, seed, 0)
    hours = state.config.schedule.hours_per_day
    cohorts = sweep.start_cohorts(live, hours)
    expected = oracle.group_starts(frozen, hours)
    assert {subcycle: _columns(plans)
            for subcycle, plans in cohorts.items()} \
        == {subcycle: _oracle_columns(plans)
            for subcycle, plans in expected.items()}


@given(state=plan_states(), seed=st.integers(0, 2**32 - 1),
       window=st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_provisioning_window_counts_match_oracle(state, seed, window):
    live, frozen, _, _ = _both(state, seed, 0)
    hours = state.config.schedule.hours_per_day
    state.provisioner = RecordingProvisioner(window)
    sweep.run_provisioning(state, live, np.random.default_rng(0))
    assert state.provisioner.observed \
        == oracle.window_counts(frozen, hours, window)
