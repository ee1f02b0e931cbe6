"""Property-based tests for the churn models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.churn import (
    DurationMixture,
    StartTimeModel,
    sample_day_plans,
)

from .test_churn import online_subcycles


@given(seed=st.integers(min_value=0, max_value=1000),
       n=st.integers(min_value=1, max_value=300))
@settings(max_examples=50, deadline=None)
def test_property_durations_within_a_day(seed, n):
    rng = np.random.default_rng(seed)
    hours = np.atleast_1d(DurationMixture().sample_hours(rng, n))
    assert np.all(hours > 0.0)
    assert np.all(hours <= 24.0)


@given(seed=st.integers(min_value=0, max_value=1000),
       n=st.integers(min_value=1, max_value=300))
@settings(max_examples=50, deadline=None)
def test_property_start_subcycles_valid(seed, n):
    rng = np.random.default_rng(seed)
    starts = np.atleast_1d(StartTimeModel().sample_subcycles(rng, n))
    assert np.all(starts >= 1)
    assert np.all(starts <= 24)


@given(seed=st.integers(min_value=0, max_value=1000),
       n=st.integers(min_value=1, max_value=200))
@settings(max_examples=50, deadline=None)
def test_property_day_plans_cover_each_player_once(seed, n):
    rng = np.random.default_rng(seed)
    plans = sample_day_plans(rng, np.arange(n))
    assert len(plans) == n
    assert plans.player.tolist() == list(range(n))
    # Every plan starts inside the day and plays at least one subcycle.
    assert np.all((plans.start >= 1) & (plans.start <= 24))
    assert np.all(np.ceil(plans.hours) >= 1)


@given(start=st.integers(min_value=1, max_value=24),
       duration=st.floats(min_value=0.01, max_value=24.0),
       probe=st.integers(min_value=1, max_value=48))
@settings(max_examples=200, deadline=None)
def test_property_online_window_is_contiguous(start, duration, probe):
    online = online_subcycles(start, duration)
    # The online subcycles form one contiguous block starting at start.
    assert online
    assert online[0] == start
    assert online == list(range(online[0], online[-1] + 1))
    expected_span = int(np.ceil(duration))
    assert len(online) == expected_span
    assert (probe in online) == (start <= probe < start + expected_span)
