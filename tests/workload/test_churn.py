"""Tests for churn models (durations, start times, day plans)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import sweep
from repro.workload.churn import (
    DayPlans,
    DurationMixture,
    StartTimeModel,
    sample_day_plans,
)


def test_duration_mixture_shares_match_paper():
    """§4.1: 50 % play (0,2]h, 30 % (2,5]h, 20 % (5,24]h."""
    mixture = DurationMixture()
    rng = np.random.default_rng(0)
    hours = mixture.sample_hours(rng, 20000)
    short = np.mean(hours <= 2.0)
    medium = np.mean((hours > 2.0) & (hours <= 5.0))
    long = np.mean(hours > 5.0)
    assert abs(short - 0.5) < 0.02
    assert abs(medium - 0.3) < 0.02
    assert abs(long - 0.2) < 0.02
    assert hours.max() <= 24.0
    assert hours.min() >= 0.0


def test_duration_mixture_scalar_sample():
    hours = DurationMixture().sample_hours(np.random.default_rng(0))
    assert isinstance(hours, float)
    assert 0.0 <= hours <= 24.0


def test_duration_mixture_validation():
    with pytest.raises(ValueError):
        DurationMixture(short_share=0.5, medium_share=0.5, long_share=0.5)
    with pytest.raises(ValueError):
        DurationMixture(short_share=-0.1, medium_share=0.9, long_share=0.2)


def test_start_time_split_30_70():
    """§4.1: start in [1,19] with p=0.3, in [20,24] with p=0.7."""
    model = StartTimeModel()
    rng = np.random.default_rng(0)
    starts = model.sample_subcycles(rng, 20000)
    assert starts.min() >= 1
    assert starts.max() <= 24
    peak_share = np.mean(starts >= 20)
    assert abs(peak_share - 0.7) < 0.02


def test_start_time_scalar_sample():
    start = StartTimeModel().sample_subcycles(np.random.default_rng(0))
    assert isinstance(start, int)
    assert 1 <= start <= 24


def test_start_time_validation():
    with pytest.raises(ValueError):
        StartTimeModel(offpeak_share=1.5)
    with pytest.raises(ValueError):
        StartTimeModel(offpeak_range=(5, 2))
    with pytest.raises(ValueError):
        StartTimeModel(peak_range=(0, 5))


class RecordingProvisioner:
    """Records the window counts it observes; never redeploys."""

    ready = False

    def __init__(self, window_hours: int = 1):
        self.window_hours = window_hours
        self.observed = []

    def observe(self, count):
        self.observed.append(count)


def online_subcycles(start: int, hours: float) -> list[int]:
    """The subcycles of a 48-subcycle day in which a one-plan day counts
    as online, read from ``run_provisioning`` at one-subcycle windows."""
    state = SimpleNamespace(
        config=SimpleNamespace(schedule=SimpleNamespace(hours_per_day=48)),
        provisioner=RecordingProvisioner())
    sweep.run_provisioning(state, DayPlans.of([1], start, hours),
                           np.random.default_rng(0))
    return [subcycle for subcycle, count
            in enumerate(state.provisioner.observed, start=1) if count]


def test_day_plan_online_window():
    # ceil(2.5) = 3 subcycles: 20, 21, 22.
    assert online_subcycles(20, 2.5) == [20, 21, 22]
    assert online_subcycles(1, 1e-3) == [1]


def test_day_plan_validation():
    """The batch is validated once; the error names the first bad row,
    its player and its value."""
    for start, hours, message in (
            (0, 1.0, "plan 2 (player 12): start must be >= 1, got 0"),
            (1, 0.0, "plan 2 (player 12): hours must be > 0, got 0.0"),
            (1, float("nan"),
             "plan 2 (player 12): hours must be > 0, got nan")):
        with pytest.raises(ValueError) as excinfo:
            DayPlans.of([10, 11, 12, 13], [3, 4, start, start],
                        [1.0, 2.0, hours, hours])
        assert str(excinfo.value) == message
    with pytest.raises(ValueError, match="differ in length"):
        DayPlans(np.array([1, 2]), np.array([1]), np.array([1.0, 1.0]))


def test_sample_day_plans():
    rng = np.random.default_rng(0)
    plans = sample_day_plans(rng, np.arange(100))
    assert len(plans) == 100
    assert plans.player.tolist() == list(range(100))
    assert (plans.player.dtype, plans.start.dtype, plans.hours.dtype) \
        == (np.int64, np.int64, np.float64)
    assert np.all((plans.start >= 1) & (plans.start <= 24))
    assert np.all(plans.hours >= 1e-3)
    empty = sample_day_plans(rng, np.array([], dtype=int))
    assert len(empty) == 0 and empty.start.dtype == np.int64


def test_day_plans_take_and_append_keep_row_order():
    plans = DayPlans.of([5, 6, 7], [2, 3, 4], [0.5, 1.5, 2.5])
    picked = plans.take(np.array([2, 0]))
    assert picked.player.tolist() == [7, 5]
    assert picked.hours.tolist() == [2.5, 0.5]
    both = picked.append(DayPlans.of([9], 21, 2.0))
    assert both.player.tolist() == [7, 5, 9]
    assert both.start.tolist() == [4, 2, 21]
