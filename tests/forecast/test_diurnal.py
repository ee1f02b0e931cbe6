"""Tests for the diurnal/weekly player pattern generator."""

import numpy as np
import pytest

from repro.forecast.diurnal import HOURS_PER_WEEK, DiurnalPattern


def test_hours_per_week_constant():
    assert HOURS_PER_WEEK == 168


def test_expected_peak_is_evening():
    """§4.1: the nightly peak is 8 pm - midnight (hours 19-23)."""
    pattern = DiurnalPattern()
    evening = [pattern.expected(h) for h in range(19, 24)]
    small_hours = [pattern.expected(h) for h in range(2, 6)]
    assert min(evening) > max(small_hours)


def test_peak_hours_cover_the_evening():
    """The 19-22 h evening sits in the shape's top quartile, 4 h not."""
    shape = DiurnalPattern().hourly_shape
    threshold = np.quantile(shape, 0.75)
    assert all(shape[h] >= threshold for h in range(19, 23))
    assert shape[4] < threshold


def test_generate_length_and_positivity():
    pattern = DiurnalPattern()
    series = pattern.generate(np.random.default_rng(0), weeks=3)
    assert series.shape == (3 * HOURS_PER_WEEK,)
    assert np.all(series >= 0)


def test_week_to_week_variation_below_10_percent():
    """The paper's premise: weekly load variation < 10 % [36, 37]."""
    pattern = DiurnalPattern(weekly_noise=0.05)
    series = pattern.generate(np.random.default_rng(0), weeks=6)
    weeks = series.reshape(6, HOURS_PER_WEEK)
    ratio = np.abs(weeks[1:] - weeks[:-1]) / np.maximum(weeks[:-1], 1.0)
    assert np.mean(ratio) < 0.10


def test_noise_free_series_is_exactly_periodic():
    pattern = DiurnalPattern(weekly_noise=0.0)
    series = pattern.generate(np.random.default_rng(0), weeks=2)
    assert np.allclose(series[:HOURS_PER_WEEK], series[HOURS_PER_WEEK:])


def test_weekend_runs_hotter_than_midweek():
    pattern = DiurnalPattern(weekly_noise=0.0)
    monday_evening = pattern.expected(0 * 24 + 21)
    saturday_evening = pattern.expected(5 * 24 + 21)
    assert saturday_evening > monday_evening


def test_expected_bounds_checked():
    pattern = DiurnalPattern()
    with pytest.raises(ValueError):
        pattern.expected(-1)
    with pytest.raises(ValueError):
        pattern.expected(HOURS_PER_WEEK)


def test_validation():
    with pytest.raises(ValueError):
        DiurnalPattern(base_players=0)
    with pytest.raises(ValueError):
        DiurnalPattern(hourly_shape=np.ones(10))
    with pytest.raises(ValueError):
        DiurnalPattern(daily_weights=np.ones(3))
    with pytest.raises(ValueError):
        DiurnalPattern(weekly_noise=0.9)
    with pytest.raises(ValueError):
        DiurnalPattern().generate(np.random.default_rng(0), weeks=0)
