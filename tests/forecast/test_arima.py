"""Tests for the seasonal ARIMA forecaster (Eq. 14)."""

import numpy as np
import pytest

from repro.forecast.arima import (
    SeasonalArima,
    fit_seasonal_arima,
    naive_seasonal_forecast,
)
from repro.forecast.diurnal import DiurnalPattern


def test_validation():
    with pytest.raises(ValueError):
        SeasonalArima(period=0)
    with pytest.raises(ValueError):
        SeasonalArima(period=4, theta=1.0)
    with pytest.raises(ValueError):
        SeasonalArima(period=4, seasonal_theta=-1.0)


def test_forecast_without_observations_raises():
    with pytest.raises(RuntimeError):
        SeasonalArima(period=4).forecast()


def test_observe_rejects_negative_counts():
    with pytest.raises(ValueError):
        SeasonalArima(period=4).observe(-1.0)


def test_naive_fallback_before_a_full_season():
    model = SeasonalArima(period=4)
    model.observe(100.0)
    assert model.forecast() == 100.0
    assert not model.ready


def test_eq14_exact_arithmetic():
    """Hand-check Eq. 14 on a short series with known residuals."""
    model = SeasonalArima(period=2, theta=0.5, seasonal_theta=0.4)
    # Observe 10, 20, 30 (residuals accumulate along the way).
    forecasts = model.forecast_series([10.0, 20.0, 30.0])
    # k=1: naive fallback = 10; k=2: still <= period -> naive = 20.
    assert forecasts[1] == 10.0
    assert forecasts[2] == 20.0
    # Now ready: history [10,20,30], residuals [0, 10, 10].
    assert model.ready
    predicted = model.forecast()
    expected = (20.0 + 30.0 - 10.0            # N_{t-T} + N_{t-1} - N_{t-T-1}
                - 0.5 * 10.0                  # - theta * W_{t-1}
                - 0.4 * 10.0                  # - Theta * W_{t-T}
                + 0.5 * 0.4 * 0.0)            # + theta*Theta*W_{t-T-1}
    assert predicted == pytest.approx(expected)


def test_forecast_is_floored_at_zero():
    model = SeasonalArima(period=2, theta=0.0, seasonal_theta=0.0)
    model.forecast_series([100.0, 0.0, 0.0])
    # Eq. 14 raw value: 0 + 0 - 100 = -100 -> floored to 0.
    assert model.forecast() == 0.0


def test_unqueried_observe_records_implied_residual():
    """Regression: an observe() without a preceding forecast() recorded
    a 0.0 residual once the model was ready, i.e. a phantom perfect
    prediction that corrupted the MA terms a season later.  The implied
    Eq. 14 one-step forecast must be used instead, making residual state
    independent of whether the caller happened to query a forecast."""
    series = [10.0, 20.0, 30.0, 25.0, 15.0, 35.0]
    queried = SeasonalArima(period=2, theta=0.5, seasonal_theta=0.4)
    silent = SeasonalArima(period=2, theta=0.5, seasonal_theta=0.4)
    for value in series:
        if queried.ready:  # during warmup a query records the *naive*
            queried.forecast()  # forecast's residual by design
        queried.observe(value)
        silent.observe(value)  # observe/observe/... (never queried)
    assert silent._residuals == queried._residuals
    assert silent.forecast() == queried.forecast()


def test_unqueried_observe_keeps_zero_residual_before_ready():
    """During warmup there is no Eq. 14 forecast to imply; the residual
    stays 0.0 exactly as before the fix."""
    model = SeasonalArima(period=3)
    for value in (5.0, 6.0, 7.0):  # ready needs period+1 = 4 points
        model.observe(value)
    assert model._residuals == [0.0, 0.0, 0.0]


def test_exact_seasonal_series_is_predicted_exactly():
    """A perfectly periodic series has zero forecast error once ready."""
    model = SeasonalArima(period=4, theta=0.0, seasonal_theta=0.0)
    pattern = [10.0, 50.0, 80.0, 30.0] * 5
    forecasts = model.forecast_series(pattern)
    realised = np.asarray(pattern)
    errors = np.abs(forecasts[5:] - realised[5:])
    assert errors.max() == pytest.approx(0.0)


def test_forecasts_track_weekly_pattern_within_reason():
    """On a realistic diurnal series the model beats a flat predictor."""
    pattern = DiurnalPattern(base_players=1000.0, weekly_noise=0.04)
    series = pattern.generate(np.random.default_rng(0), weeks=4)
    model = SeasonalArima(period=168, theta=0.2, seasonal_theta=0.2)
    forecasts = model.forecast_series(series)
    mask = ~np.isnan(forecasts)
    mask[:169] = False
    arima_mae = np.abs(forecasts[mask] - series[mask]).mean()
    flat_mae = np.abs(series[mask] - series.mean()).mean()
    assert arima_mae < 0.25 * flat_mae


def test_fit_improves_or_matches_default_coefficients():
    pattern = DiurnalPattern(base_players=500.0, weekly_noise=0.05)
    series = pattern.generate(np.random.default_rng(1), weeks=3)
    fitted = fit_seasonal_arima(series, period=168)
    assert -1.0 < fitted.theta < 1.0
    assert -1.0 < fitted.seasonal_theta < 1.0
    # The primed model forecasts the next window sensibly (positive,
    # same order of magnitude as the series).
    nxt = fitted.forecast()
    assert 0.0 <= nxt <= series.max() * 2


def test_fit_needs_enough_history():
    with pytest.raises(ValueError):
        fit_seasonal_arima([1.0, 2.0, 3.0], period=4)


def test_naive_seasonal_forecast():
    assert naive_seasonal_forecast([1.0, 2.0, 3.0, 4.0], period=2) == 3.0
    assert naive_seasonal_forecast([5.0], period=3) == 5.0
    with pytest.raises(ValueError):
        naive_seasonal_forecast([], period=2)
    with pytest.raises(ValueError):
        naive_seasonal_forecast([1.0], period=0)


def test_forecast_series_first_entry_nan():
    model = SeasonalArima(period=3)
    forecasts = model.forecast_series([5.0, 6.0])
    assert np.isnan(forecasts[0])
    assert forecasts[1] == 5.0
