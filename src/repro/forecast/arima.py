"""Seasonal ARIMA forecaster — §3.5, Eq. 14.

The paper predicts the number of online players per time window with a
seasonal ARIMA model "widely used to forecast time series with seasonal
patterns".  Eq. 14 is the one-step forecast of an
ARIMA(0,1,1) x (0,1,1)_T model::

    N_hat_t = N_{t-T} + N_{t-1} - N_{t-T-1}
              - theta * W_{t-1} - Theta * W_{t-T} + theta*Theta * W_{t-T-1}

where T is the season length (one week of time windows), theta the MA(1)
coefficient, Theta the seasonal SMA(1) coefficient and {W_t} the white-
noise innovations — realised as one-step forecast residuals
``W_t = N_t - N_hat_t``.

Coefficients can be given, or fitted by a conditional-sum-of-squares
grid search over (theta, Theta) on a training series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["SeasonalArima", "fit_seasonal_arima", "naive_seasonal_forecast"]


@dataclass
class SeasonalArima:
    """Online one-step-ahead forecaster implementing Eq. 14."""

    period: int
    theta: float = 0.3
    seasonal_theta: float = 0.3
    _history: list[float] = field(default_factory=list, repr=False)
    _residuals: list[float] = field(default_factory=list, repr=False)
    _last_forecast: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not -1.0 < self.theta < 1.0 or not -1.0 < self.seasonal_theta < 1.0:
            raise ValueError("MA coefficients must lie in (-1, 1) for invertibility")

    # -- state -----------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True once Eq. 14 has all the lags it needs (T + 1 points)."""
        return len(self._history) > self.period

    # -- online interface --------------------------------------------------
    def observe(self, value: float) -> None:
        """Record the realised player count for the current window.

        The innovation ``W_t = N_t - N_hat_t`` is defined against the
        one-step forecast whether or not the caller asked for one.  When
        :meth:`forecast` was skipped for this window, the implied Eq. 14
        forecast is computed here — recording 0.0 instead (the old
        behaviour) injected a phantom perfect prediction into the MA
        terms one season later, corrupting every subsequent forecast.
        """
        if value < 0:
            raise ValueError(f"player counts are non-negative, got {value}")
        forecast = self._last_forecast
        if forecast is None and self.ready:
            forecast = self._one_step_forecast()
        residual = 0.0 if forecast is None else value - forecast
        self._history.append(float(value))
        self._residuals.append(residual)
        self._last_forecast = None

    def _one_step_forecast(self) -> float:
        """Eq. 14 against the current lags, floored at 0 players."""
        history, residuals, period = self._history, self._residuals, self.period
        n_prev = history[-1]
        n_season = history[-period]
        n_season_prev = history[-period - 1]
        w_prev = residuals[-1]
        w_season = residuals[-period]
        w_season_prev = residuals[-period - 1]
        value = (n_season + n_prev - n_season_prev
                 - self.theta * w_prev
                 - self.seasonal_theta * w_season
                 + self.theta * self.seasonal_theta * w_season_prev)
        return max(0.0, value)

    def forecast(self) -> float:
        """Predict the next window's player count (Eq. 14).

        Falls back to the naive seasonal forecast (same window last week,
        else the last observation) until enough history accumulates.
        Player counts are floored at 0.
        """
        if not self._history:
            raise RuntimeError("cannot forecast with no observations")
        if not self.ready:
            value = max(0.0, self._history[-1])
        else:
            value = self._one_step_forecast()
        self._last_forecast = value
        return value

    def forecast_series(self, observations: Sequence[float]) -> np.ndarray:
        """One-step forecasts made *before* each observation arrives.

        ``result[k]`` is the forecast for ``observations[k]`` given
        everything up to k-1; result[0] is NaN (nothing to go on).
        """
        forecasts = np.full(len(observations), np.nan)
        for k, value in enumerate(observations):
            if k > 0:
                forecasts[k] = self.forecast()
            self.observe(value)
        return forecasts


def naive_seasonal_forecast(history: Sequence[float], period: int) -> float:
    """Baseline used in the ablation: same window last week."""
    if not history:
        raise ValueError("history must be non-empty")
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(history) >= period:
        return float(history[-period])
    return float(history[-1])


def fit_seasonal_arima(history: Sequence[float], period: int,
                       grid: Sequence[float] = (
                           -0.6, -0.3, 0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8),
                       ) -> SeasonalArima:
    """Grid-search (theta, Theta) minimising one-step squared error.

    Conditional-sum-of-squares on the training series; returns a fresh
    forecaster primed with the full history.
    """
    history = [float(v) for v in history]
    if len(history) <= period + 1:
        raise ValueError(
            f"need more than period+1={period + 1} observations, got {len(history)}")
    best: tuple[float, float, float] | None = None  # (sse, theta, Theta)
    for theta in grid:
        for seasonal_theta in grid:
            model = SeasonalArima(period, theta, seasonal_theta)
            forecasts = model.forecast_series(history)
            errors = np.asarray(history)[period + 1:] - forecasts[period + 1:]
            sse = float(np.sum(errors ** 2))
            if best is None or sse < best[0]:
                best = (sse, theta, seasonal_theta)
    assert best is not None
    fitted = SeasonalArima(period, best[1], best[2])
    fitted.forecast_series(history)  # prime residual state
    return fitted
