"""Dynamic supernode provisioning — §3.5, Eqs. 15–16.

Before peak hours the provider forecasts the player count with the
seasonal ARIMA model (Eq. 14) and pre-deploys::

    N_s^t = (1 + epsilon) * N_hat_t / C_hat                       (15)

supernodes, where ``C_hat`` is the average supernode capacity.  Which
candidates get deployed follows the popularity preference (Eq. 16):
ranked by the number of players they supported in the previous slot,
candidate at rank j is selected with probability proportional to 1/j —
supernodes in player-dense areas keep getting picked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..forecast.arima import SeasonalArima
from .columns import SupernodePool

__all__ = ["required_supernodes", "rank_preference_selection",
           "choose_replacements", "Provisioner"]


def required_supernodes(predicted_players: float, average_capacity: float,
                        epsilon: float = 0.2) -> int:
    """Eq. 15: supernodes needed for a predicted population."""
    if predicted_players < 0:
        raise ValueError("predicted_players must be non-negative")
    if average_capacity <= 0:
        raise ValueError("average_capacity must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return int(np.ceil((1.0 + epsilon) * predicted_players / average_capacity))


def rank_preference_selection(ranked_candidates: list[int], count: int,
                              rng: np.random.Generator) -> list[int]:
    """Eq. 16: pick ``count`` candidates with P_j proportional to 1/rank.

    ``ranked_candidates`` must already be ordered by descending previous
    support (rank 1 first).  Selection is without replacement: weights
    renormalise as candidates are taken.  If ``count`` covers everyone,
    all candidates are returned.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    n = len(ranked_candidates)
    if count >= n:
        return list(ranked_candidates)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    probabilities = weights / weights.sum()
    picks = rng.choice(n, size=count, replace=False, p=probabilities)
    return [ranked_candidates[int(i)] for i in sorted(picks)]


def choose_replacements(pool: SupernodePool, excluded_ids: set[int],
                        count: int, rng: np.random.Generator) -> list[int]:
    """Pick replacement capacity after a confirmed domain loss.

    Candidates are the idle pool — offline nodes that did not fail
    today (``excluded_ids``); a node the outage itself killed must not
    resurrect as its own replacement.  Ranking and selection follow
    the same 1/rank popularity preference as scheduled provisioning
    (Eq. 16), so healing favours player-dense areas.  Returns fewer
    than ``count`` (possibly none) when the idle pool is thin.
    """
    if count <= 0:
        return []
    candidates = [sid for sid in np.flatnonzero(~pool.online).tolist()
                  if sid not in excluded_ids]
    if not candidates:
        return []
    return rank_preference_selection(
        _by_support(pool, candidates), count, rng)


def _by_support(pool: SupernodePool, ids: list[int]) -> list[int]:
    """``ids`` by descending lifetime support; ties keep their order."""
    supported = pool.supported_total.tolist()
    return sorted(ids, key=lambda sid: -supported[sid])


@dataclass
class Provisioner:
    """Forecast-driven supernode reservation over the week's windows.

    Observes the player count once per window (``window_hours``), keeps
    a seasonal ARIMA per-window forecaster (season = one week of
    windows) and answers "how many supernodes should be live next
    window, and which".
    """

    average_capacity: float
    epsilon: float = 0.2
    window_hours: int = 4
    theta: float = 0.2
    seasonal_theta: float = 0.2
    minimum_supernodes: int = 1
    _model: SeasonalArima = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.window_hours < 1 or 24 % self.window_hours != 0:
            raise ValueError("window_hours must divide 24")
        period = 7 * 24 // self.window_hours  # windows per week
        self._model = SeasonalArima(period, self.theta, self.seasonal_theta)

    @property
    def ready(self) -> bool:
        """True once the forecaster has a full season of observations."""
        return self._model.ready

    @property
    def windows_per_week(self) -> int:
        return 7 * 24 // self.window_hours

    def observe(self, player_count: float) -> None:
        """Record the realised player count of the closing window."""
        self._model.observe(player_count)

    def forecast_players(self) -> float:
        """Predicted player count for the next window (Eq. 14)."""
        return self._model.forecast()

    def target_supernodes(self) -> int:
        """Eq. 15 applied to the next window's forecast."""
        predicted = self.forecast_players()
        return max(self.minimum_supernodes,
                   required_supernodes(predicted, self.average_capacity,
                                       self.epsilon))

    def choose_deployment(self, pool: SupernodePool, count: int,
                          rng: np.random.Generator) -> list[int]:
        """Eq. 16 preference selection over every pool row."""
        return rank_preference_selection(
            _by_support(pool, list(range(len(pool)))), count, rng)
