"""Workload substrate: games, churn, populations."""

from .churn import (
    DayPlans,
    DurationMixture,
    StartTimeModel,
    sample_day_plans,
)
from .games import GAME_CATALOGUE, Game, game_for_level, random_codes
from .population import Population, build_population, choose_game

__all__ = [
    "DayPlans",
    "DurationMixture",
    "StartTimeModel",
    "sample_day_plans",
    "GAME_CATALOGUE",
    "Game",
    "game_for_level",
    "random_codes",
    "Population",
    "build_population",
    "choose_game",
]
