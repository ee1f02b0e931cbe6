"""Simulation substrate: the cycle schedule and seeded RNG streams."""

from .cycles import PAPER_SCHEDULE, Schedule
from .rng import EmpiricalDistribution, RngFactory, pareto_capacities, powerlaw_counts

__all__ = [
    "PAPER_SCHEDULE",
    "Schedule",
    "EmpiricalDistribution",
    "RngFactory",
    "pareto_capacities",
    "powerlaw_counts",
]
