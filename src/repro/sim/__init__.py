"""Simulation substrate: discrete-event engine, cycle schedule, RNG."""

from .engine import EmptySchedule, Environment, Event, Process, Timeout
from .cycles import PAPER_SCHEDULE, Schedule
from .rng import EmpiricalDistribution, RngFactory, pareto_capacities, powerlaw_counts

__all__ = [
    "EmptySchedule",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "PAPER_SCHEDULE",
    "Schedule",
    "EmpiricalDistribution",
    "RngFactory",
    "pareto_capacities",
    "powerlaw_counts",
]
