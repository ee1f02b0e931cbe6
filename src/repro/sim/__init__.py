"""Simulation substrate: discrete-event engine, cycle harness, RNG."""

from .engine import EmptySchedule, Environment, Event, Process, Timeout
from .resources import Release, Request, Resource
from .cycles import PAPER_SCHEDULE, Clock, CycleScheduler, Schedule
from .rng import EmpiricalDistribution, RngFactory, pareto_capacities, powerlaw_counts

__all__ = [
    "EmptySchedule",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Release",
    "Request",
    "Resource",
    "PAPER_SCHEDULE",
    "Clock",
    "CycleScheduler",
    "Schedule",
    "EmpiricalDistribution",
    "RngFactory",
    "pareto_capacities",
    "powerlaw_counts",
]
