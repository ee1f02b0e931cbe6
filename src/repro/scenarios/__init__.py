"""Declarative scenario DSL: schema, built-in library, compiler, runner.

A scenario is one versioned JSON/TOML document describing a whole
experiment — population and diurnal shape, game mix and flash crowds,
testbed/variant infrastructure, a fault plan (inline or by reference),
streaming constraints and economics knobs.  The compiler lowers it onto
one :class:`~repro.core.config.SystemConfig`, whose ``workload`` value
(:mod:`repro.workload.overrides`) carries the workload overrides and
the flash crowds; the runner executes it and emits a JSON report.  See
DESIGN.md §16 and ``python -m repro scenario list``.

This package namespace is foundation-rank (schema/library only);
the ``compile``/``run`` submodules sit at experiments rank and must be
imported explicitly.
"""

from .library import (BUILTIN_SCENARIOS, get_scenario, resolve,
                      scenario_names)
from .schema import (SCHEMA_VERSION, EconomicsSpec, FlashCrowdSpec,
                     InfrastructureSpec, PopulationSpec, Scenario,
                     ScheduleSpec, StreamingSpec, WorkloadSpec,
                     load_scenario)

__all__ = [
    "SCHEMA_VERSION", "Scenario", "PopulationSpec", "WorkloadSpec",
    "FlashCrowdSpec", "InfrastructureSpec", "StreamingSpec",
    "EconomicsSpec", "ScheduleSpec", "load_scenario",
    "BUILTIN_SCENARIOS", "scenario_names", "get_scenario", "resolve",
]
