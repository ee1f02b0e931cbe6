"""Declarative scenario DSL: schema, built-in library, compiler, runner.

A scenario is one versioned JSON/TOML document describing a whole
experiment — population and diurnal shape, game mix and flash crowds,
testbed/variant infrastructure, a fault plan (inline or by reference),
streaming constraints and economics knobs.  Its population, workload
and streaming sections parse straight into one
:class:`~repro.workload.overrides.WorkloadOverrides` value (workload
overrides and flash crowds), which that module also validates.  The
compiler lowers the scenario onto one
:class:`~repro.core.config.SystemConfig` whose ``workload`` is that
value; the runner executes it and emits a JSON report.  See DESIGN.md
§16 and ``python -m repro scenario list``.

This package namespace is foundation-rank (schema/library only);
the ``compile``/``run`` submodules sit at experiments rank and must be
imported explicitly.
"""

from .library import (BUILTIN_SCENARIOS, get_scenario, resolve,
                      scenario_names)
from .schema import (SCHEMA_VERSION, SECTION_OF, EconomicsSpec,
                     InfrastructureSpec, Scenario, ScheduleSpec,
                     load_scenario)

__all__ = [
    "SCHEMA_VERSION", "SECTION_OF", "Scenario", "InfrastructureSpec",
    "EconomicsSpec", "ScheduleSpec", "load_scenario",
    "BUILTIN_SCENARIOS", "scenario_names", "get_scenario", "resolve",
]
