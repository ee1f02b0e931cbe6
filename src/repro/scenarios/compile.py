"""Compile a declarative :class:`~repro.scenarios.schema.Scenario` into
runnable pieces: a :class:`~repro.core.config.SystemConfig` and the run
length.

The pipeline (DESIGN.md §16)::

    Scenario --compile--> (SystemConfig, days)
                              |
                   run_config / run_sharded_config

Everything scenario-specific rides in the config: testbed, variant,
faults, schedule and strategy flags, plus the workload overrides
(``SystemConfig.workload``: participation, game mix, timezone offsets,
quality ceiling, downlink cap and the flash crowds, which the built
state installs as ``SUBCYCLE_STAGES`` hooks).  A resumed or sharded run
therefore rebuilds the whole scenario from the config alone.

Experiments-rank module: imports ``repro.experiments`` freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

from ..core.config import SystemConfig
from ..experiments.runner import VARIANTS, variant_config
from ..experiments.testbeds import Testbed, peersim, planetlab
from ..faults.plan import load_fault_plan
from ..sim.cycles import Schedule
from .schema import SCENARIO_VARIANTS, Scenario

__all__ = ["CompiledScenario", "compile_scenario"]

assert set(SCENARIO_VARIANTS) == set(VARIANTS), \
    "schema.SCENARIO_VARIANTS drifted from experiments.runner.VARIANTS"

_TESTBEDS = {"peersim": peersim, "planetlab": planetlab}

#: Config field -> its resolved type, for the override checks.
_CONFIG_TYPES = get_type_hints(SystemConfig)

#: Config fields that another part of the document sets, so
#: ``infrastructure.overrides`` may not.
_OWNED = {"num_players": "population.players", "seed": "seed",
          "schedule": "schedule section", "fault_plan": "faults section",
          "workload": "population, workload and streaming sections"}


@dataclass(frozen=True)
class CompiledScenario:
    """Everything a runner needs to execute one scenario."""

    scenario: Scenario
    testbed: Testbed
    config: SystemConfig
    days: int
    #: Always None: the config carries the whole scenario.  Kept only
    #: for callers that still pass it on as a ``configure`` hook.
    configure = None

    @property
    def label(self) -> str:
        return f"scenario-{self.scenario.name}"


def _build_schedule(scenario: Scenario, hours_default: Schedule
                    ) -> Schedule | None:
    """The schedule override, or None to keep the variant's default.

    An explicit ``schedule.days`` shrinks the warmup to fit (leaving at
    least one measured day) unless ``warmup_days`` is stated too.
    """
    spec = scenario.schedule
    if spec.days is None and spec.warmup_days is None:
        return None
    days = spec.days if spec.days is not None else hours_default.days
    warmup = spec.warmup_days
    if warmup is None:
        warmup = min(hours_default.warmup_days, days - 1)
    if warmup >= days:
        raise ValueError(
            f"schedule: warmup_days ({warmup}) must leave at least one "
            f"measured day of {days}")
    return replace(hours_default, days=days, warmup_days=warmup)


def _check_override_type(key: str, value) -> None:
    """Refuse an override whose value the config field cannot hold.

    A document's scalars arrive untyped; ``SystemConfig`` checks ranges,
    not types, so a string count would fail deep in its validation.
    Integers may stand in for floats; booleans are not integers here.
    """
    hint = _CONFIG_TYPES[key]
    allowed = get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    if (isinstance(value, bool) and bool not in allowed) \
            or not isinstance(value, allowed):
        expected = " or ".join(
            "None" if kind is type(None) else kind.__name__
            for kind in allowed)
        raise ValueError(f"infrastructure.overrides: {key} must be "
                         f"{expected}, got {value!r}")


def _override_range_error(exc: ValueError, overrides) -> ValueError:
    """Put the document path on a ``SystemConfig`` range error.

    The config's checks name the field first (``num_supernodes must be
    non-negative``); when that field came from
    ``infrastructure.overrides`` the error is re-raised under its path.
    Any other error passes through unchanged.
    """
    message = str(exc)
    for key in re.findall(r"\w+", message):
        if key in overrides:
            return ValueError(f"infrastructure.overrides.{key}: {message}")
    return exc


def _check_flash_crowds(config: SystemConfig) -> None:
    """Refuse a flash crowd the compiled schedule can never reach.

    Crowd coordinates are checked for shape when the workload is built;
    only here, against the run's days and subcycles, can a crowd past
    the last day or hour be seen.
    """
    schedule = config.schedule
    for index, crowd in enumerate(config.workload.flash_crowds):
        path = f"workload.flash_crowds[{index}]"
        if crowd.day >= schedule.days:
            raise ValueError(
                f"{path}.day: {crowd.day} is past the last day "
                f"({schedule.days - 1}) of a {schedule.days}-day run")
        if crowd.subcycle > schedule.hours_per_day:
            raise ValueError(
                f"{path}.subcycle: {crowd.subcycle} is past the last "
                f"subcycle of a {schedule.hours_per_day}-hour day")


def compile_scenario(scenario: Scenario,
                     base_dir: str | Path | None = None,
                     seed: int | None = None) -> CompiledScenario:
    """Compile ``scenario`` into a config and a run length.

    ``base_dir`` resolves a ``faults = {"ref": ...}`` file reference
    (defaults to the working directory); ``seed`` overrides the
    scenario's own.  Raises ``ValueError`` with the offending section
    named for anything that only becomes checkable against the concrete
    testbed (fault targets out of range fail later, at system
    construction, exactly like hand-built configs).
    """
    infra = scenario.infrastructure
    testbed = _TESTBEDS[infra.testbed](infra.scale)
    overrides = dict(infra.overrides)
    for key in sorted(overrides):
        if key not in _CONFIG_TYPES:
            raise ValueError(
                f"infrastructure.overrides: unknown key {key!r}; valid "
                f"keys: {sorted(set(_CONFIG_TYPES) - set(_OWNED))}")
        if key in _OWNED:
            raise ValueError(f"infrastructure.overrides: {key!r} is set "
                             f"by the document's {_OWNED[key]}")
        _check_override_type(key, overrides[key])
    if scenario.players is not None:
        overrides["num_players"] = scenario.players

    faults = scenario.faults
    if scenario.faults_ref is not None:
        ref = Path(scenario.faults_ref)
        if not ref.is_absolute():
            ref = Path(base_dir or ".") / ref
        try:
            faults = load_fault_plan(ref)
        except (OSError, ValueError) as exc:
            raise ValueError(f"faults.ref: cannot load {ref}: {exc}") \
                from None
    if faults is not None:
        overrides["fault_plan"] = faults

    schedule = _build_schedule(scenario, Schedule())
    if schedule is not None:
        overrides["schedule"] = schedule

    # NB: in sharded runs every partition carries this workload, so a
    # flash-crowd spike injects its player count into *each* region —
    # fixed partitions keep that deterministic across shard counts.
    overrides["workload"] = scenario.workload

    try:
        config = variant_config(infra.variant, testbed,
                                seed if seed is not None else scenario.seed,
                                **overrides)
    except ValueError as exc:
        raise _override_range_error(exc, dict(infra.overrides)) from None
    if scenario.rate_adaptation is not None:
        config = config.with_(strategies=replace(
            config.strategies, rate_adaptation=scenario.rate_adaptation))
    _check_flash_crowds(config)
    return CompiledScenario(scenario=scenario, testbed=testbed,
                            config=config, days=config.schedule.days)
