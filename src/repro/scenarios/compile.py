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

from dataclasses import dataclass, fields, replace
from pathlib import Path

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

_CONFIG_FIELDS = {item.name for item in fields(SystemConfig)}

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
        if key not in _CONFIG_FIELDS:
            raise ValueError(
                f"infrastructure.overrides: unknown key {key!r}; valid "
                f"keys: {sorted(_CONFIG_FIELDS - set(_OWNED))}")
        if key in _OWNED:
            raise ValueError(f"infrastructure.overrides: {key!r} is set "
                             f"by the document's {_OWNED[key]}")
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

    config = variant_config(infra.variant, testbed,
                            seed if seed is not None else scenario.seed,
                            **overrides)
    if scenario.rate_adaptation is not None:
        config = config.with_(strategies=replace(
            config.strategies, rate_adaptation=scenario.rate_adaptation))
    return CompiledScenario(scenario=scenario, testbed=testbed,
                            config=config, days=config.schedule.days)
