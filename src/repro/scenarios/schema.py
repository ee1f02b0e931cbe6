"""The versioned declarative scenario schema (DESIGN.md §16).

A *scenario* is one JSON (or TOML) document that composes everything a
run needs — population shape, workload mix, infrastructure/variant,
faults, streaming constraints and economics knobs — the workload-library
answer to the ROADMAP's "as many scenarios as you can imagine".  This
module is the pure data layer: strict ``from_dict`` parsing in the
:meth:`repro.faults.plan.FaultPlan.from_dict` style (unknown keys
rejected with the valid list, every error prefixed by its document
path, list entries by index), and an exact ``from_dict(to_dict(s)) ==
s`` round trip for every scenario.

The ``population``, ``workload`` and ``streaming`` sections parse
straight into one :class:`~repro.workload.overrides.WorkloadOverrides`
value, ``Scenario.workload``: one table, :data:`SECTION_OF`, places
each of its fields in a section, and ``repro.workload.overrides``
checks them.  The other sections (infrastructure, economics, schedule)
are frozen dataclasses here.

Compilation to a runnable :class:`~repro.core.config.SystemConfig`
lives in :mod:`repro.scenarios.compile` (an experiments-rank module);
this module imports only foundation layers.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

from ..faults.plan import FaultPlan
from ..workload.overrides import FlashCrowdStage, WorkloadOverrides

__all__ = ["SCHEMA_VERSION", "SCENARIO_VARIANTS", "TESTBED_NAMES",
           "SECTION_OF", "InfrastructureSpec", "EconomicsSpec",
           "ScheduleSpec", "Scenario", "load_scenario"]

#: The schema version this parser accepts.
SCHEMA_VERSION = 1

#: Paper variant names a scenario may target.  Mirrors
#: ``repro.experiments.runner.VARIANTS`` (asserted equal at compile
#: time) — restated here so the foundation-rank schema never imports
#: the experiments layer.
SCENARIO_VARIANTS = ("Cloud", "CDN-small", "CDN", "CloudFog/B",
                    "CloudFog/A")

#: Testbed presets of :mod:`repro.experiments.testbeds`.
TESTBED_NAMES = ("peersim", "planetlab")


def _require_keys(section: str, payload: Mapping, valid: tuple) -> None:
    unknown = sorted(set(payload) - set(valid))
    if unknown:
        raise ValueError(f"{section}: unknown keys {unknown}; "
                         f"valid keys: {sorted(valid)}")


def _opt_positive_int(section: str, name: str, value) -> int | None:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{section}: {name} must be a positive integer, "
                         f"got {value!r}")
    return value


def _opt_positive_float(section: str, name: str, value) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise ValueError(f"{section}: {name} must be a positive number, "
                         f"got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# the workload sections
# ---------------------------------------------------------------------------
#: The document section of every key the three workload sections hold,
#: in document order.  All but ``players`` and ``rate_adaptation`` are
#: :class:`~repro.workload.overrides.WorkloadOverrides` fields, which
#: parse straight into ``Scenario.workload`` and are checked there.
SECTION_OF = {
    "players": "population",
    "daily_participants": "population",
    "weekly_weights": "population",
    "start_offsets": "population",
    "offpeak_share": "population",
    "game_weights": "workload",
    "duration_shares": "workload",
    "flash_crowds": "workload",
    "quality_ceiling": "streaming",
    "downlink_cap_mbps": "streaming",
    "rate_adaptation": "streaming",
}

#: The document's sections, in document order.
_SECTIONS = ("population", "workload", "infrastructure", "streaming",
             "economics", "schedule")

#: The section keys that are ``Scenario`` fields, not workload fields.
_SCENARIO_KEYS = ("players", "rate_adaptation")

_CROWD_KEYS = tuple(item.name for item in fields(FlashCrowdStage))
_CROWD_REQUIRED = tuple(item.name for item in fields(FlashCrowdStage)
                        if item.default is MISSING)


def _flash_crowd(path: str, entry) -> FlashCrowdStage:
    if not isinstance(entry, Mapping):
        raise ValueError(f"{path}: must be an object")
    _require_keys(path, entry, _CROWD_KEYS)
    for key in _CROWD_REQUIRED:
        if key not in entry:
            raise ValueError(f"{path}.{key}: missing required key")
    try:
        return FlashCrowdStage(**entry)
    except ValueError as exc:
        raise ValueError(f"{path}.{exc}") from None


def _decode(key: str, value):
    """A document value as the ``WorkloadOverrides`` argument."""
    if key == "game_weights":
        if not isinstance(value, Mapping):
            raise ValueError(f"{key}: must be an object of per-game "
                             f"weights, got {value!r}")
        return tuple(value.items())
    if key == "flash_crowds":
        if not isinstance(value, list):
            raise ValueError(f"{key}: must be a list of crowd objects")
        return tuple(_flash_crowd(f"{key}[{i}]", entry)
                     for i, entry in enumerate(value))
    return value


def _encode(key: str, value):
    """A ``WorkloadOverrides`` value as its document form."""
    if key == "game_weights":
        return dict(value)
    if key == "flash_crowds":
        return [{name: field_value
                 for name, field_value in asdict(crowd).items()
                 if field_value is not None} for crowd in value]
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class InfrastructureSpec:
    """Which testbed/variant to deploy, plus raw config overrides."""

    testbed: str = "peersim"
    scale: float = 0.002
    variant: str = "CloudFog/A"
    #: Raw :class:`~repro.core.config.SystemConfig` keyword overrides
    #: (``num_supernodes``, ``candidate_count``, …) applied last.
    overrides: tuple[tuple[str, object], ...] = ()

    _KEYS = ("testbed", "scale", "variant", "overrides")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "InfrastructureSpec":
        section = "infrastructure"
        _require_keys(section, payload, cls._KEYS)
        testbed = payload.get("testbed", "peersim")
        if testbed not in TESTBED_NAMES:
            raise ValueError(f"{section}: unknown testbed {testbed!r}; "
                             f"one of {sorted(TESTBED_NAMES)}")
        variant = payload.get("variant", "CloudFog/A")
        if variant not in SCENARIO_VARIANTS:
            raise ValueError(f"{section}: unknown variant {variant!r}; "
                             f"one of {sorted(SCENARIO_VARIANTS)}")
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise ValueError(f"{section}: overrides must be an object "
                             f"of SystemConfig keyword arguments")
        return cls(
            testbed=testbed,
            scale=_opt_positive_float(section, "scale",
                                      payload.get("scale", 0.002)),
            variant=variant,
            overrides=tuple(sorted(overrides.items())))

    def to_dict(self) -> dict:
        out = {name: value for name in ("testbed", "scale", "variant")
               if (value := getattr(self, name)) != getattr(type(self), name)}
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out


@dataclass(frozen=True)
class EconomicsSpec:
    """§4.4 incentive/provider knobs for the run's economics report."""

    reward_per_gb: float | None = None
    electricity_usd_per_kwh: float | None = None
    revenue_per_mbps_hour: float | None = None

    _KEYS = ("reward_per_gb", "electricity_usd_per_kwh",
             "revenue_per_mbps_hour")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "EconomicsSpec":
        section = "economics"
        _require_keys(section, payload, cls._KEYS)
        return cls(
            reward_per_gb=_opt_positive_float(
                section, "reward_per_gb", payload.get("reward_per_gb")),
            electricity_usd_per_kwh=_opt_positive_float(
                section, "electricity_usd_per_kwh",
                payload.get("electricity_usd_per_kwh")),
            revenue_per_mbps_hour=_opt_positive_float(
                section, "revenue_per_mbps_hour",
                payload.get("revenue_per_mbps_hour")))

    def to_dict(self) -> dict:
        return {name: value for name in self._KEYS
                if (value := getattr(self, name)) is not None}


@dataclass(frozen=True)
class ScheduleSpec:
    """Run length; warmup defaults to leaving ≥1 measured day."""

    days: int | None = None
    warmup_days: int | None = None

    _KEYS = ("days", "warmup_days")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScheduleSpec":
        section = "schedule"
        _require_keys(section, payload, cls._KEYS)
        days = _opt_positive_int(section, "days", payload.get("days"))
        warmup = payload.get("warmup_days")
        if warmup is not None and (not isinstance(warmup, int)
                                   or isinstance(warmup, bool)
                                   or warmup < 0):
            raise ValueError(f"{section}: warmup_days must be a "
                             f"non-negative integer, got {warmup!r}")
        if days is not None and warmup is not None and warmup >= days:
            raise ValueError(f"{section}: warmup_days ({warmup}) must "
                             f"leave at least one measured day of "
                             f"{days}")
        return cls(days=days, warmup_days=warmup)

    def to_dict(self) -> dict:
        return {name: value for name in self._KEYS
                if (value := getattr(self, name)) is not None}


# ---------------------------------------------------------------------------
# the scenario document
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One fully composed, declarative experiment."""

    name: str
    description: str = ""
    version: int = SCHEMA_VERSION
    seed: int = 0
    #: ``population.players``: the player count; None keeps the
    #: testbed's.
    players: int | None = None
    #: Every workload key of the ``population``, ``workload`` and
    #: ``streaming`` sections (:data:`SECTION_OF`).
    workload: WorkloadOverrides = field(default_factory=WorkloadOverrides)
    infrastructure: InfrastructureSpec = field(
        default_factory=InfrastructureSpec)
    #: Inline fault plan, or a ``faults = {"ref": path}`` file reference
    #: resolved relative to the scenario file at compile time.
    faults: FaultPlan | None = None
    faults_ref: str | None = None
    #: ``streaming.rate_adaptation``: force §3.3 receiver-driven
    #: adaptation on or off (None keeps the variant's).
    rate_adaptation: bool | None = None
    economics: EconomicsSpec = field(default_factory=EconomicsSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)

    _KEYS = ("name", "description", "version", "seed", "population",
             "workload", "infrastructure", "faults", "streaming",
             "economics", "schedule")

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario name must be a non-empty string")
        if self.version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario version {self.version!r}; this "
                f"parser reads version {SCHEMA_VERSION}")
        if self.faults is not None and self.faults_ref is not None:
            raise ValueError("faults: give an inline plan or a ref, "
                             "not both")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        if not isinstance(payload, Mapping):
            raise ValueError("scenario must be a JSON/TOML object")
        _require_keys("scenario", payload, cls._KEYS)
        if "name" not in payload:
            raise ValueError("scenario: missing required key 'name'")
        faults = None
        faults_ref = None
        faults_payload = payload.get("faults")
        if faults_payload is not None:
            if not isinstance(faults_payload, Mapping):
                raise ValueError("faults: must be an object (inline "
                                 "fault plan or {'ref': path})")
            if set(faults_payload) == {"ref"}:
                faults_ref = str(faults_payload["ref"])
            else:
                try:
                    faults = FaultPlan.from_dict(faults_payload)
                except (TypeError, ValueError) as exc:
                    # TypeError covers events missing required keys
                    # (FaultEvent(**event) with absent positional args).
                    raise ValueError(f"faults: {exc}") from None
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"scenario: seed must be an integer, "
                             f"got {seed!r}")
        for section in _SECTIONS:
            value = payload.get(section)
            if value is not None and not isinstance(value, Mapping):
                raise ValueError(f"{section}: must be an object")
        workload = {}
        for section in ("population", "workload", "streaming"):
            body = payload.get(section, {})
            _require_keys(section, body, tuple(
                key for key, home in SECTION_OF.items() if home == section))
            # One partial value per section, so an error names its
            # document path: ``population.weekly_weights: …``.
            try:
                values = {key: _decode(key, value)
                          for key, value in body.items()
                          if key not in _SCENARIO_KEYS}
                WorkloadOverrides(**values)
            except ValueError as exc:
                raise ValueError(f"{section}.{exc}") from None
            workload.update(values)
        rate_adaptation = payload.get("streaming", {}).get(
            "rate_adaptation")
        if rate_adaptation is not None \
                and not isinstance(rate_adaptation, bool):
            raise ValueError(f"streaming: rate_adaptation must be a "
                             f"boolean, got {rate_adaptation!r}")
        return cls(
            name=payload["name"],
            description=str(payload.get("description", "")),
            version=payload.get("version", SCHEMA_VERSION),
            seed=seed,
            players=_opt_positive_int(
                "population", "players",
                payload.get("population", {}).get("players")),
            workload=WorkloadOverrides(**workload),
            infrastructure=InfrastructureSpec.from_dict(
                payload.get("infrastructure", {})),
            faults=faults,
            faults_ref=faults_ref,
            rate_adaptation=rate_adaptation,
            economics=EconomicsSpec.from_dict(
                payload.get("economics", {})),
            schedule=ScheduleSpec.from_dict(payload.get("schedule", {})))

    def to_dict(self) -> dict:
        sections: dict = {section: {} for section in _SECTIONS}
        for key, section in SECTION_OF.items():
            value = getattr(self if key in _SCENARIO_KEYS else self.workload,
                            key)
            if value is not None and value != ():
                sections[section][key] = _encode(key, value)
        for section in ("infrastructure", "economics", "schedule"):
            sections[section] = getattr(self, section).to_dict()
        out: dict = {"version": self.version, "name": self.name}
        if self.description:
            out["description"] = self.description
        if self.seed:
            out["seed"] = self.seed
        out.update((section, body) for section, body in sections.items()
                   if body)
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        elif self.faults_ref is not None:
            out["faults"] = {"ref": self.faults_ref}
        return out


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario document from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - py3.10 only
            raise ValueError(
                f"scenario {path}: .toml documents need Python 3.11+ "
                f"(tomllib); rewrite the scenario as JSON") from None

        try:
            payload = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"scenario {path}: invalid TOML: {exc}") \
                from None
    else:
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario {path}: invalid JSON: {exc}") \
                from None
    if not isinstance(payload, dict):
        raise ValueError(f"scenario {path} must be a JSON/TOML object")
    return Scenario.from_dict(payload)
