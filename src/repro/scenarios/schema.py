"""The versioned declarative scenario schema (DESIGN.md §16).

A *scenario* is one JSON (or TOML) document that composes everything a
run needs — population shape, workload mix, infrastructure/variant,
faults, streaming constraints and economics knobs — the workload-library
answer to the ROADMAP's "as many scenarios as you can imagine".  This
module is the pure data layer: frozen section dataclasses, strict
``from_dict`` parsing in the :meth:`repro.faults.plan.FaultPlan.from_dict`
style (unknown keys rejected with the valid list, every error prefixed
by its section path, list entries by index), and an exact
``from_dict(to_dict(s)) == s`` round trip for every scenario.

Compilation to a runnable :class:`~repro.core.config.SystemConfig`
lives in :mod:`repro.scenarios.compile` (an experiments-rank module);
this module imports only foundation layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ..faults.plan import FaultPlan
from ..streaming.adaptation import clamped_ladder
from ..workload.churn import DurationMixture
from ..workload.games import GAME_CATALOGUE

__all__ = ["SCHEMA_VERSION", "SCENARIO_VARIANTS", "TESTBED_NAMES",
           "PopulationSpec", "FlashCrowdSpec", "WorkloadSpec",
           "InfrastructureSpec", "StreamingSpec", "EconomicsSpec",
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

_GAME_NAMES = tuple(game.name for game in GAME_CATALOGUE)


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
# sections
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PopulationSpec:
    """Population size, participation and diurnal/timezone shape."""

    #: Player count (overrides the testbed's); None keeps the testbed's.
    players: int | None = None
    #: Daily participant cap (``SystemConfig.workload``).
    daily_participants: int | None = None
    #: Day-of-week participation multipliers (7 entries, the
    #: ``forecast.diurnal`` weekly shape).
    weekly_weights: tuple[float, ...] | None = None
    #: Per-region start-subcycle shifts (timezone profile), one entry
    #: per datacenter region, cycled when shorter.
    start_offsets: tuple[int, ...] | None = None
    #: Share of starts outside the evening peak (``workload.churn``).
    offpeak_share: float | None = None

    _KEYS = ("players", "daily_participants", "weekly_weights",
             "start_offsets", "offpeak_share")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PopulationSpec":
        section = "population"
        _require_keys(section, payload, cls._KEYS)
        weights = payload.get("weekly_weights")
        if weights is not None:
            if len(weights) != 7:
                raise ValueError(f"{section}: weekly_weights needs 7 "
                                 f"entries (one per weekday), got "
                                 f"{len(weights)}")
            if any(w <= 0 for w in weights):
                raise ValueError(f"{section}: weekly_weights must all be "
                                 f"positive")
            weights = tuple(float(w) for w in weights)
        offsets = payload.get("start_offsets")
        if offsets is not None:
            bad = [o for o in offsets
                   if not isinstance(o, int) or isinstance(o, bool)
                   or o < 0]
            if bad or not offsets:
                raise ValueError(f"{section}: start_offsets must be a "
                                 f"non-empty list of non-negative "
                                 f"integer subcycle shifts, got "
                                 f"{list(offsets)!r}")
            offsets = tuple(int(o) for o in offsets)
        offpeak = payload.get("offpeak_share")
        if offpeak is not None and not 0 <= offpeak <= 1:
            raise ValueError(f"{section}: offpeak_share must lie in "
                             f"[0, 1], got {offpeak}")
        return cls(
            players=_opt_positive_int(section, "players",
                                      payload.get("players")),
            daily_participants=_opt_positive_int(
                section, "daily_participants",
                payload.get("daily_participants")),
            weekly_weights=weights,
            start_offsets=offsets,
            offpeak_share=None if offpeak is None else float(offpeak))

    def to_dict(self) -> dict:
        out: dict = {}
        if self.players is not None:
            out["players"] = self.players
        if self.daily_participants is not None:
            out["daily_participants"] = self.daily_participants
        if self.weekly_weights is not None:
            out["weekly_weights"] = list(self.weekly_weights)
        if self.start_offsets is not None:
            out["start_offsets"] = list(self.start_offsets)
        if self.offpeak_share is not None:
            out["offpeak_share"] = self.offpeak_share
        return out


@dataclass(frozen=True)
class FlashCrowdSpec:
    """One scripted join spike (an esports final, a launch event)."""

    day: int
    subcycle: int
    players: int
    duration_hours: float = 2.0
    #: Game the crowd plays; None draws per-player from the day's mix.
    game: str | None = None

    _KEYS = ("day", "subcycle", "players", "duration_hours", "game")

    @classmethod
    def from_dict(cls, section: str, payload: Mapping) -> "FlashCrowdSpec":
        _require_keys(section, payload, cls._KEYS)
        for required in ("day", "subcycle", "players"):
            if required not in payload:
                raise ValueError(f"{section}: missing required key "
                                 f"{required!r}")
        day = payload["day"]
        if not isinstance(day, int) or isinstance(day, bool) or day < 0:
            raise ValueError(f"{section}: day must be a non-negative "
                             f"integer, got {day!r}")
        subcycle = payload["subcycle"]
        if not isinstance(subcycle, int) or subcycle < 1:
            raise ValueError(f"{section}: subcycle is 1-based, got "
                             f"{subcycle!r}")
        game = payload.get("game")
        if game is not None and game not in _GAME_NAMES:
            raise ValueError(f"{section}: unknown game {game!r}; one of "
                             f"{sorted(_GAME_NAMES)}")
        return cls(
            day=day, subcycle=subcycle,
            players=_opt_positive_int(section, "players",
                                      payload["players"]),
            duration_hours=_opt_positive_float(
                section, "duration_hours",
                payload.get("duration_hours", 2.0)),
            game=game)

    def to_dict(self) -> dict:
        out = {"day": self.day, "subcycle": self.subcycle,
               "players": self.players,
               "duration_hours": self.duration_hours}
        if self.game is not None:
            out["game"] = self.game
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """Game mix, play-duration mixture and scripted flash crowds."""

    #: Per-game sampling weights (replaces the social choice rule).
    game_weights: tuple[tuple[str, float], ...] | None = None
    #: (short, medium, long) daily play-duration shares, summing to 1.
    duration_shares: tuple[float, float, float] | None = None
    flash_crowds: tuple[FlashCrowdSpec, ...] = ()

    _KEYS = ("game_weights", "duration_shares", "flash_crowds")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadSpec":
        section = "workload"
        _require_keys(section, payload, cls._KEYS)
        weights = payload.get("game_weights")
        if weights is not None:
            unknown = sorted(set(weights) - set(_GAME_NAMES))
            if unknown:
                raise ValueError(
                    f"{section}.game_weights: unknown games {unknown}; "
                    f"valid games: {sorted(_GAME_NAMES)}")
            if not weights or all(w <= 0 for w in weights.values()):
                raise ValueError(f"{section}.game_weights: at least one "
                                 f"game needs positive weight")
            if any(w < 0 for w in weights.values()):
                raise ValueError(f"{section}.game_weights: weights must "
                                 f"be non-negative")
            # Canonical catalogue order makes the round trip exact.
            weights = tuple((name, float(weights[name]))
                            for name in _GAME_NAMES if name in weights)
        shares = payload.get("duration_shares")
        if shares is not None:
            if len(shares) != 3:
                raise ValueError(f"{section}: duration_shares needs 3 "
                                 f"entries (short, medium, long), got "
                                 f"{len(shares)}")
            shares = tuple(float(s) for s in shares)
            # DurationMixture re-validates; surface its message with
            # the section prefix so the author sees where to fix it.
            try:
                DurationMixture(*shares)
            except ValueError as exc:
                raise ValueError(f"{section}.duration_shares: {exc}") \
                    from None
        crowds = []
        for i, entry in enumerate(payload.get("flash_crowds", ())):
            if not isinstance(entry, Mapping):
                raise ValueError(f"{section}.flash_crowds[{i}]: must be "
                                 f"an object")
            crowds.append(FlashCrowdSpec.from_dict(
                f"{section}.flash_crowds[{i}]", entry))
        return cls(game_weights=weights, duration_shares=shares,
                   flash_crowds=tuple(crowds))

    def to_dict(self) -> dict:
        out: dict = {}
        if self.game_weights is not None:
            out["game_weights"] = dict(self.game_weights)
        if self.duration_shares is not None:
            out["duration_shares"] = list(self.duration_shares)
        if self.flash_crowds:
            out["flash_crowds"] = [crowd.to_dict()
                                   for crowd in self.flash_crowds]
        return out


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
        out: dict = {}
        if self.testbed != "peersim":
            out["testbed"] = self.testbed
        if self.scale != 0.002:
            out["scale"] = self.scale
        if self.variant != "CloudFog/A":
            out["variant"] = self.variant
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        return out


@dataclass(frozen=True)
class StreamingSpec:
    """Bandwidth caps and quality-ladder constraints."""

    #: Highest quality-ladder level any session may stream (1-based).
    quality_ceiling: int | None = None
    #: Cap every player's downlink at this rate (thin mobile clients).
    downlink_cap_mbps: float | None = None
    #: Force §3.3 receiver-driven adaptation on/off (None = variant's).
    rate_adaptation: bool | None = None

    _KEYS = ("quality_ceiling", "downlink_cap_mbps", "rate_adaptation")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StreamingSpec":
        section = "streaming"
        _require_keys(section, payload, cls._KEYS)
        ceiling = payload.get("quality_ceiling")
        if ceiling is not None:
            if not isinstance(ceiling, int) or isinstance(ceiling, bool):
                raise ValueError(f"{section}: quality_ceiling must be an "
                                 f"integer ladder level, got {ceiling!r}")
            try:
                clamped_ladder(ceiling)
            except ValueError as exc:
                raise ValueError(f"{section}: {exc}") from None
        adaptation = payload.get("rate_adaptation")
        if adaptation is not None and not isinstance(adaptation, bool):
            raise ValueError(f"{section}: rate_adaptation must be a "
                             f"boolean, got {adaptation!r}")
        return cls(
            quality_ceiling=ceiling,
            downlink_cap_mbps=_opt_positive_float(
                section, "downlink_cap_mbps",
                payload.get("downlink_cap_mbps")),
            rate_adaptation=adaptation)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.quality_ceiling is not None:
            out["quality_ceiling"] = self.quality_ceiling
        if self.downlink_cap_mbps is not None:
            out["downlink_cap_mbps"] = self.downlink_cap_mbps
        if self.rate_adaptation is not None:
            out["rate_adaptation"] = self.rate_adaptation
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
        out: dict = {}
        if self.days is not None:
            out["days"] = self.days
        if self.warmup_days is not None:
            out["warmup_days"] = self.warmup_days
        return out


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
    population: PopulationSpec = field(default_factory=PopulationSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    infrastructure: InfrastructureSpec = field(
        default_factory=InfrastructureSpec)
    #: Inline fault plan, or a ``faults = {"ref": path}`` file reference
    #: resolved relative to the scenario file at compile time.
    faults: FaultPlan | None = None
    faults_ref: str | None = None
    streaming: StreamingSpec = field(default_factory=StreamingSpec)
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
        for section in ("population", "workload", "infrastructure",
                        "streaming", "economics", "schedule"):
            value = payload.get(section)
            if value is not None and not isinstance(value, Mapping):
                raise ValueError(f"{section}: must be an object")
        return cls(
            name=payload["name"],
            description=str(payload.get("description", "")),
            version=payload.get("version", SCHEMA_VERSION),
            seed=seed,
            population=PopulationSpec.from_dict(
                payload.get("population", {})),
            workload=WorkloadSpec.from_dict(payload.get("workload", {})),
            infrastructure=InfrastructureSpec.from_dict(
                payload.get("infrastructure", {})),
            faults=faults,
            faults_ref=faults_ref,
            streaming=StreamingSpec.from_dict(
                payload.get("streaming", {})),
            economics=EconomicsSpec.from_dict(
                payload.get("economics", {})),
            schedule=ScheduleSpec.from_dict(payload.get("schedule", {})))

    def to_dict(self) -> dict:
        out: dict = {"version": self.version, "name": self.name}
        if self.description:
            out["description"] = self.description
        if self.seed:
            out["seed"] = self.seed
        for section in ("population", "workload", "infrastructure",
                        "streaming", "economics", "schedule"):
            payload = getattr(self, section).to_dict()
            if payload:
                out[section] = payload
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        elif self.faults_ref is not None:
            out["faults"] = {"ref": self.faults_ref}
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


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
