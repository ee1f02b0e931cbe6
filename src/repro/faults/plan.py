"""Deterministic, seedable fault schedules.

A :class:`FaultPlan` is a frozen list of :class:`FaultEvent`\\ s pinned
to (day, subcycle) instants of the §4.1 cycle schedule.  The system
consults the plan inside its subcycle sweep, so faults land *mid-day*
— sessions are live when their supernode dies, which is exactly the
churn regime §3.2.2's sub-second-migration claim is about.

Four event kinds model the volatility of consumer-grade fog nodes:

``crash``
    ``count`` live supernodes (or one specific ``supernode_id``) go
    offline instantly.  Connected players are displaced and walk the
    degradation ladder (candidate list → one selection round → cloud).
``flaky``
    A supernode silently throttles its upload to ``severity`` of
    nominal for the rest of the day — the §4.1 misbehaviour model,
    injected on demand instead of by coin flip.
``degrade_link``
    Transient last-mile trouble: every active session (or only those
    on ``supernode_id``) gains ``extra_ms`` of one-way path latency
    for the remainder of the session.
``lose_updates``
    The cloud→supernode game-state update channel drops a ``severity``
    fraction of messages for ``duration_subcycles``; fog-served
    sessions overlapping the window lose continuity proportionally.

Four more model *correlated* failure domains — the regime real
deployments die in:

``dc_outage``
    Datacenter ``datacenter`` goes dark: every live supernode homed to
    it fails at once, and cloud sessions of players homed there pay
    the re-routing latency to their second-nearest datacenter.
``regional_outage``
    A regional ISP melt: every live supernode within ``radius_km`` of
    a geographic center (explicit ``center_x_km``/``center_y_km``, or
    the coordinates of ``datacenter``) fails together.
``preempt``
    Spot-style mass preemption of ``count`` supernodes.  With
    ``warning_subcycles > 0`` the provider announces the reclaim, so
    sessions drain gracefully: detection is the cheap announced-probe
    time and no continuity penalty is charged.
``partition``
    The fog↔cloud link is severed for ``duration_subcycles``: the
    degraded-to-cloud fallback itself fails, so displaced sessions
    that cannot re-home onto a supernode queue until the link heals —
    or are shed if the window outlives them.

Plans are plain data: build them in code, load them from JSON
(``--faults scenario.json``), or generate a Poisson crash schedule
with :meth:`FaultPlan.poisson` — same seed, same schedule, always.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .detection import FailureDetector

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "AdmissionPolicy",
           "HealingPolicy", "load_fault_plan"]

#: Recognised event kinds.
FAULT_KINDS = ("crash", "flaky", "degrade_link", "lose_updates",
               "dc_outage", "regional_outage", "preempt", "partition")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault at a (day, subcycle) instant."""

    day: int
    subcycle: int
    kind: str
    #: ``crash``: how many random live supernodes fail.
    count: int = 1
    #: Target a specific supernode instead of sampling one.
    supernode_id: int | None = None
    #: ``flaky``: throttle factor; ``lose_updates``: loss fraction.
    severity: float = 0.5
    #: Window length for windowed kinds (``lose_updates``).
    duration_subcycles: int = 1
    #: ``degrade_link``: one-way latency added to affected sessions.
    extra_ms: float = 0.0
    #: ``dc_outage``: the failing datacenter; ``regional_outage``: the
    #: datacenter whose coordinates center the blast radius (when no
    #: explicit center is given).
    datacenter: int | None = None
    #: ``regional_outage``: explicit blast-radius center (km grid).
    center_x_km: float | None = None
    center_y_km: float | None = None
    #: ``regional_outage``: blast radius around the center.
    radius_km: float | None = None
    #: ``preempt``: announced drain window before the reclaim lands.
    warning_subcycles: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}")
        if self.day < 0:
            raise ValueError("day must be non-negative")
        if self.subcycle < 1:
            raise ValueError("subcycle is 1-based and must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.supernode_id is not None and self.supernode_id < 0:
            raise ValueError("supernode_id must be non-negative")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must lie in [0, 1]")
        if self.duration_subcycles < 1:
            raise ValueError("duration_subcycles must be >= 1")
        if self.extra_ms < 0:
            raise ValueError("extra_ms must be non-negative")
        if self.warning_subcycles < 0:
            raise ValueError("warning_subcycles must be non-negative")
        if self.datacenter is not None and self.datacenter < 0:
            raise ValueError("datacenter must be non-negative")
        if self.radius_km is not None and self.radius_km <= 0:
            raise ValueError("radius_km must be positive")
        if self.kind == "dc_outage" and self.datacenter is None:
            raise ValueError("dc_outage requires a datacenter")
        if self.kind == "regional_outage":
            if self.radius_km is None:
                raise ValueError("regional_outage requires radius_km")
            has_center = (self.center_x_km is not None
                          and self.center_y_km is not None)
            if not has_center and self.datacenter is None:
                raise ValueError(
                    "regional_outage requires either center_x_km/"
                    "center_y_km or a datacenter to center on")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure on *new* cloud joins when capacity is saturated.

    With no policy, every join the fog cannot host falls back to the
    cloud unconditionally.  A policy sheds joins instead: during an
    active fog↔cloud ``partition`` window (``shed_during_partition``)
    or once the day's committed concurrent cloud sessions would exceed
    ``max_cloud_sessions``.  Shed joins are counted in
    ``FaultSummary.joins_shed`` — they never become sessions.
    """

    max_cloud_sessions: int | None = None
    shed_during_partition: bool = True

    def __post_init__(self) -> None:
        if self.max_cloud_sessions is not None \
                and self.max_cloud_sessions < 0:
            raise ValueError("max_cloud_sessions must be non-negative")


@dataclass(frozen=True)
class HealingPolicy:
    """Self-healing re-provisioning after a confirmed domain loss.

    ``delay_subcycles`` after a correlated outage (dc/regional/preempt)
    is detector-confirmed, the provisioner brings replacement capacity
    online: ``replacement_share`` of the lost node count, drawn from
    the offline non-failed pool by rank preference (Eq. 16).
    """

    delay_subcycles: int = 2
    replacement_share: float = 1.0

    def __post_init__(self) -> None:
        if self.delay_subcycles < 1:
            raise ValueError("delay_subcycles must be >= 1")
        if not 0.0 < self.replacement_share <= 1.0:
            raise ValueError("replacement_share must lie in (0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A full fault schedule plus the resilience parameters to run it.

    ``detector`` configures the failure-detection timeout model;
    ``ambient_loss_boost`` adds a constant packet-loss floor to the
    whole transport substrate (an always-degraded network, independent
    of scheduled events); ``transient_refusal_prob`` makes a
    fault-driven migration's selection-round handshake time out with
    that probability (churn turbulence), degrading the player to the
    cloud.  ``admission`` and ``healing`` opt in to join backpressure
    and self-healing re-provisioning; both default to off (None) so
    existing plans keep their exact behaviour.
    """

    events: tuple[FaultEvent, ...] = ()
    detector: FailureDetector = field(default_factory=FailureDetector)
    ambient_loss_boost: float = 0.0
    transient_refusal_prob: float = 0.0
    admission: AdmissionPolicy | None = None
    healing: HealingPolicy | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ambient_loss_boost < 0.5:
            raise ValueError("ambient_loss_boost must lie in [0, 0.5)")
        if not 0.0 <= self.transient_refusal_prob < 1.0:
            raise ValueError("transient_refusal_prob must lie in [0, 1)")
        windows: dict[int, list[tuple[int, int, FaultEvent]]] = {}
        for event in self.events:
            if event.kind == "partition":
                windows.setdefault(event.day, []).append(
                    (event.subcycle,
                     event.subcycle + event.duration_subcycles - 1, event))
        for day, spans in windows.items():
            spans.sort()
            for (s0, e0, _), (s1, _, _) in zip(spans, spans[1:]):
                if s1 <= e0:
                    raise ValueError(
                        f"overlapping partition windows on day {day}: "
                        f"subcycles {s0}-{e0} and a second window "
                        f"starting at {s1}; merge them into one event")

    def validate_for(self, hours_per_day: int,
                     num_datacenters: int) -> None:
        """Reject targets that fall outside one concrete system.

        Called when a system adopts the plan, so a scenario authored
        against the wrong topology fails at construction with an
        actionable message instead of deep inside the sweep.
        """
        for i, event in enumerate(self.events):
            if event.subcycle > hours_per_day:
                raise ValueError(
                    f"events[{i}] ({event.kind}, day {event.day}): "
                    f"subcycle {event.subcycle} is out of range for a "
                    f"{hours_per_day}-subcycle day")
            window_end = event.subcycle + event.duration_subcycles - 1
            if window_end > hours_per_day:
                # Cycles do not wrap (§4.1): a window that overruns the
                # day would be silently truncated mid-sweep, so demand
                # the author states the in-day window explicitly.
                raise ValueError(
                    f"events[{i}] ({event.kind}, day {event.day}): "
                    f"window [{event.subcycle}, {window_end}] "
                    f"({event.duration_subcycles} subcycles) overruns "
                    f"the {hours_per_day}-subcycle day; windows never "
                    f"cross midnight — use duration_subcycles <= "
                    f"{hours_per_day - event.subcycle + 1} to run to "
                    f"the end of the day")
            if event.datacenter is not None \
                    and event.datacenter >= num_datacenters:
                raise ValueError(
                    f"events[{i}] ({event.kind}, day {event.day}): "
                    f"datacenter {event.datacenter} is out of range for "
                    f"{num_datacenters} datacenters")

    @cached_property
    def _by_instant(self) -> dict[tuple[int, int], tuple[FaultEvent, ...]]:
        table: dict[tuple[int, int], list[FaultEvent]] = {}
        for event in self.events:
            table.setdefault((event.day, event.subcycle), []).append(event)
        return {key: tuple(value) for key, value in table.items()}

    @cached_property
    def _days(self) -> frozenset[int]:
        return frozenset(event.day for event in self.events)

    def events_at(self, day: int, subcycle: int) -> tuple[FaultEvent, ...]:
        """Events scheduled for one (day, subcycle) instant."""
        return self._by_instant.get((day, subcycle), ())

    def has_events_on(self, day: int) -> bool:
        return day in self._days

    def __len__(self) -> int:
        return len(self.events)

    # -- generators --------------------------------------------------------
    @classmethod
    def poisson(cls, rate_per_day: float, days: int, seed: int = 0,
                hours_per_day: int = 24, kind: str = "crash",
                **event_overrides) -> "FaultPlan":
        """A seedable Poisson schedule: ~``rate_per_day`` events per day.

        Event counts are Poisson draws per day and instants are uniform
        over the subcycles, from a dedicated ``default_rng(seed)`` —
        the schedule never touches the simulation's RNG streams.
        """
        if rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        if days < 1:
            raise ValueError("days must be >= 1")
        rng = np.random.default_rng(seed)
        events = []
        for day in range(days):
            for _ in range(int(rng.poisson(rate_per_day))):
                subcycle = int(rng.integers(1, hours_per_day + 1))
                events.append(FaultEvent(day=day, subcycle=subcycle,
                                         kind=kind, **event_overrides))
        return cls(events=tuple(events))

    def with_(self, **changes) -> "FaultPlan":
        """A modified copy (mirrors SystemConfig.with_)."""
        return replace(self, **changes)

    # -- (de)serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "events": [asdict(event) for event in self.events],
            "detector": asdict(self.detector),
            "ambient_loss_boost": self.ambient_loss_boost,
            "transient_refusal_prob": self.transient_refusal_prob,
        }
        if self.admission is not None:
            data["admission"] = asdict(self.admission)
        if self.healing is not None:
            data["healing"] = asdict(self.healing)
        return data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {"events", "detector", "ambient_loss_boost",
                 "transient_refusal_prob", "admission", "healing"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        event_fields = {f.name for f in fields(FaultEvent)}
        events = []
        for i, event in enumerate(data.get("events", ())):
            if not isinstance(event, dict):
                raise ValueError(f"events[{i}] must be a JSON object")
            extra = set(event) - event_fields
            if extra:
                raise ValueError(
                    f"events[{i}] has unknown keys {sorted(extra)}; "
                    f"valid keys: {sorted(event_fields)}")
            try:
                events.append(FaultEvent(**event))
            except ValueError as exc:
                raise ValueError(f"events[{i}]: {exc}") from exc
        admission = data.get("admission")
        healing = data.get("healing")
        return cls(events=tuple(events),
                   detector=FailureDetector(**data.get("detector", {})),
                   ambient_loss_boost=float(
                       data.get("ambient_loss_boost", 0.0)),
                   transient_refusal_prob=float(
                       data.get("transient_refusal_prob", 0.0)),
                   admission=None if admission is None
                   else AdmissionPolicy(**admission),
                   healing=None if healing is None
                   else HealingPolicy(**healing))


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a ``--faults`` scenario file (JSON)."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a fault scenario must be a JSON object")
    return FaultPlan.from_dict(data)
