"""Per-day / per-region telemetry time series of one run.

Every simulated day the sweep orchestrator flushes the day's session
records into the active :class:`TimeSeriesStore` (``repro.obs`` hands
out a shared :data:`NULL_TIMESERIES` no-op while observability is
disabled, so a disabled run stays bit-identical).  Each flush folds the
records into one :class:`DaySample` per region — players are grouped by
their nearest datacenter (``dc0``, ``dc1``, …) plus the synthetic
``all`` region — carrying session mix, join counts, response-latency
percentiles, continuity/satisfaction, MOS via
:class:`~repro.streaming.qoe.QoeModel`, cloud bandwidth and the day's
fault deltas (displacements, recoveries, cloud fallbacks, retries).

The store is a bounded ring (oldest days fall off past ``max_days``),
exports to JSON for run dirs and checkpoints (:meth:`TimeSeriesStore.
as_payload` / :meth:`TimeSeriesStore.load_payload` — telemetry survives
checkpoint/resume bit-identically), and mirrors the headline per-day
numbers into ``repro_day_*`` gauges on the metrics registry so the live
Prometheus endpoint (:mod:`repro.obs.server`) always shows the latest
day.

Layering: a foundation module (rank 0) — it never imports ``repro.core``
and reads session records duck-typed (any object with the
:class:`~repro.core.accounting.SessionRecord` attributes works).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = ["DaySample", "TimeSeriesStore", "NullTimeSeries",
           "NULL_TIMESERIES", "percentile", "DEFAULT_MAX_DAYS",
           "ALL_REGIONS"]

#: Ring capacity: how many trailing days the store keeps.  512 days is
#: far past any schedule the experiments run while still bounding a
#: long-lived control-plane process.
DEFAULT_MAX_DAYS = 512

#: The synthetic region aggregating every player.
ALL_REGIONS = "all"

#: Game name -> (latency requirement ms, bitrate kbps) for the MOS
#: model; unknown game names fall back to the catalogue's middle row.
#: Built lazily: the streaming/workload packages import ``repro.sim``,
#: which imports ``repro.obs`` — a module-level import here would cycle.
_GAME_QOS_CACHE: tuple[dict, tuple[float, float]] | None = None


def _game_qos() -> tuple[dict, tuple[float, float]]:
    global _GAME_QOS_CACHE
    if _GAME_QOS_CACHE is None:
        from ..workload.games import GAME_CATALOGUE

        table = {
            game.name: (game.latency_requirement_ms,
                        game.quality.bitrate_kbps)
            for game in GAME_CATALOGUE}
        middle = GAME_CATALOGUE[len(GAME_CATALOGUE) // 2]
        _GAME_QOS_CACHE = (table, (middle.latency_requirement_ms,
                                   middle.quality.bitrate_kbps))
    return _GAME_QOS_CACHE


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` in [0, 1]; returns ``None`` for an empty sequence — "no
    data", which consumers (SLO evaluation, reports, gauges) must
    treat as distinct from an actual 0.0.  A day with no recoveries
    must never masquerade as a day of instant recoveries.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class DaySample:
    """One region's telemetry for one simulated day."""

    day: int
    region: str
    sessions: int
    supernode_sessions: int
    cloud_sessions: int
    joins: int
    #: Percentile fields are ``None`` when the day had no samples to
    #: rank ("no data") — JSON null, skipped by gauges and SLOs.
    p50_response_latency_ms: float | None
    p95_response_latency_ms: float | None
    p99_response_latency_ms: float | None
    mean_continuity: float
    satisfied_ratio: float
    mean_mos: float
    min_mos: float
    cloud_bandwidth_mbps: float
    faults_displaced: int
    faults_recovered: int
    faults_degraded: int
    faults_dropped: int
    fault_retries: int
    faults_shed: int
    faults_drained: int
    joins_shed: int
    #: ``None`` when the day saw no recoveries — a fault-free day must
    #: stay distinguishable from one of instant (0 ms) recoveries.
    recovery_p95_ms: float | None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DaySample":
        return cls(**{f.name: payload[f.name]
                      for f in dataclass_fields(cls)})


#: Headline sample fields mirrored into ``repro_day_*`` gauges.
_GAUGE_FIELDS = ("sessions", "p95_response_latency_ms", "mean_continuity",
                 "satisfied_ratio", "mean_mos", "cloud_bandwidth_mbps")


class TimeSeriesStore:
    """Ring-buffered per-day / per-region sample store."""

    enabled = True

    def __init__(self, registry=None, max_days: int = DEFAULT_MAX_DAYS,
                 qoe=None) -> None:
        if max_days < 1:
            raise ValueError(f"max_days must be >= 1, got {max_days}")
        self.max_days = max_days
        self._days: deque[list[DaySample]] = deque(maxlen=max_days)
        self._registry = registry
        self._qoe = qoe  # default QoeModel built lazily (import cycle)

    def _qoe_model(self):
        if self._qoe is None:
            from ..streaming.qoe import QoeModel

            self._qoe = QoeModel()
        return self._qoe

    # -- ingest ----------------------------------------------------------
    def observe_day(self, day: int, records: Sequence,
                    region_of=None,
                    cloud_bandwidth_mbps: float = 0.0,
                    fault_deltas: Mapping[str, int] | None = None,
                    recovery_ms: Sequence[float] = ()) -> list[DaySample]:
        """Fold one day's session records into per-region samples.

        ``records`` are :class:`~repro.core.accounting.SessionRecord`
        duck-typed objects; ``region_of`` maps player id -> region index
        (the sweep passes ``state.nearest_dc``).  ``fault_deltas`` are
        the day's *deltas* of the run-wide fault accounting and
        ``recovery_ms`` the day's recovery times.  Returns the samples
        appended (the ``all`` sample first).
        """
        groups: dict[str, list] = {ALL_REGIONS: list(records)}
        if region_of is not None:
            for record in records:
                region = f"dc{int(region_of[record.player])}"
                groups.setdefault(region, []).append(record)
        deltas = dict(fault_deltas or {})
        samples = [self._build_sample(
            day, ALL_REGIONS, groups.pop(ALL_REGIONS),
            cloud_bandwidth_mbps, deltas, recovery_ms)]
        for region in sorted(groups):
            # Fault accounting is run-wide: region rows carry zeros.
            samples.append(self._build_sample(
                day, region, groups[region], 0.0, {}, ()))
        self._days.append(samples)
        self._update_gauges(samples)
        return samples

    def _build_sample(self, day, region, records, cloud_bandwidth_mbps,
                      deltas, recovery_ms) -> DaySample:
        latencies = [r.response_latency_ms for r in records]
        qos_table, fallback = _game_qos()
        qoe = self._qoe_model()
        mos_values = []
        for record in records:
            requirement, bitrate = qos_table.get(record.game, fallback)
            mos_values.append(
                qoe.session_mos(record, requirement, bitrate))
        supernode = sum(1 for r in records
                        if getattr(r.kind, "value", r.kind) == "supernode")
        cloud = sum(1 for r in records
                    if getattr(r.kind, "value", r.kind) == "cloud")
        satisfied = sum(1 for r in records if r.satisfied)
        count = len(records)
        return DaySample(
            day=day, region=region, sessions=count,
            supernode_sessions=supernode, cloud_sessions=cloud,
            joins=sum(1 for r in records
                      if r.join_latency_ms is not None),
            p50_response_latency_ms=percentile(latencies, 0.50),
            p95_response_latency_ms=percentile(latencies, 0.95),
            p99_response_latency_ms=percentile(latencies, 0.99),
            mean_continuity=(sum(r.continuity for r in records) / count
                             if count else 0.0),
            satisfied_ratio=satisfied / count if count else 0.0,
            mean_mos=sum(mos_values) / count if count else 0.0,
            min_mos=min(mos_values) if mos_values else 0.0,
            cloud_bandwidth_mbps=float(cloud_bandwidth_mbps),
            faults_displaced=int(deltas.get("displaced", 0)),
            faults_recovered=int(deltas.get("recovered", 0)),
            faults_degraded=int(deltas.get("degraded", 0)),
            faults_dropped=int(deltas.get("dropped", 0)),
            fault_retries=int(deltas.get("retries", 0)),
            faults_shed=int(deltas.get("shed", 0)),
            faults_drained=int(deltas.get("drained", 0)),
            joins_shed=int(deltas.get("joins_shed", 0)),
            recovery_p95_ms=percentile(list(recovery_ms), 0.95))

    def _update_gauges(self, samples: Iterable[DaySample]) -> None:
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        for sample in samples:
            for name in _GAUGE_FIELDS:
                value = getattr(sample, name)
                if value is None:
                    continue  # no data: leave the gauge at its last value
                registry.gauge(f"repro_day_{name}",
                               region=sample.region).set(value)

    # -- query -----------------------------------------------------------
    def __len__(self) -> int:
        """Number of days currently held."""
        return len(self._days)

    def regions(self) -> list[str]:
        seen: dict[str, None] = {}
        for day in self._days:
            for sample in day:
                seen.setdefault(sample.region)
        return sorted(seen, key=lambda r: (r != ALL_REGIONS, r))

    def samples(self, region: str | None = None) -> list[DaySample]:
        """All samples in day order, optionally for one region."""
        out = []
        for day in self._days:
            for sample in day:
                if region is None or sample.region == region:
                    out.append(sample)
        return out

    # -- persistence -----------------------------------------------------
    def as_payload(self) -> dict:
        """JSON-ready dump (checkpoints, run dirs, the live snapshot)."""
        return {"max_days": self.max_days,
                "days": [[sample.as_dict() for sample in day]
                         for day in self._days]}

    def load_payload(self, payload: Mapping) -> None:
        """Replace the held samples with a captured payload's."""
        self._days.clear()
        for day in payload.get("days", ()):
            self._days.append([DaySample.from_dict(s) for s in day])

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_payload(), indent=indent, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(indent=2) + "\n")


class NullTimeSeries:
    """No-op store handed out while observability is disabled."""

    enabled = False

    def observe_day(self, day, records, region_of=None,
                    cloud_bandwidth_mbps=0.0, fault_deltas=None,
                    recovery_ms=()) -> list:
        return []


#: The module-wide disabled store (see :mod:`repro.obs`).
NULL_TIMESERIES = NullTimeSeries()
