"""``repro.obs`` — observability for the whole simulation stack.

Five pillars, one switch:

* :mod:`repro.obs.metrics` — a registry of named counters, gauges and
  fixed-bucket histograms with Prometheus-text and JSON exposition.
* :mod:`repro.obs.trace` — a span tracer with nesting, monotonic
  timing and JSONL export; :mod:`repro.obs.profile` turns finished
  spans into a per-phase wall-clock table.
* :mod:`repro.obs.timeseries` — a ring-buffered per-day / per-region
  sample store the sweep flushes at every day end (latency percentiles,
  continuity, MOS, fault deltas); :mod:`repro.obs.slo` evaluates
  declarative QoE objectives over it with burn-rate verdicts.
* :mod:`repro.obs.events` — a structured, span-linked event log
  (fault injections, detector trips, migrations, cloud fallbacks,
  checkpoint writes) with JSONL export.
* :mod:`repro.obs.log` — a ``repro.*`` stdlib-logging hierarchy with a
  key=value formatter and env/CLI-controlled level.

:mod:`repro.obs.server` serves the live registry / time series / event
log over HTTP (Prometheus text + JSON snapshot) and
:mod:`repro.obs.report` renders a per-run markdown/JSON report; both
import on demand (``from repro.obs import server``).

The stack is instrumented unconditionally but observability is **off by
default**: :func:`get_tracer` / :func:`get_registry` /
:func:`get_timeseries` / :func:`get_events` hand back shared null
objects whose recording methods are no-ops (readers and exporters
exist only on the live objects, and callers check ``enabled`` before
using them), so a disabled run does no timing,
allocates nothing per call, never touches the RNG streams and produces
bit-identical results (the determinism test in ``tests/obs`` pins this).
Call :func:`enable` (the CLI does when any observability flag is
passed) to swap in live objects; :func:`disable` restores the null path.

Instrumented code always fetches the current objects at call time::

    from .. import obs

    with obs.get_tracer().span("run_day", day=day):
        obs.get_registry().counter("repro_joins_total", kind="cloud").inc()

Very hot paths (the DES event loop) bind an instrument once at
construction instead; such objects register themselves with
:func:`bind_instruments` and are re-bound whenever the switch flips, so
enable-after-construct observes them too.

Telemetry survives checkpoint/resume: :func:`capture_telemetry` dumps
the accumulated time series and event log into the checkpoint payload
and :func:`restore_telemetry` reloads them into the live objects on
resume (:mod:`repro.persist.checkpoint`).
"""

from __future__ import annotations

import weakref

from .events import NULL_EVENT_LOG, EventLog, NullEventLog
from .log import configure_logging, get_logger, kv
from .metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .profile import phase_breakdown, profile_table
from .timeseries import NULL_TIMESERIES, NullTimeSeries, TimeSeriesStore
from .trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "enable",
    "disable",
    "enabled",
    "enablement",
    "get_tracer",
    "get_registry",
    "get_timeseries",
    "get_events",
    "bind_instruments",
    "capture_telemetry",
    "restore_telemetry",
    "configure_logging",
    "get_logger",
    "kv",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TimeSeriesStore",
    "NullTimeSeries",
    "NULL_TIMESERIES",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "phase_breakdown",
    "profile_table",
]

_tracer: Tracer | NullTracer = NULL_TRACER
_registry: MetricsRegistry | NullRegistry = NULL_REGISTRY
_timeseries: TimeSeriesStore | NullTimeSeries = NULL_TIMESERIES
_events: EventLog | NullEventLog = NULL_EVENT_LOG

#: Live objects that bound instruments at construction time; re-bound
#: (``obj.rebind_instruments()``) whenever the global switch flips.  A
#: WeakSet so short-lived objects (per-join DES environments) never
#: accumulate.
_BOUND: "weakref.WeakSet" = weakref.WeakSet()


def enabled() -> bool:
    """True when any live observability object is installed."""
    return (_tracer.enabled or _registry.enabled
            or _timeseries.enabled or _events.enabled)


def enablement() -> dict[str, bool]:
    """The current switch state per pillar (worker propagation)."""
    return {"tracing": _tracer.enabled, "metrics": _registry.enabled,
            "timeseries": _timeseries.enabled, "events": _events.enabled}


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (a shared no-op when disabled)."""
    return _tracer


def get_registry() -> MetricsRegistry | NullRegistry:
    """The active metrics registry (a shared no-op when disabled)."""
    return _registry


def get_timeseries() -> TimeSeriesStore | NullTimeSeries:
    """The active per-day sample store (a shared no-op when disabled)."""
    return _timeseries


def get_events() -> EventLog | NullEventLog:
    """The active structured event log (a shared no-op when disabled)."""
    return _events


def bind_instruments(obj) -> None:
    """Register a hot-path object that binds instruments at construction.

    ``obj.rebind_instruments()`` is called immediately and again on
    every :func:`enable` / :func:`disable`, so instruments bound once
    for speed still follow the global switch.  Held by weak reference —
    registration never extends a lifetime.
    """
    obj.rebind_instruments()
    _BOUND.add(obj)


def _rebind_all() -> None:
    for obj in list(_BOUND):
        obj.rebind_instruments()


def enable(tracing: bool = True, metrics: bool = True,
           log_level: str | int | None = None, *,
           timeseries: bool = True, events: bool = True
           ) -> tuple[Tracer | NullTracer, MetricsRegistry | NullRegistry]:
    """Install live observability objects; returns ``(tracer, registry)``.

    Re-enabling replaces the selected live objects with fresh empty ones
    (runs do not bleed into each other).  The time-series store feeds
    its per-day gauges into the registry installed by the same call;
    the event log span-links against the tracer.  ``log_level``
    additionally configures the ``repro`` logging hierarchy.
    """
    global _tracer, _registry, _timeseries, _events
    if tracing:
        _tracer = Tracer()
    if metrics:
        _registry = MetricsRegistry()
    if timeseries:
        _timeseries = TimeSeriesStore(registry=_registry)
    if events:
        _events = EventLog(tracer=_tracer)
    if log_level is not None:
        configure_logging(log_level)
    _rebind_all()
    return _tracer, _registry


def disable() -> None:
    """Restore the zero-cost null objects."""
    global _tracer, _registry, _timeseries, _events
    _tracer = NULL_TRACER
    _registry = NULL_REGISTRY
    _timeseries = NULL_TIMESERIES
    _events = NULL_EVENT_LOG
    _rebind_all()


def capture_telemetry() -> dict | None:
    """Dump the accumulated time series + event log for a checkpoint.

    Returns ``None`` when neither is live, so disabled runs write
    byte-identical checkpoints.
    """
    payload: dict = {}
    if _timeseries.enabled:
        payload["timeseries"] = _timeseries.as_payload()
    if _events.enabled:
        payload["events"] = _events.as_payload()
    return payload or None


def restore_telemetry(payload: dict | None) -> None:
    """Reload captured telemetry into the *live* objects (resume path).

    A no-op for missing payloads or disabled pillars: resuming with
    observability off never materialises live objects.
    """
    if not payload:
        return
    if _timeseries.enabled and payload.get("timeseries") is not None:
        _timeseries.load_payload(payload["timeseries"])
    if _events.enabled and payload.get("events") is not None:
        _events.load_payload(payload["events"])
