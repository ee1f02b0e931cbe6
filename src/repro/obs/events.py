"""Structured event log: what happened to a run, and when.

The fault stage, the checkpointer and the CLI emit discrete events —
fault injections, detector trips, migrations with their recovery
times, cloud fallbacks, dropped sessions, checkpoint writes/loads — into the
active :class:`EventLog` (:data:`NULL_EVENT_LOG` while observability is
disabled, so a disabled run pays nothing and stays bit-identical).

Each event carries a monotonically increasing sequence number, its
``(day, subcycle)`` position in the simulated schedule, arbitrary
key/value attributes, and — when a tracer is live — the ``span_id`` of
the innermost open span, linking the event into the trace tree.  The
report generator (:mod:`repro.obs.report`) joins events against the
:mod:`repro.obs.timeseries` samples by day to correlate SLO violations
with the fault window that caused them.

Export is JSON lines (one event per line, ``seq`` order); the log also
round-trips through :meth:`EventLog.as_payload` /
:meth:`EventLog.load_payload` so accumulated events survive
checkpoint/resume.

Layering: a foundation module (rank 0); it never imports ``repro.core``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = ["Event", "EventLog", "NullEventLog", "NULL_EVENT_LOG",
           "DEFAULT_MAX_EVENTS"]

#: Ring capacity of the live log — plenty for any experiment schedule
#: while bounding a chaos soak that displaces sessions every day.
DEFAULT_MAX_EVENTS = 100_000


@dataclass(frozen=True)
class Event:
    """One structured occurrence in a run."""

    seq: int
    kind: str
    day: int | None = None
    subcycle: int | None = None
    span_id: int | None = None
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, "day": self.day,
                "subcycle": self.subcycle, "span_id": self.span_id,
                "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Event":
        return cls(seq=payload["seq"], kind=payload["kind"],
                   day=payload.get("day"),
                   subcycle=payload.get("subcycle"),
                   span_id=payload.get("span_id"),
                   attrs=dict(payload.get("attrs", {})))


class EventLog:
    """Bounded, ordered event collector with span linkage."""

    enabled = True

    def __init__(self, tracer=None,
                 max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self._events: deque[Event] = deque(maxlen=max_events)
        self._tracer = tracer
        self._next_seq = 1

    def emit(self, kind: str, *, day: int | None = None,
             subcycle: int | None = None, **attrs) -> Event:
        """Record one event; returns it (chiefly for tests)."""
        span_id = None
        if self._tracer is not None:
            span = self._tracer.current
            if span is not None and span.span_id:
                span_id = span.span_id
        event = Event(seq=self._next_seq, kind=kind, day=day,
                      subcycle=subcycle, span_id=span_id, attrs=attrs)
        self._next_seq += 1
        self._events.append(event)
        return event

    # -- query -----------------------------------------------------------
    def tail(self, count: int) -> list[Event]:
        """The newest ``count`` held events, oldest first."""
        if count <= 0:
            return []
        return list(self._events)[-count:]

    # -- persistence -----------------------------------------------------
    def export_jsonl(self, path: str | Path) -> int:
        """Write events, one JSON object per line; returns the count."""
        count = 0
        with Path(path).open("w") as handle:
            for event in self._events:
                handle.write(json.dumps(event.as_dict(), sort_keys=True)
                             + "\n")
                count += 1
        return count

    def as_payload(self) -> dict:
        return {"max_events": self.max_events,
                "next_seq": self._next_seq,
                "events": [event.as_dict() for event in self._events]}

    def load_payload(self, payload: Mapping) -> None:
        """Replace held events with a captured payload's; ``seq``
        numbering continues from where the capture stopped."""
        self._events.clear()
        for entry in payload.get("events", ()):
            self._events.append(Event.from_dict(entry))
        self._next_seq = int(payload.get(
            "next_seq",
            (self._events[-1].seq + 1) if self._events else 1))


class NullEventLog:
    """No-op log handed out while observability is disabled."""

    enabled = False

    def emit(self, kind: str, *, day=None, subcycle=None, **attrs) -> None:
        return None


#: The module-wide disabled log (see :mod:`repro.obs`).
NULL_EVENT_LOG = NullEventLog()
