"""Span-based tracer: nested wall-clock timing of the simulation stack.

A :class:`Tracer` hands out context-managed :class:`Span`\\ s::

    with tracer.span("run_day", day=3):
        ...
        with tracer.span("score_sessions"):
            ...

Spans nest through an explicit stack (the simulation is single-threaded
by design), carry arbitrary key/value attributes, and time themselves
with :func:`time.perf_counter` — monotonic, immune to wall-clock jumps.
Finished spans accumulate on ``tracer.finished`` and export as JSON
lines (:meth:`Tracer.export_jsonl`), one object per span with
``span_id`` / ``parent_id`` / ``depth`` so consumers can rebuild the
tree without holding it in memory.

The disabled path is a :data:`NULL_TRACER` whose ``span()`` returns one
shared no-op context manager — no allocation, no timing, no state.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["Span", "Tracer", "NullSpan", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed region.  Use via ``with tracer.span(...)``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth",
                 "start_s", "end_s", "error", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 span_id: int, parent_id: int | None, depth: int) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_s = 0.0
        self.end_s: float | None = None
        self.error: str | None = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return time.perf_counter() - self.start_s
        return self.end_s - self.start_s

    def annotate(self, **attrs) -> None:
        """Attach extra attributes to a live (or finished) span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.end_s = time.perf_counter()
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return False  # never swallow

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "error": self.error,
        }


class Tracer:
    """Creates, nests and collects spans."""

    enabled = True

    def __init__(self) -> None:
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    @property
    def current(self) -> Span | None:
        """The innermost live span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs) -> Span:
        parent = self.current
        span = Span(self, name, attrs,
                    span_id=self._next_id,
                    parent_id=parent.span_id if parent else None,
                    depth=len(self._stack))
        self._next_id += 1
        return span

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        top = self.current
        if top is not span:
            raise RuntimeError(
                f"span {span.name!r} exited out of order "
                f"(stack top: {top.name if top else None!r})")
        self._stack.pop()
        self.finished.append(span)

    # -- export ----------------------------------------------------------
    def export_jsonl(self, path: str | Path) -> int:
        """Write finished spans, one JSON object per line; return count."""
        count = 0
        with Path(path).open("w") as handle:
            for span in self.finished:
                handle.write(json.dumps(span.as_dict(), sort_keys=True)
                             + "\n")
                count += 1
        return count


class NullSpan:
    """Shared no-op span for the disabled path."""

    name = ""
    attrs: dict = {}
    span_id = 0
    parent_id = None
    depth = 0
    duration_s = 0.0
    error = None

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = NullSpan()


class NullTracer:
    """No-op tracer handed out while observability is disabled."""

    enabled = False
    finished: tuple = ()
    current = None

    def span(self, name: str, **attrs) -> NullSpan:
        return _NULL_SPAN


#: The module-wide disabled tracer (see :mod:`repro.obs`).
NULL_TRACER = NullTracer()
