"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The simulation stack records operational telemetry (joins, migrations,
events processed, latency distributions) through a
:class:`MetricsRegistry`.  Instruments are created on first use and
identified by ``(name, labels)`` so callers never coordinate:

    registry.counter("repro_joins_total", kind="supernode").inc()
    registry.histogram("repro_join_latency_ms").observe(42.0)

Two export formats cover the usual consumers: :meth:`~MetricsRegistry.
to_prometheus` writes the Prometheus text exposition format (one
``name{labels} value`` line per instrument, ``# TYPE`` headers, ``_bucket``
/ ``_sum`` / ``_count`` series for histograms) and
:meth:`~MetricsRegistry.as_dict` / :meth:`~MetricsRegistry.to_json` give
a structured dump for programmatic diffing.

When observability is disabled the stack holds a :data:`NULL_REGISTRY`
whose instruments are shared no-op singletons — the hot paths pay one
attribute lookup and an empty method call, and no state accumulates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_RECOVERY_BUCKETS_MS",
]

#: Default histogram buckets, tuned for millisecond latencies (join,
#: migration, response paths all land inside this range).
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0)

#: Buckets for recovery times after a fault (detection + reconnect):
#: coarser and shifted right of the join-latency buckets, with the
#: paper's sub-second migration claim sitting at the 1 s boundary.
DEFAULT_RECOVERY_BUCKETS_MS = (
    100.0, 250.0, 500.0, 750.0, 1000.0, 1500.0, 2500.0, 5000.0, 10000.0)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _render_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"'
                    for key, value in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(amount={amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down (live supernodes, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram (Prometheus cumulative-bucket semantics).

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  Observations update per-bucket counts, the running
    sum and the total count.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS
                 ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative_counts(self) -> list[int]:
        """Per-bucket counts as Prometheus cumulative ``le`` series."""
        out, running = [], 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


def _format_value(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else repr(value)


class MetricsRegistry:
    """The live home of every instrument, keyed by name and labels."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], object] = {}

    def _get(self, factory, name: str, labels: Mapping[str, object],
             **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def __iter__(self):
        return iter(sorted(self._metrics.values(),
                           key=lambda m: (m.name, m.labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ----------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render every instrument in the Prometheus text format."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for metric in self:
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_types.add(metric.name)
            if isinstance(metric, Histogram):
                cumulative = metric.cumulative_counts()
                bounds = [*(str(b) for b in metric.buckets), "+Inf"]
                for bound, count in zip(bounds, cumulative):
                    labels = _render_labels(
                        metric.labels + (("le", bound),))
                    lines.append(f"{metric.name}_bucket{labels} {count}")
                suffix = _render_labels(metric.labels)
                lines.append(
                    f"{metric.name}_sum{suffix} "
                    f"{_format_value(metric.sum)}")
                lines.append(f"{metric.name}_count{suffix} {metric.count}")
            else:
                labels = _render_labels(metric.labels)
                lines.append(
                    f"{metric.name}{labels} {_format_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> dict:
        """Structured dump: ``{name: [{labels, ...state}, ...]}``."""
        out: dict[str, list] = {}
        for metric in self:
            entry: dict = {"labels": dict(metric.labels),
                           "kind": metric.kind}
            if isinstance(metric, Histogram):
                entry.update(buckets=list(metric.buckets),
                             counts=list(metric.counts),
                             sum=metric.sum, count=metric.count)
            else:
                entry["value"] = metric.value
            out.setdefault(metric.name, []).append(entry)
        return out

    def merge_dump(self, dump: Mapping[str, list]) -> None:
        """Fold an :meth:`as_dict` dump from another registry into this one.

        Counters and histogram state add; gauges take the dump's value
        (last writer wins — gauges are point-in-time readings).  The
        supervised process pool (:func:`repro.core.shard.run_supervised`)
        uses this to merge per-task registries back into the parent.
        """
        for name, entries in dump.items():
            for entry in entries:
                labels = entry.get("labels", {})
                kind = entry.get("kind")
                if kind == "counter":
                    self.counter(name, **labels).inc(entry["value"])
                elif kind == "gauge":
                    self.gauge(name, **labels).set(entry["value"])
                elif kind == "histogram":
                    hist = self.histogram(name, buckets=entry["buckets"],
                                          **labels)
                    if tuple(hist.buckets) != tuple(entry["buckets"]):
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch on merge: "
                            f"{hist.buckets} != {tuple(entry['buckets'])}")
                    for index, count in enumerate(entry["counts"]):
                        hist.counts[index] += count
                    hist.sum += entry["sum"]
                    hist.count += entry["count"]
                else:
                    raise ValueError(
                        f"metric {name!r} has unknown kind {kind!r}")

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write_prometheus(self, path: str | Path) -> None:
        Path(path).write_text(self.to_prometheus())

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(indent=2) + "\n")


# ---------------------------------------------------------------------------
# Disabled path: shared no-op instruments.  These deliberately reuse the
# mutating method names so instrumented code is identical either way.
# ---------------------------------------------------------------------------
class NullCounter:
    kind = "counter"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    kind = "gauge"
    value = 0.0

    def set(self, value: float) -> None:
        pass


class NullHistogram:
    kind = "histogram"
    sum = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """No-op registry handed out while observability is disabled."""

    enabled = False

    def counter(self, name: str, **labels) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS_MS,
                  **labels) -> NullHistogram:
        return _NULL_HISTOGRAM


#: The module-wide disabled registry (see :mod:`repro.obs`).
NULL_REGISTRY = NullRegistry()
