"""Run accounting: result containers, load timelines, bandwidth/egress.

The accounting stage of the pipeline: everything a run *produces* —
:class:`SessionRecord` / :class:`DayMetrics` / :class:`RunResult` — plus
the dense per-supernode load timelines (:class:`SweepLoads`) the sweep
builds and the Eq.-2 cloud bandwidth / egress-budget arithmetic.

Layering: imports only foundation modules and ``core.entities`` —
no stage module, orchestrator, or façade (``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cloud.gamestate import UPDATE_MESSAGE_BITS_PER_SUPERNODE
from ..faults import FaultSummary
from ..streaming.continuity import satisfied_ratio
from .entities import ConnectionKind

__all__ = ["DEFAULT_DC_EGRESS_MBPS", "CLOUD_FLOW_HEADROOM",
           "CLOUD_FLOW_SHARE_FLOOR_MBPS", "SessionRecord", "DayMetrics",
           "RunResult", "SweepLoads", "cloud_egress_budget",
           "cloud_bandwidth", "summarize_day", "credit_contributors"]

#: Cloud egress budget per datacenter for direct video streaming
#: (Mbit/s).  Sized for the reduced-scale populations the benches run
#: (thousands of players): past it the cloud's links congest, which is
#: the mechanism behind the baselines' degradation as players grow
#: (Figs. 7-8).  Scale it together with num_players for larger runs.
DEFAULT_DC_EGRESS_MBPS = 150.0

#: Headroom factor on the per-stream egress share the cloud/CDN
#: provisions for one flow.  Cloud-gaming egress is the dominant cost
#: (§1: ~$300k/month at 27 TB/12h), so providers provision per-stream
#: shares tightly — the stream's bitrate plus modest headroom.
CLOUD_FLOW_HEADROOM = 1.25

#: Floor on the per-stream share (Mbit/s), so low-bitrate games still
#: get a usable slice.
CLOUD_FLOW_SHARE_FLOOR_MBPS = 0.5


@dataclass(frozen=True)
class SessionRecord:
    """QoS outcome of one player-day session."""

    player: int
    day: int
    game: str
    kind: ConnectionKind
    target: int
    response_latency_ms: float
    server_latency_ms: float
    continuity: float
    satisfied: bool
    join_latency_ms: float | None  # None when the sticky connection held


@dataclass
class DayMetrics:
    """Aggregates of one measured day."""

    day: int
    online_players: int = 0
    supernode_players: int = 0
    cloud_players: int = 0
    cloud_bandwidth_mbps: float = 0.0
    mean_response_latency_ms: float = 0.0
    mean_server_latency_ms: float = 0.0
    mean_continuity: float = 0.0
    satisfied_ratio: float = 0.0


@dataclass
class RunResult:
    """Everything a run produced (measured days only)."""

    days: list[DayMetrics] = field(default_factory=list)
    sessions: list[SessionRecord] = field(default_factory=list)
    join_latencies_ms: list[float] = field(default_factory=list)
    supernode_join_latencies_ms: list[float] = field(default_factory=list)
    migration_latencies_ms: list[float] = field(default_factory=list)
    assignment_wall_times_s: list[float] = field(default_factory=list)
    #: Fault accounting of the run (all zeros without a FaultPlan).
    #: The conservation invariant ``displaced == recovered + degraded
    #: + dropped`` holds at every instant of the run.
    faults: FaultSummary = field(default_factory=FaultSummary)
    #: One-pass aggregate cache over ``days``; rebuilt when days grow.
    _aggregate_cache: dict | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def _measured(self) -> list[DayMetrics]:
        if not self.days:
            raise ValueError("the run produced no measured days")
        return self.days

    def _aggregate(self) -> dict:
        """Per-day metric columns gathered in one pass and cached.

        The mean properties used to rebuild a fresh list per property
        access; the sweep code reads several of them per run, so the
        columns are collected once and invalidated by day count.
        """
        days = self._measured()
        cache = self._aggregate_cache
        if cache is not None and cache["num_days"] == len(days):
            return cache
        columns: dict[str, list] = {
            "online_players": [], "supernode_players": [],
            "cloud_bandwidth_mbps": [], "mean_response_latency_ms": [],
            "mean_server_latency_ms": [], "mean_continuity": [],
            "satisfied_ratio": [],
        }
        for day in days:
            for name, values in columns.items():
                values.append(getattr(day, name))
        cache = {name: float(np.mean(values))
                 for name, values in columns.items()}
        cache["num_days"] = len(days)
        cache["online_total"] = sum(columns["online_players"])
        cache["supernode_total"] = sum(columns["supernode_players"])
        self._aggregate_cache = cache
        return cache

    @property
    def mean_response_latency_ms(self) -> float:
        return self._aggregate()["mean_response_latency_ms"]

    @property
    def mean_server_latency_ms(self) -> float:
        return self._aggregate()["mean_server_latency_ms"]

    @property
    def mean_continuity(self) -> float:
        return self._aggregate()["mean_continuity"]

    @property
    def mean_satisfied_ratio(self) -> float:
        return self._aggregate()["satisfied_ratio"]

    @property
    def mean_cloud_bandwidth_mbps(self) -> float:
        return self._aggregate()["cloud_bandwidth_mbps"]

    @property
    def supernode_coverage(self) -> float:
        """Share of online players served by supernodes."""
        aggregate = self._aggregate()
        if aggregate["online_total"] == 0:
            return 0.0
        return aggregate["supernode_total"] / aggregate["online_total"]

    def summary_table(self):
        """The headline metrics as a printable ResultTable."""
        from ..metrics.tables import ResultTable

        aggregate = self._aggregate()
        table = ResultTable("Run summary (measured days)",
                            ["metric", "value"])
        table.add_row("measured days", aggregate["num_days"])
        table.add_row("mean online players", aggregate["online_players"])
        table.add_row("supernode coverage", self.supernode_coverage)
        table.add_row("mean response latency (ms)",
                      self.mean_response_latency_ms)
        table.add_row("mean continuity", self.mean_continuity)
        table.add_row("satisfied ratio", self.mean_satisfied_ratio)
        table.add_row("cloud bandwidth (Mbit/s)",
                      self.mean_cloud_bandwidth_mbps)
        return table


@dataclass
class SweepLoads:
    """Per-supernode load timelines of one day as dense 2-D arrays.

    Row ``i`` belongs to live supernode ``ids[i]``; columns are the
    ``hours + 2`` subcycle slots the sweep indexes (slot 0 unused, the
    trailing slot absorbs sessions running through the last subcycle).
    Replaces the former per-supernode dict-of-arrays so the batch
    scorer can gather load statistics without dict churn.
    """

    ids: tuple[int, ...]
    counts: np.ndarray  # (num_live, hours + 2) concurrent players
    rates: np.ndarray   # (num_live, hours + 2) committed stream Mbit/s
    _rows: dict[int, int] = field(repr=False)

    @classmethod
    def for_supernodes(cls, supernode_ids: list[int],
                       hours: int) -> "SweepLoads":
        ids = tuple(supernode_ids)
        shape = (len(ids), hours + 2)
        return cls(ids=ids, counts=np.zeros(shape), rates=np.zeros(shape),
                   _rows={sn_id: row for row, sn_id in enumerate(ids)})

    def row(self, supernode_id: int) -> int | None:
        """Row index of a live supernode (None when not deployed)."""
        return self._rows.get(supernode_id)

    def ensure_row(self, supernode_id: int) -> int:
        """Row index for a supernode, growing a zero row if absent.

        The self-healing hook brings replacement capacity online
        mid-day; its load timeline starts empty.  Stages must re-read
        ``counts``/``rates`` after fault handling (they already do —
        both are fetched per subcycle) because growth reallocates.
        """
        row = self._rows.get(supernode_id)
        if row is not None:
            return row
        row = len(self.ids)
        self.ids = self.ids + (supernode_id,)
        zero = np.zeros((1, self.counts.shape[1]))
        self.counts = np.vstack([self.counts, zero])
        self.rates = np.vstack([self.rates, zero])
        self._rows[supernode_id] = row
        return row


# ----------------------------------------------------------------------
# bandwidth / egress arithmetic
# ----------------------------------------------------------------------
def cloud_egress_budget(state) -> float:
    """Total egress budget of the direct-streaming links (Mbit/s)."""
    if state.config.mode == "cdn":
        return max(1, len(state.cdn_coords)) * DEFAULT_DC_EGRESS_MBPS
    return state.config.num_datacenters * DEFAULT_DC_EGRESS_MBPS


def cloud_bandwidth(state, cloud_rate: np.ndarray,
                    loads: SweepLoads) -> float:
    """Mean cloud egress over the day's subcycles (Mbit/s).

    CloudFog: Λ per supernode serving at least one player at that
    subcycle plus the stream rate per cloud-direct player (Eq. 2's
    Λ·m + (N−n)·R).  Cloud/CDN: the stream rate per cloud-served
    player (a CDN's own edge egress is excluded, §4.2).
    """
    hours = state.config.schedule.hours_per_day
    update_mbps = UPDATE_MESSAGE_BITS_PER_SUPERNODE / 1e6
    # Per-subcycle count of serving supernodes in one pass over the
    # dense load matrix (was a dict scan per subcycle).
    serving = (loads.counts > 0).sum(axis=0)
    per_subcycle = []
    for subcycle in range(1, hours + 1):
        bandwidth = float(cloud_rate[subcycle])
        if state.config.mode == "cloudfog":
            bandwidth += update_mbps * int(serving[subcycle])
        per_subcycle.append(bandwidth)
    return float(np.mean(per_subcycle))


# ----------------------------------------------------------------------
# day-level accounting stages
# ----------------------------------------------------------------------
def summarize_day(state, day: int, records: list[SessionRecord],
                  cloud_rate: np.ndarray, loads: SweepLoads) -> DayMetrics:
    """Fold one measured day's records into a :class:`DayMetrics`."""
    metrics = DayMetrics(day=day)
    metrics.online_players = len(records)
    metrics.supernode_players = sum(
        1 for r in records if r.kind is ConnectionKind.SUPERNODE)
    metrics.cloud_players = sum(
        1 for r in records if r.kind is ConnectionKind.CLOUD)
    metrics.cloud_bandwidth_mbps = cloud_bandwidth(state, cloud_rate, loads)
    metrics.mean_response_latency_ms = float(np.mean(
        [r.response_latency_ms for r in records]))
    metrics.mean_server_latency_ms = float(np.mean(
        [r.server_latency_ms for r in records]))
    metrics.mean_continuity = float(np.mean(
        [r.continuity for r in records]))
    metrics.satisfied_ratio = satisfied_ratio(
        [r.continuity for r in records])
    return metrics


def credit_contributors(state, loads: SweepLoads) -> None:
    """Credit supernode hosts: one hour at rate r Mbit/s is r * 0.45 GB;
    a live supernode is online the whole day."""
    for sid in state.live_supernodes:
        row = loads.row(sid)
        gb = (float(loads.rates[row, 1:25].sum()) * 0.45
              if row is not None else 0.0)
        state.credits.record_day(sid, gb, hours_online=24.0)
