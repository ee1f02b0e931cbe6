"""Run accounting: result containers, load timelines, bandwidth/egress.

The accounting stage of the pipeline: everything a run *produces* —
:class:`SessionLog` (with its row type :class:`SessionRecord`) /
:class:`DayMetrics` / :class:`RunResult` — plus
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
from ..workload.games import GAME_CATALOGUE
from .columns import KIND_CDN, KIND_CLOUD, KIND_SUPERNODE
from .entities import ConnectionKind

__all__ = ["DEFAULT_DC_EGRESS_MBPS", "CLOUD_FLOW_HEADROOM",
           "CLOUD_FLOW_SHARE_FLOOR_MBPS", "SessionRecord", "SessionLog",
           "SESSION_COLUMNS", "RECORD_FIELDS", "chunk_values",
           "DayMetrics",
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
    """QoS outcome of one player-day session: one row of a
    :class:`SessionLog`, built on demand when the log is iterated."""

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


_GAME_NAMES = tuple(game.name for game in GAME_CATALOGUE)
_KIND_OF = {KIND_SUPERNODE: ConnectionKind.SUPERNODE,
            KIND_CLOUD: ConnectionKind.CLOUD, KIND_CDN: ConnectionKind.CDN}

#: The log's columns and their dtypes.  ``game`` holds the catalogue
#: index of the game, ``kind`` the ``core.columns`` ``KIND_*`` code (the
#: checkpoint stores both codes as they are, so their meaning is part of
#: its schema); ``join_latency_ms`` is NaN where ``joined`` is False (no
#: selection ran: a sticky reuse, the cloud and CDN baselines).
SESSION_COLUMNS = {
    "player": np.int32, "day": np.int32, "game": np.int8, "kind": np.int8,
    "target": np.int32, "response_latency_ms": np.float64,
    "server_latency_ms": np.float64, "continuity": np.float64,
    "satisfied": np.bool_, "join_latency_ms": np.float64,
    "joined": np.bool_,
}

#: The :class:`SessionRecord` fields, in row order.
RECORD_FIELDS = ("player", "day", "game", "kind", "target",
                 "response_latency_ms", "server_latency_ms", "continuity",
                 "satisfied", "join_latency_ms")


class SessionLog:
    """A run's measured sessions as append-only typed columns.

    The log is a list of chunks, one per appended day (or per merged
    partition); a chunk maps every :data:`SESSION_COLUMNS` name to a
    read-only array of its rows.  Appending adopts the other log's
    chunks without copying, so the log never holds a second copy of its
    rows; :meth:`column` concatenates one column on demand.  Iterating
    yields one :class:`SessionRecord` per row, built chunk by chunk with
    Python ``int``/``float``/``bool``/``None`` values, ``kind`` as a
    :class:`ConnectionKind` and ``game`` as its name; compare two logs
    by their rows (``list(log)``).  A pickled log carries one chunk per
    column.
    """

    __slots__ = ("chunks", "_length")

    def __init__(self) -> None:
        #: The appended chunks, in order.  Each chunk is immutable, so
        #: an encoder may trust a prefix while the same chunk objects
        #: stay in place (``persist.snapshot``).
        self.chunks: list[dict[str, np.ndarray]] = []
        self._length = 0

    @classmethod
    def of(cls, **columns) -> "SessionLog":
        """A one-chunk log of equally long columns (every name of
        :data:`SESSION_COLUMNS`), converted to the log's dtypes.  The
        log takes the arrays over and makes them read-only."""
        if columns.keys() != SESSION_COLUMNS.keys():
            raise ValueError(
                f"a chunk needs the columns {sorted(SESSION_COLUMNS)}")
        chunk = {}
        for name, dtype in SESSION_COLUMNS.items():
            array = np.asarray(columns[name], dtype=dtype)
            array.flags.writeable = False
            chunk[name] = array
        lengths = {len(array) for array in chunk.values()}
        if len(lengths) != 1:
            raise ValueError("a chunk's columns differ in length")
        log = cls()
        if lengths != {0}:
            log.chunks.append(chunk)
            log._length = lengths.pop()
        return log

    def extend(self, other: "SessionLog") -> None:
        """Append ``other``'s rows (its chunks are shared, not copied)."""
        self.chunks.extend(other.chunks)
        self._length += other._length

    def __len__(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns' arrays."""
        return sum(array.nbytes for chunk in self.chunks
                   for array in chunk.values())

    def column(self, name: str) -> np.ndarray:
        """One column over every row (a chunk's own read-only array
        when the log has one chunk, else a fresh concatenation)."""
        if len(self.chunks) == 1:
            return self.chunks[0][name]
        if not self.chunks:
            return np.empty(0, dtype=SESSION_COLUMNS[name])
        return np.concatenate([chunk[name] for chunk in self.chunks])

    def value_chunks(self, names=RECORD_FIELDS):
        """Per chunk, the list of each named :class:`SessionRecord`
        field's values over the chunk's rows, as the rows carry them
        (:func:`chunk_values`)."""
        for chunk in self.chunks:
            yield [chunk_values(chunk, name) for name in names]

    def __iter__(self):
        for values in self.value_chunks():
            yield from map(SessionRecord, *values)

    def __getstate__(self) -> dict:
        return {name: self.column(name) for name in SESSION_COLUMNS}

    def __setstate__(self, columns: dict) -> None:
        self.chunks, self._length = [], 0
        self.extend(SessionLog.of(**columns))


def chunk_values(chunk: dict, name: str) -> list:
    """One :class:`SessionRecord` field of a :class:`SessionLog` chunk's
    rows as Python values: ``game`` names, ``kind`` as
    :class:`ConnectionKind`, ``join_latency_ms`` None where no join
    ran, every other field by ``tolist``."""
    if name == "game":
        return list(map(_GAME_NAMES.__getitem__, chunk["game"].tolist()))
    if name == "kind":
        return list(map(_KIND_OF.__getitem__, chunk["kind"].tolist()))
    if name == "join_latency_ms":
        return [ms if joined else None for ms, joined in zip(
            chunk["join_latency_ms"].tolist(), chunk["joined"].tolist())]
    return chunk[name].tolist()


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
    sessions: SessionLog = field(default_factory=SessionLog)
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


class SweepLoads:
    """The load timelines of one sweep day, with spans committed when read.

    Four timelines over the ``hours + 2`` subcycle slots the sweep
    indexes (slot 0 unused, the trailing slot absorbs sessions running
    through the last subcycle): per live supernode the concurrent
    players (``counts``) and committed stream Mbit/s (``rates``), one
    row per ``ids`` entry; the cloud's direct-stream Mbit/s
    (``cloud_rate``); and, under admission control only, the
    concurrent cloud sessions (``cloud_count``, else None).

    :meth:`commit` only logs a cohort's spans.  Reading any timeline
    first applies the whole log, with one ``np.add.at`` per timeline in
    commit order, so every cell sums the same terms in the same order
    as eager per-cohort adds would, and no reader ever sees a stale
    cell.  Writers (the fault handlers) write through the arrays they
    read, after the log is applied.
    """

    __slots__ = ("ids", "row_of", "_counts", "_rates", "_cloud_rate",
                 "_cloud_count", "_fog", "_cloud")

    def __init__(self, supernode_ids: list[int], hours: int,
                 occupancy: bool = False) -> None:
        self.ids = tuple(supernode_ids)
        #: Supernode id → load row, -1 for an id with no row (kept in
        #: step with ``ids`` by :meth:`ensure_row`).
        self.row_of = np.full(max(self.ids, default=-1) + 1, -1,
                              dtype=np.intp)
        self.row_of[list(self.ids)] = np.arange(len(self.ids))
        shape = (len(self.ids), hours + 2)
        self._counts = np.zeros(shape)
        self._rates = np.zeros(shape)
        self._cloud_rate = np.zeros(hours + 2)
        self._cloud_count = np.zeros(hours + 2) if occupancy else None
        #: The pending cohorts' columns, in commit order: (first
        #: subcycles, rows, last subcycles, Mbit/s) for supernodes, the
        #: same without the rows for the cloud.
        self._fog: list[tuple] = []
        self._cloud: list[tuple] = []

    def row(self, supernode_id: int) -> int | None:
        """Row index of a live supernode (None when not deployed)."""
        row_of = self.row_of
        if 0 <= supernode_id < len(row_of) and row_of[supernode_id] >= 0:
            return int(row_of[supernode_id])
        return None

    def commit(self, start: int, rows, ends, rates, cloud_ends,
               cloud_rates) -> None:
        """Log one cohort's spans, all starting at subcycle ``start``.

        Fog session ``i`` loads row ``rows[i]`` with one player and
        ``rates[i]`` Mbit/s for subcycles ``start`` through ``ends[i]``
        inclusive; cloud session ``j`` adds ``cloud_rates[j]`` to
        ``cloud_rate`` (and one session to ``cloud_count``) through
        ``cloud_ends[j]``.  The columns are arrays or lists.
        """
        if len(rows):
            self._fog.append((np.full(len(rows), start), rows, ends, rates))
        if len(cloud_ends):
            self._cloud.append((np.full(len(cloud_ends), start), cloud_ends,
                                cloud_rates))

    def _apply(self) -> None:
        """Add every logged span to its timelines, in commit order."""
        if self._fog:
            fog_starts, fog_rows, fog_ends, fog_rates = map(
                np.concatenate, zip(*self._fog))
            width = self._counts.shape[1]
            cells, lengths = _span_cells(fog_starts, fog_ends, fog_rows,
                                         width)
            np.add.at(self._counts.reshape(-1), cells, 1)
            np.add.at(self._rates.reshape(-1), cells, np.repeat(
                np.asarray(fog_rates, dtype=np.float64), lengths))
            self._fog = []
        if self._cloud:
            starts, ends, rates = map(np.concatenate, zip(*self._cloud))
            cells, lengths = _span_cells(starts, ends)
            np.add.at(self._cloud_rate, cells, np.repeat(
                np.asarray(rates, dtype=np.float64), lengths))
            if self._cloud_count is not None:
                np.add.at(self._cloud_count, cells, 1)
            self._cloud = []

    @property
    def counts(self) -> np.ndarray:
        """(rows, hours + 2) concurrent players per supernode."""
        self._apply()
        return self._counts

    @property
    def rates(self) -> np.ndarray:
        """(rows, hours + 2) committed stream Mbit/s per supernode."""
        self._apply()
        return self._rates

    @property
    def cloud_rate(self) -> np.ndarray:
        """(hours + 2,) the cloud's direct-stream Mbit/s."""
        self._apply()
        return self._cloud_rate

    @property
    def cloud_count(self) -> np.ndarray | None:
        """(hours + 2,) concurrent cloud sessions, or None without
        admission control."""
        self._apply()
        return self._cloud_count

    def ensure_row(self, supernode_id: int) -> int:
        """Row index for a supernode, growing a zero row if absent.

        The self-healing hook brings replacement capacity online
        mid-day; its load timeline starts empty.  Growth reallocates
        ``counts`` and ``rates``, so readers fetch them again after
        fault handling (the stages read them per subcycle).
        """
        row = self.row(supernode_id)
        if row is not None:
            return row
        row = len(self.ids)
        self.ids = self.ids + (supernode_id,)
        zero = np.zeros((1, self.counts.shape[1]))
        self._counts = np.vstack([self.counts, zero])
        self._rates = np.vstack([self.rates, zero])
        if supernode_id >= len(self.row_of):
            self.row_of = np.append(
                self.row_of, [-1] * (supernode_id + 1 - len(self.row_of)))
        self.row_of[supernode_id] = row
        return row


def _span_cells(starts, ends, rows=None, width: int = 0):
    """The flat cells of spans ``starts[i]..ends[i]`` (of row
    ``rows[i]`` in a ``width``-column matrix, when given) and the span
    lengths: span after span, each in subcycle order."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts + 1
    offsets = np.cumsum(lengths) - lengths
    cells = (np.arange(int(lengths.sum()), dtype=np.int64)
             + np.repeat(starts - offsets, lengths))
    if rows is not None:
        cells += np.repeat(np.asarray(rows, dtype=np.int64) * width,
                           lengths)
    return cells, lengths


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
def summarize_day(state, day: int, records: SessionLog,
                  cloud_rate: np.ndarray, loads: SweepLoads) -> DayMetrics:
    """Fold one measured day's session log into a :class:`DayMetrics`."""
    metrics = DayMetrics(day=day)
    kind = records.column("kind")
    continuity = records.column("continuity")
    metrics.online_players = len(records)
    metrics.supernode_players = int(np.count_nonzero(kind == KIND_SUPERNODE))
    metrics.cloud_players = int(np.count_nonzero(kind == KIND_CLOUD))
    metrics.cloud_bandwidth_mbps = cloud_bandwidth(state, cloud_rate, loads)
    metrics.mean_response_latency_ms = float(np.mean(
        records.column("response_latency_ms")))
    metrics.mean_server_latency_ms = float(np.mean(
        records.column("server_latency_ms")))
    metrics.mean_continuity = float(np.mean(continuity))
    metrics.satisfied_ratio = satisfied_ratio(continuity.tolist())
    return metrics


def credit_contributors(state, loads: SweepLoads) -> None:
    """Credit supernode hosts: one hour at rate r Mbit/s is r * 0.45 GB;
    a live supernode is online the whole day."""
    for sid in state.live_supernodes:
        row = loads.row(sid)
        gb = (float(loads.rates[row, 1:25].sum()) * 0.45
              if row is not None else 0.0)
        state.credits.record_day(sid, gb, hours_online=24.0)
