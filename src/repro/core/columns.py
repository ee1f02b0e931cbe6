"""Dense columnar entity tables: parallel typed arrays over entity ids.

Two tables live here, and each *is* its entities' state; there is no
per-entity object beside either:

* :class:`SupernodePool` is the cloud's supernode table (§3.2): one
  row per ``supernode_id`` holding the node's host, coordinates,
  access delay, upload, capacity, GPU tier and throttle class, and its
  mutable throttle, online flag, lifetime supported count, connected
  set and the derived ``available`` byte (``online and load <
  capacity``).  Every mutation is a pool method keyed by id, and each
  rewrites the ``available`` byte of the rows it touched, so the
  directory's ranking walk tests one byte per entry.
* :class:`SessionColumns` is the day's session state.  A session is a
  row of the day's :class:`~repro.core.state.SessionTable`: the join
  writes it whole, the fault handlers rewrite its mutable fields in
  place, and scoring reads it in one gather.

:mod:`repro.persist.snapshot` writes the pool's mutable columns as
per-id records and restores them straight into the columns.  Sessions
never cross a day boundary, so a day's :class:`SessionColumns` dies
with its sweep and is never checkpointed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SupernodePool", "SessionColumns", "KIND_NONE",
           "KIND_SUPERNODE", "KIND_CLOUD", "KIND_CDN"]

#: Integer codes of :class:`~repro.core.entities.ConnectionKind` in
#: :attr:`SessionColumns.kind` (this module sits below ``entities`` in
#: the layering, so the enum cannot be imported here — ``core.state``
#: owns the enum → code mapping).
KIND_NONE = -1
KIND_SUPERNODE = 0
KIND_CLOUD = 1
KIND_CDN = 2


def _first_bad(name: str, values: np.ndarray, bad: np.ndarray,
               rule: str) -> None:
    """Raise for the first row flagged in ``bad``, naming its index."""
    rows = np.flatnonzero(bad)
    if rows.size:
        row = int(rows[0])
        raise ValueError(f"supernode {row}: {name} must be {rule}, "
                         f"got {values[row].item()!r}")


class SupernodePool:
    """The cloud's supernode table: typed columns over ``supernode_id``.

    §3.1.1's requirements (reliable, stable, superior network
    connection) are the immutable columns; §4.1's throttling is the
    per-cycle ``throttle`` column, re-rolled from ``throttle_class``
    (1.0, 0.8 or 0.5) by :meth:`roll_throttle`.  Deliberate throttling
    cuts the upload a node spends, never the slots it advertises: a
    selfish supernode keeps accepting players (that is how it earns
    rewards) while degrading their streams, and reputation exists to
    catch exactly this.

    Construction validates the whole batch at once and names the first
    bad row.  Every row starts online, unthrottled and empty.
    """

    __slots__ = ("size", "host_player", "x_km", "y_km", "access_ms",
                 "upload_mbps", "capacity", "gpu_tier", "throttle_class",
                 "throttle", "online", "supported_total", "available",
                 "connected")

    def __init__(self, host_player, capacity, upload_mbps, access_ms,
                 x_km=None, y_km=None, throttle_class=None,
                 gpu_tier=None) -> None:
        #: Population index of each contributing player (its location,
        #: access delay and link speed come from there).
        self.host_player = np.array(host_player, dtype=np.int64, ndmin=1)
        size = self.size = len(self.host_player)

        def column(values, default=0.0, dtype=np.float64):
            if values is None:
                return np.full(size, default, dtype=dtype)
            out = np.array(values, dtype=dtype, ndmin=1)
            if out.shape != (size,):
                raise ValueError(f"every column needs {size} rows, "
                                 f"got shape {out.shape}")
            return out

        #: Maximum number of normal nodes (Pareto, §4.1).
        self.capacity = column(capacity, dtype=np.int64)
        #: Raw upload bandwidth (Mbit/s).
        self.upload_mbps = column(upload_mbps)
        #: One-way access delay (ms): supernodes have a "superior
        #: network connection" (§3.1.1).
        self.access_ms = column(access_ms)
        #: Location (km).
        self.x_km = column(x_km)
        self.y_km = column(y_km)
        #: Designated misbehaviour class: 1.0, 0.8 or 0.5 (§4.1).
        self.throttle_class = column(throttle_class, 1.0)
        _first_bad("capacity", self.capacity, self.capacity < 1, ">= 1")
        _first_bad("upload_mbps", self.upload_mbps,
                   ~(self.upload_mbps > 0), "positive")
        _first_bad("access_ms", self.access_ms, ~(self.access_ms >= 0),
                   "non-negative")
        _first_bad("throttle_class", self.throttle_class,
                   ~((self.throttle_class > 0)
                     & (self.throttle_class <= 1)), "in (0, 1]")
        #: GPU tier of each contributed machine (None when not modelled).
        self.gpu_tier = ([None] * size if gpu_tier is None
                         else list(gpu_tier))
        if len(self.gpu_tier) != size:
            raise ValueError(f"every column needs {size} rows, got "
                             f"{len(self.gpu_tier)} GPU tiers")
        #: This cycle's throttle factor in (0, 1]: 1.0 = full service.
        self.throttle = np.ones(size, dtype=np.float64)
        self.online = np.ones(size, dtype=bool)
        #: Lifetime count of players supported (provisioning, §3.5).
        self.supported_total = np.zeros(size, dtype=np.int64)
        #: Players currently connected, one set per row.
        self.connected: list[set[int]] = [set() for _ in range(size)]
        #: 1 where the row is online with a free slot: the hot byte the
        #: directory's candidate walk tests per entry.
        self.available = bytearray(b"\x01" * size)

    def __len__(self) -> int:
        return self.size

    def sync_available(self, rows=None) -> None:
        """Recompute ``available`` for ``rows`` (default: every row)."""
        rows = (np.arange(self.size) if rows is None
                else np.asarray(rows, dtype=np.intp))
        connected = self.connected
        loads = np.fromiter((len(connected[row]) for row in rows.tolist()),
                            dtype=np.int64, count=rows.size)
        np.frombuffer(self.available, dtype=np.uint8)[rows] = (
            self.online[rows] & (loads < self.capacity[rows]))

    # -- mutations, keyed by id ---------------------------------------------
    def connect(self, supernode_id: int, player: int) -> None:
        """Connect ``player``; the row must be online with a free slot."""
        players = self.connected[supernode_id]
        if not self.available[supernode_id]:
            if not self.online[supernode_id]:
                raise RuntimeError(f"supernode {supernode_id} is offline")
            raise RuntimeError(
                f"supernode {supernode_id} is at capacity "
                f"({len(players)}/{self.capacity[supernode_id]})")
        if player in players:
            raise ValueError(f"player {player} is already connected")
        players.add(player)
        self.supported_total[supernode_id] += 1
        if len(players) >= self.capacity[supernode_id]:
            self.available[supernode_id] = 0

    def disconnect_many(self, supernode_id: int, players) -> None:
        """Disconnect a batch of players (absent ones are ignored).

        Set discard is order-independent and ``available`` depends only
        on the final load, so one call equals a disconnect per player.
        """
        connected = self.connected[supernode_id]
        connected.difference_update(players)
        self.available[supernode_id] = (
            1 if self.online[supernode_id]
            and len(connected) < self.capacity[supernode_id] else 0)

    def fail(self, supernode_id: int) -> set[int]:
        """Take the row offline; return the orphaned players."""
        self.online[supernode_id] = False
        orphans = self.connected[supernode_id]
        self.connected[supernode_id] = set()
        self.available[supernode_id] = 0
        return orphans

    def set_online(self, supernode_ids, online: bool) -> None:
        """Mark rows online or offline; connected sets are kept."""
        rows = np.asarray(supernode_ids, dtype=np.intp)
        self.online[rows] = online
        self.sync_available(rows)

    def roll_throttle(self, rng: np.random.Generator,
                      probability: float) -> None:
        """Re-roll this cycle's throttling (§4.1 settings).

        Honest rows (class 1.0) draw nothing; the misbehaving rows draw
        one uniform each, in pool order, in one ``random`` call, and
        throttle to their class when it falls below ``probability``.
        """
        if not 0 <= probability <= 1:
            raise ValueError("probability must lie in [0, 1]")
        self.throttle[:] = 1.0
        misbehaving = np.flatnonzero(self.throttle_class < 1.0)
        throttled = misbehaving[rng.random(misbehaving.size) < probability]
        self.throttle[throttled] = self.throttle_class[throttled]


class SessionColumns:
    """Parallel typed arrays over ``player`` id for one sweep day.

    Row ``i`` is player ``i``'s session while ``active[i] == 1``, and
    dead garbage from an earlier session otherwise: an insert writes
    every field.  Sessions never outlive a day, so the table is rebuilt
    by every ``sweep_day``.  Scalar reads convert with ``float()`` or
    ``tolist()``, so no numpy scalar reaches a digest-bound record.
    """

    __slots__ = ("size", "active", "supernode_id", "kind", "latency_ms",
                 "upstream_ms", "start_subcycle", "end_subcycle",
                 "join_latency_ms", "joined")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = size
        #: 1 while the player's session is live this day.
        self.active = np.zeros(size, dtype=np.uint8)
        #: Serving supernode row, or -1 (cloud/CDN/none).
        self.supernode_id = np.full(size, -1, dtype=np.int64)
        #: ``KIND_*`` code of the connection, or ``KIND_NONE``.
        self.kind = np.full(size, KIND_NONE, dtype=np.int8)
        #: Downstream one-way latency (ms).
        self.latency_ms = np.zeros(size, dtype=np.float64)
        #: Upstream one-way latency (ms).
        self.upstream_ms = np.zeros(size, dtype=np.float64)
        #: Inclusive play window in subcycles, clamped to the day.
        self.start_subcycle = np.zeros(size, dtype=np.int64)
        self.end_subcycle = np.zeros(size, dtype=np.int64)
        #: Join latency (ms) where ``joined``, else NaN: the session
        #: log's two columns, copied as they are by the scorer.
        self.join_latency_ms = np.full(size, np.nan, dtype=np.float64)
        #: True when the join ran a selection (not a sticky reuse or a
        #: cloud or CDN baseline join).
        self.joined = np.zeros(size, dtype=bool)
