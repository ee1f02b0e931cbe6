"""Dense columnar entity tables: parallel typed arrays over entity ids.

Two tables live here, and they relate to their entities differently:

* :class:`SessionColumns` *is* the session state.  A session is a row
  of the day's :class:`~repro.core.state.SessionTable`: the join writes
  it whole, the fault handlers rewrite its mutable fields in place,
  and scoring reads it in one gather.  There is no session object.
* :class:`SupernodeColumns` mirrors the :class:`~repro.core.entities.
  Supernode` objects, which keep the per-entity API the pipeline
  mutates (``connect``/``disconnect``/``fail``).  Its immutable columns
  (coordinates, access delay, upload, capacity) are written once when
  a supernode binds to the store; its one derived mutable column, the
  ``available`` byte (``online and load < capacity``), is refreshed by
  the owning supernode at every mutation that can change it, so the
  directory's ranking walk tests one byte per entry.

Neither table is checkpointed.  :mod:`repro.persist.snapshot` restores
supernodes through their setters, which refresh ``available`` as a
side effect, and sessions never cross a day boundary, so a day's
:class:`SessionColumns` dies with its sweep.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SupernodeColumns", "SessionColumns", "KIND_NONE",
           "KIND_SUPERNODE", "KIND_CLOUD", "KIND_CDN"]

#: Integer codes of :class:`~repro.core.entities.ConnectionKind` in
#: :attr:`SessionColumns.kind` (this module sits below ``entities`` in
#: the layering, so the enum cannot be imported here — ``core.state``
#: owns the enum → code mapping).
KIND_NONE = -1
KIND_SUPERNODE = 0
KIND_CLOUD = 1
KIND_CDN = 2


class SupernodeColumns:
    """Parallel typed arrays over ``supernode_id`` for one pool.

    Row ``i`` describes the supernode with ``supernode_id == i`` (the
    pool index — an invariant of ``build_supernode_pool``, re-checked
    on checkpoint restore).
    """

    __slots__ = ("size", "x_km", "y_km", "access_ms", "upload_mbps",
                 "capacity", "available")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = size
        self.x_km = np.zeros(size, dtype=np.float64)
        self.y_km = np.zeros(size, dtype=np.float64)
        self.access_ms = np.zeros(size, dtype=np.float64)
        self.upload_mbps = np.zeros(size, dtype=np.float64)
        self.capacity = np.zeros(size, dtype=np.int64)
        #: 1 where the supernode is online with a free slot: the hot
        #: byte the directory's candidate scan tests per entry.
        self.available = bytearray(size)


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
                 "join_latency_ms")

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
        #: Join latency (ms), or None when the join ran no selection.
        #: Object dtype: the row holds the join's own float, which the
        #: scored record then shares with ``RunResult.join_latencies_ms``
        #: (a run keeps every record, so a copy would cost 24 bytes each).
        self.join_latency_ms = np.full(size, None, dtype=object)
