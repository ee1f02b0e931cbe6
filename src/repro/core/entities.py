"""Core entities: supernodes and the connection kinds of a session.

§3.1.1's supernode requirements (reliable, stable, superior network
connection, pre-installed game client) become fields and invariants
here; throttling behaviour (§4.1: some supernodes cut their upload to
80 % / 50 % of capacity with probability 0.5 each cycle) is per-cycle
state on the entity.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .columns import SupernodeColumns

__all__ = ["Supernode", "ConnectionKind"]


class ConnectionKind(Enum):
    """Where a player's game video comes from."""

    SUPERNODE = "supernode"
    CLOUD = "cloud"
    CDN = "cdn"


class Supernode:
    """One fog node: a contributed machine that renders and streams.

    §3.1.1's requirements (reliable, stable, superior network
    connection) are fields and invariants; the object is a plain
    ``__slots__`` class with identity equality (two supernode objects
    are equal only if they are the same deployment — membership checks
    in live sets must not compare mutable connection state).

    A pool supernode is *bound* to a shared
    :class:`~repro.core.columns.SupernodeColumns` store
    (:meth:`bind_columns`): its immutable fields are mirrored into the
    dense arrays once, and every mutation that can change slot
    availability (connect/disconnect/fail, ``online``/``connected``
    writes) refreshes the store's ``available`` byte so batch readers
    never chase per-object properties.  A standalone supernode (tests,
    ad-hoc construction) simply has no store.
    """

    __slots__ = ("supernode_id", "host_player", "capacity", "upload_mbps",
                 "access_ms", "x_km", "y_km", "throttle", "throttle_class",
                 "_connected", "supported_total", "_online", "gpu_tier",
                 "_cols")

    def __init__(self, supernode_id: int, host_player: int, capacity: int,
                 upload_mbps: float, access_ms: float, x_km: float = 0.0,
                 y_km: float = 0.0, throttle: float = 1.0,
                 throttle_class: float = 1.0,
                 connected: set[int] | None = None,
                 supported_total: int = 0, online: bool = True,
                 gpu_tier: object | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if upload_mbps <= 0:
            raise ValueError("upload_mbps must be positive")
        if access_ms < 0:
            raise ValueError("access_ms must be non-negative")
        if not 0 < throttle <= 1:
            raise ValueError("throttle must lie in (0, 1]")
        self.supernode_id = supernode_id
        #: Index of the contributing player in the population (its
        #: location, access delay and link speed come from there).
        self.host_player = host_player
        #: Maximum number of normal nodes it can support (Pareto, §4.1).
        self.capacity = capacity
        #: Raw upload bandwidth (Mbit/s).
        self.upload_mbps = upload_mbps
        #: One-way access delay (ms) — supernodes have "superior
        #: network connection" (§3.1.1).
        self.access_ms = access_ms
        #: Location (km).
        self.x_km = x_km
        self.y_km = y_km
        #: Current throttle factor in (0, 1]: 1.0 = honest full service.
        self.throttle = throttle
        #: Designated misbehaviour class: 1.0, 0.8 or 0.5 (§4.1).
        self.throttle_class = throttle_class
        self._connected = set() if connected is None else set(connected)
        #: Lifetime count of players supported (provisioning, §3.5).
        self.supported_total = supported_total
        self._online = online
        #: GPU tier of the contributed machine (None when not modelled).
        self.gpu_tier = gpu_tier
        self._cols: SupernodeColumns | None = None

    def __repr__(self) -> str:
        return (f"Supernode(supernode_id={self.supernode_id}, "
                f"host_player={self.host_player}, "
                f"capacity={self.capacity}, load={self.load}, "
                f"online={self._online})")

    # -- columnar binding ----------------------------------------------------
    def bind_columns(self, cols: SupernodeColumns) -> None:
        """Mirror this entity into row ``supernode_id`` of a store."""
        i = self.supernode_id
        if not 0 <= i < cols.size:
            raise ValueError(
                f"supernode_id {i} outside the store's {cols.size} rows")
        self._cols = cols
        cols.x_km[i] = self.x_km
        cols.y_km[i] = self.y_km
        cols.access_ms[i] = self.access_ms
        cols.upload_mbps[i] = self.upload_mbps
        cols.capacity[i] = self.capacity
        self._refresh_available()

    @property
    def columns(self) -> SupernodeColumns | None:
        """The bound columnar store (None for standalone entities)."""
        return self._cols

    def _refresh_available(self) -> None:
        cols = self._cols
        if cols is not None:
            cols.available[self.supernode_id] = (
                1 if self._online and len(self._connected) < self.capacity
                else 0)

    # -- mutable state behind availability -----------------------------------
    @property
    def online(self) -> bool:
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        self._online = value
        self._refresh_available()

    @property
    def connected(self) -> set[int]:
        """Players currently connected."""
        return self._connected

    @connected.setter
    def connected(self, players: set[int]) -> None:
        self._connected = players
        self._refresh_available()

    # -- capacity ------------------------------------------------------------
    @property
    def effective_capacity(self) -> int:
        """Advertised player slots.

        Deliberate throttling (§4.1) cuts the *upload* a supernode
        actually spends, not the slots it advertises — a selfish
        supernode keeps accepting players (that is how it earns
        rewards) while degrading their streams.  Reputation exists to
        catch exactly this.
        """
        return self.capacity

    @property
    def load(self) -> int:
        return len(self._connected)

    @property
    def has_capacity(self) -> bool:
        return self._online and len(self._connected) < self.capacity

    def utilization(self, stream_rate_mbps: float) -> float:
        """Upload utilisation given the mean per-player stream rate."""
        if stream_rate_mbps < 0:
            raise ValueError("stream_rate_mbps must be non-negative")
        effective_upload = self.upload_mbps * self.throttle
        return self.load * stream_rate_mbps / effective_upload

    def upload_share_mbps(self) -> float:
        """Fair upload share for one more connected player."""
        effective_upload = self.upload_mbps * self.throttle
        return effective_upload / max(1, self.load)

    # -- connection management -----------------------------------------------
    def connect(self, player: int) -> None:
        if not self._online:
            raise RuntimeError(f"supernode {self.supernode_id} is offline")
        if not self.has_capacity:
            raise RuntimeError(
                f"supernode {self.supernode_id} is at capacity "
                f"({self.load}/{self.effective_capacity})")
        if player in self._connected:
            raise ValueError(f"player {player} is already connected")
        self._connected.add(player)
        self.supported_total += 1
        self._refresh_available()

    def disconnect(self, player: int) -> None:
        self._connected.discard(player)
        self._refresh_available()

    def disconnect_many(self, players) -> None:
        """Disconnect a batch at once: one availability refresh.

        Equivalent to ``disconnect`` per player — set discard is
        order-independent and the availability byte depends only on
        the final load — so the vectorised departure stage stays
        bit-identical to the scalar loop it replaced.
        """
        self._connected.difference_update(players)
        self._refresh_available()

    def fail(self) -> set[int]:
        """Take the supernode offline; return the orphaned players."""
        self._online = False
        orphans = set(self._connected)
        self._connected.clear()
        self._refresh_available()
        return orphans

    def roll_throttle(self, rng: np.random.Generator,
                      probability: float) -> None:
        """Re-roll this cycle's throttling (§4.1 settings)."""
        if not 0 <= probability <= 1:
            raise ValueError("probability must lie in [0, 1]")
        if self.throttle_class >= 1.0:
            self.throttle = 1.0
        else:
            throttles = rng.random() < probability
            self.throttle = self.throttle_class if throttles else 1.0

