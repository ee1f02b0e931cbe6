"""Reputation-based supernode selection — §3.2.

The protocol, exactly as the paper lays it out:

1. The cloud keeps a table of supernodes (IP → coordinates, available
   capacity).  A joining player asks the cloud, which returns a number
   of *physically close* supernodes with available capacity
   (:class:`SupernodeDirectory`).
2. The player measures transmission delay to each candidate and drops
   those above its threshold ``L_max`` — derived from its game genre's
   response-latency requirement.
3. The survivors are ordered by the player's own Eq.-7 reputation score
   (descending); the player asks each in turn whether it still has
   capacity and connects to the first that does.  The cloud's list
   holds only supernodes with a free slot, so the first ask succeeds
   and the selection is one pass that keeps the best survivor.
   CloudFog/B skips the reputation ordering and picks randomly among
   the qualified survivors.
4. No survivor ⇒ the player connects to the cloud directly.

The selection also reports a modelled *join latency* (Fig. 9): one RTT
to the cloud for the candidate list, one parallel probe round (the
slowest candidate's RTT) and the connect handshake.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..network.topology import Topology
from ..reputation.scores import ReputationTable
from ..workload.games import GAME_CATALOGUE
from .columns import SupernodePool

__all__ = ["SupernodeDirectory", "SelectionOutcome", "select_supernode",
           "delay_threshold_ms", "GAME_L_MAX_MS"]


#: Margin reserved for serialisation, jitter and server interaction when
#: deriving a delay threshold from a game's delivery deadline.
DELIVERY_MARGIN_MS = 12.0


def delay_threshold_ms(game_requirement_ms: float,
                       margin_ms: float = DELIVERY_MARGIN_MS) -> float:
    """L_max for a player: the one-way probe budget of its game.

    §3.2.1: the threshold "is determined based on the response latency
    requirement of the genre of its game".  A supernode qualifies when
    its one-way transmission delay leaves room inside the game's
    delivery deadline for serialisation, jitter and server-interaction
    latency (the margin).  Strict games end up accepting only very close
    supernodes, exactly the Fig. 4 coverage behaviour.
    """
    if game_requirement_ms <= 0:
        raise ValueError("game requirement must be positive")
    if margin_ms < 0:
        raise ValueError("margin must be non-negative")
    return max(5.0, game_requirement_ms - margin_ms)


#: L_max of each catalogue game, indexed by ``SimState.game_code``.
GAME_L_MAX_MS: tuple[float, ...] = tuple(
    delay_threshold_ms(game.latency_requirement_ms)
    for game in GAME_CATALOGUE)


class SupernodeDirectory:
    """The cloud's supernode table: locations and available capacities.

    A view over one :class:`~repro.core.columns.SupernodePool`: its
    members are the pool's online rows, and a lookup answers from one
    cached per-player distance ranking of the whole pool
    (:meth:`_pool_ranking`).  :meth:`candidates_for` walks the
    player's ranking row and keeps the first ``count`` rows whose
    ``available`` byte is set, in (distance², pool id) order.  When
    local saturation exhausts the cached prefix, the player's whole
    pool row is ranked the same way (:meth:`_rank_row`) and the walk
    goes on past the prefix.  Deployments, failures and heals only flip
    pool bytes, so the directory never rebuilds.
    """

    def __init__(self, topology: Topology, pool: SupernodePool):
        self.topology = topology
        self.pool = pool
        self._topk: np.ndarray | None = None
        #: Python-float copies of the immutable probe columns (x, y,
        #: access delay): a join probes a handful of rows, and list
        #: reads keep the probe arithmetic in Python floats.
        self.probe_columns = (pool.x_km.tolist(), pool.y_km.tolist(),
                              pool.access_ms.tolist())

    def candidates_for(self, player: int, count: int) -> list[int]:
        """Ids of the ``count`` closest supernodes with free capacity.

        Ordered by (distance², pool id).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if not self.pool.size:
            return []
        ranking = self._pool_ranking(count)
        avail = self.pool.available
        found = _first_available(ranking[player], avail, count)
        width = ranking.shape[1]
        if len(found) == count or width == self.pool.size:
            return found
        # Local saturation exhausted the cached prefix: any pool row
        # outside it may be the next nearest, so rank the whole row and
        # walk on from where the prefix ended.
        return found + _first_available(self._rank_row(player)[width:],
                                        avail, count - len(found))

    def _pool_ranking(self, count: int) -> np.ndarray:
        """Every player's nearest pool rows, (distance², pool id) order.

        Pool coordinates are immutable after construction, so the
        ranking is built once per pool and serves every later lookup
        — failures, heals and daily provisioning only flip availability
        bytes.  A build's cost is dominated by the full (players × pool)
        distance matrix, not the kept width, so the prefix is generous
        (``32 * count`` rows): wide enough that local saturation rarely
        sends a lookup to :meth:`_rank_row`.
        """
        pool = self.pool
        n = pool.size
        width = min(n, 32 * count)
        if self._topk is not None and self._topk.shape[1] >= width:
            return self._topk
        coords = self.topology.player_coords
        total = coords.shape[0]
        sx = pool.x_km
        sy = pool.y_km
        topk = np.empty((total, width), dtype=np.int32)
        pool_ids = np.arange(n)
        chunk = max(1, int(4_000_000 // max(1, n)))
        # Reused scratch: the distance matrix is pure streaming work,
        # so allocator churn (five ~30 MB temporaries per chunk) is a
        # measurable fraction of the build.  Same ops, same order —
        # bit-identical to the expression form.
        bufx = np.empty((min(chunk, total), n), dtype=np.float64)
        bufy = np.empty((min(chunk, total), n), dtype=np.float64)
        for lo in range(0, total, chunk):
            hi = min(total, lo + chunk)
            dx = bufx[:hi - lo]
            dy = bufy[:hi - lo]
            np.subtract(coords[lo:hi, 0, None], sx[None, :], out=dx)
            np.multiply(dx, dx, out=dx)
            np.subtract(coords[lo:hi, 1, None], sy[None, :], out=dy)
            np.multiply(dy, dy, out=dy)
            d2 = np.add(dx, dy, out=dx)
            topk[lo:hi] = _nearest(d2, width, pool_ids)
        self._topk = topk
        return topk

    def _rank_row(self, player: int) -> np.ndarray:
        """All pool rows for one player, (distance², pool id) order.

        The squared distances repeat :meth:`_pool_ranking`'s arithmetic
        operation for operation, so the row's first entries are the
        cached prefix.
        """
        pool = self.pool
        x, y = self.topology.player_coords[player]
        dx = x - pool.x_km
        dy = y - pool.y_km
        d2 = dx * dx + dy * dy
        return _nearest(d2[None, :], pool.size, np.arange(pool.size))[0]


def _first_available(ranked: np.ndarray, avail: bytearray,
                     count: int) -> list[int]:
    """The first ``count`` ids of ``ranked`` whose availability byte is set."""
    found: list[int] = []
    for gid in ranked.tolist():
        if avail[gid]:
            found.append(gid)
            if len(found) == count:
                break
    return found


def _nearest(d2: np.ndarray, k: int, keys: np.ndarray) -> np.ndarray:
    """Column positions of each row's ``k`` smallest (d2, key) pairs.

    Rows of the result are in ascending (distance², key) order.
    ``argpartition`` splits a run of equal distances at the ``k``-th
    boundary arbitrarily, but the contract keeps the run's lowest keys;
    selecting one column past the boundary shows which rows such a run
    straddles (co-located hosts), and those rows re-rank exactly.
    """
    rows, n = d2.shape
    if n > k:
        part = np.argpartition(d2, k, axis=1)[:, :k + 1]
        d2k = np.take_along_axis(d2, part, axis=1)
    else:
        part = np.broadcast_to(np.arange(n), (rows, n))
        d2k = d2
    order = np.lexsort((keys[part], d2k), axis=1)
    part = np.take_along_axis(part, order, axis=1)
    if n > k:
        d2k = np.take_along_axis(d2k, order, axis=1)
        for r in np.flatnonzero(d2k[:, k - 1] == d2k[:, k]).tolist():
            part[r] = np.lexsort((keys, d2[r]))[:k + 1]
    return part[:, :k]


class SelectionOutcome(NamedTuple):
    """Result of one player's supernode selection.

    ``supernode_id`` is the *global* supernode id (stable across
    provisioning redeployments), not a directory index.  ``qualified``
    lists every candidate that passed the delay filter — the player
    remembers them as its §3.2.2 candidate supernode list.
    """

    supernode_id: int | None          # None => fall back to the cloud
    downstream_one_way_ms: float
    join_latency_ms: float
    candidates_probed: int
    qualified: tuple[tuple[int, float], ...] = ()


def select_supernode(
    player: int,
    directory: SupernodeDirectory,
    l_max_ms: float,
    rng: np.random.Generator,
    reputation: ReputationTable | None = None,
    candidate_count: int = 8,
    cloud_rtt_ms: float = 60.0,
    handshake_ms: float = 10.0,
) -> SelectionOutcome:
    """Run the full §3.2 selection for one player.

    ``reputation`` None reproduces CloudFog/B's random pick among the
    qualified candidates; otherwise the player takes the candidate with
    the highest Eq.-7 score, and among equal scores the lowest delay,
    then the cloud's (distance², pool id) order — so cold-start players
    effectively prefer closer supernodes.

    One pass over the candidates probes each, applies L_max and keeps
    the best (−score, delay) pair: the first entry of the stable sort
    the paper's ordered capacity asks would walk.  The ask ends at that
    entry, because :meth:`SupernodeDirectory.candidates_for` returns
    only rows with a free slot and nothing connects before this one.

    The probe is the scalar form of ``players_to_points_one_way_ms``,
    in Python floats and bit-identical to it: ``dx * dx`` (numpy's
    square fast path, never ``dx ** 2``, which rounds through libm
    pow) under a correctly rounded sqrt, added left to right.
    """
    if l_max_ms <= 0:
        raise ValueError("l_max_ms must be positive")
    candidates = directory.candidates_for(player, candidate_count)
    if not candidates:
        return SelectionOutcome(None, 0.0, cloud_rtt_ms, 0)
    topo = directory.topology
    px, py = topo.player_coords[player].tolist()
    pa = float(topo.player_access_ms[player])
    mskm = topo.latency_model.ms_per_km
    xs, ys, access = directory.probe_columns
    score = reputation.score if reputation is not None else None
    qualified = []
    slowest = -math.inf
    best = None
    best_score = best_delay = 0.0
    for sid in candidates:
        dx = px - xs[sid]
        dy = py - ys[sid]
        delay = pa + mskm * math.sqrt(dx * dx + dy * dy) + access[sid]
        if delay > slowest:
            slowest = delay
        if delay <= l_max_ms:
            qualified.append((sid, delay))
            if score is not None:
                rank = -score(player, sid)
                if best is None or rank < best_score or (
                        rank == best_score and delay < best_delay):
                    best, best_score, best_delay = sid, rank, delay
    join_latency = cloud_rtt_ms + 2.0 * slowest  # parallel probe RTTs
    if not qualified:
        return SelectionOutcome(None, 0.0, join_latency, len(candidates))
    if score is None:
        best, best_delay = qualified[int(rng.permutation(len(qualified))[0])]
    directory.pool.connect(best, player)
    return SelectionOutcome(best, best_delay,
                            join_latency + (handshake_ms + best_delay),
                            len(candidates), tuple(qualified))
