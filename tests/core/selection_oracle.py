"""Frozen oracle: §3.2 selection and the candidate-list merge as they
ran before the one-pass selection.

Verbatim copies, taken when the join path was fused, of
``select_supernode`` and ``SelectionOutcome`` from
``repro.core.selection`` (probe, L_max filter, a full stable sort by
(−Eq.-7 score, delay), then the sequential capacity asks) and of
``CandidateManager.remember`` from ``repro.core.candidates`` (a dict
rebuild and re-sort on every changed call).  Three changes: the
directory's scalar probe ``probe_delays_ms`` is a module function
reading ``directory.probe_columns``, ``remember`` takes the manager as
its first argument, and the outcome is :class:`OracleOutcome`.
``test_selection_properties.py`` and ``test_candidates_properties.py``
assert the live code ``==`` to these over generated pools, reputation
tables and remember sequences, and ``benchmarks/bench_lifecycle.py``
asserts the same and times them as the baseline of ``joins.speedup``.
Do not edit this file to follow the live code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.core.candidates import CandidateEntry, CandidateManager
from repro.core.selection import SupernodeDirectory
from repro.reputation.scores import ReputationTable

__all__ = ["OracleOutcome", "probe_delays_ms", "select_supernode",
           "remember"]


def probe_delays_ms(directory: SupernodeDirectory, player: int,
                    candidates: list[int]) -> list[float]:
    """One-way transmission delays from the player to each candidate.

    Scalar mirror of ``players_to_points_one_way_ms`` for the
    handful of candidates a join probes, in Python floats.  Operand
    order matches the vectorised path bit for bit:
    ``pairwise_distances`` squares via numpy's x*x fast path
    (mirrored as ``dx*dx``, never ``dx**2``, which would round
    through libm pow) under a correctly rounded sqrt, and
    ``one_way_ms`` adds left-associatively.
    """
    if not candidates:
        return []
    topo = directory.topology
    px = float(topo.player_coords[player, 0])
    py = float(topo.player_coords[player, 1])
    pa = float(topo.player_access_ms[player])
    mskm = topo.latency_model.ms_per_km
    xs, ys, access = directory.probe_columns
    delays = []
    for sid in candidates:
        dx = px - xs[sid]
        dy = py - ys[sid]
        delays.append(pa + mskm * math.sqrt(dx * dx + dy * dy)
                      + access[sid])
    return delays


@dataclass(frozen=True)
class OracleOutcome:
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

    @property
    def used_cloud(self) -> bool:
        return self.supernode_id is None


def select_supernode(
    player: int,
    directory: SupernodeDirectory,
    l_max_ms: float,
    rng: np.random.Generator,
    reputation: ReputationTable | None = None,
    candidate_count: int = 8,
    cloud_rtt_ms: float = 60.0,
    handshake_ms: float = 10.0,
    exclude: set[int] | None = None,
) -> OracleOutcome:
    """Run the full §3.2 selection for one player.

    ``reputation`` None reproduces CloudFog/B's random pick among the
    qualified candidates; otherwise candidates are tried in descending
    Eq.-7 score order (ties keep the delay ordering, so cold-start
    players effectively prefer closer supernodes).

    ``exclude`` drops specific supernode ids before probing — retry
    rounds after a failed migration pass the nodes that just refused
    or crashed, so a backoff retry cannot re-ask a known-bad node.
    """
    if l_max_ms <= 0:
        raise ValueError("l_max_ms must be positive")
    candidates = directory.candidates_for(player, candidate_count)
    if exclude:
        candidates = [sid for sid in candidates if sid not in exclude]
    delays = probe_delays_ms(directory, player, candidates)

    join_latency = cloud_rtt_ms
    if candidates:
        join_latency += 2.0 * max(delays)  # parallel probe RTTs

    qualified = tuple((sid, delay) for sid, delay in zip(candidates, delays)
                      if delay <= l_max_ms)
    if not qualified:
        return OracleOutcome(None, 0.0, join_latency, len(candidates))

    if reputation is not None:
        # Descending reputation; delay breaks ties so cold-start players
        # effectively prefer closer supernodes.
        ordered = sorted(
            qualified,
            key=lambda item: (-reputation.score(player, item[0]), item[1]))
    else:
        indices = rng.permutation(len(qualified))
        ordered = [qualified[int(i)] for i in indices]

    # Sequential capacity ask (§3.2.2): a candidate may have filled up
    # between the cloud's answer and now.
    pool = directory.pool
    for sid, delay in ordered:
        if pool.available[sid]:
            pool.connect(sid, player)
            join_latency += handshake_ms + delay
            return OracleOutcome(sid, delay, join_latency,
                                 len(candidates), qualified)
    return OracleOutcome(None, 0.0, join_latency, len(candidates),
                         qualified)


_by_delay = attrgetter("delay_ms")


def remember(manager: CandidateManager, player: int,
             candidates: list[tuple[int, float]]) -> None:
    """Merge freshly probed (supernode id, delay) pairs.

    Keeps the ``max_entries`` lowest-delay candidates; a re-probed
    supernode's delay is updated in place.  Probe delays are
    geometric and static, so the steady-state call — every pair
    already known at the same delay — returns without rebuilding
    or re-sorting the list.
    """
    make = CandidateEntry._make
    existing = manager._lists.get(player)
    if existing is None:
        fresh: dict[int, CandidateEntry] = {}
        for sn_id, delay in candidates:
            if delay < 0:
                raise ValueError("delay must be non-negative")
            fresh[sn_id] = make((sn_id, float(delay)))
        ranked = sorted(fresh.values(), key=_by_delay)
        manager._lists[player] = ranked[:manager.max_entries]
        return
    entries = {e.supernode_id: e for e in existing}
    changed = False
    for sn_id, delay in candidates:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        prev = entries.get(sn_id)
        if prev is None or prev.delay_ms != delay:
            entries[sn_id] = make((sn_id, float(delay)))
            changed = True
    if not changed:
        return
    ranked = sorted(entries.values(), key=_by_delay)
    manager._lists[player] = ranked[:manager.max_entries]
