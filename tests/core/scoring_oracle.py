"""Frozen oracle: the scalar session scorer, one estimate per session.

Verbatim copies, taken when the scalar twin left ``src/``, of
``score_sessions_scalar`` and its only helper ``server_latency_ms``
from ``repro.core.scoring``.  A run scores each day through
``score_sessions_batch``; this loop reads the same table rows one
session at a time and calls the per-session estimate
(``tests/streaming/session_oracle.py``) on the shared generator.
``test_system_batch.py`` and ``test_scoring_gather.py`` pin the batch
scorer ``==`` to it, and ``benchmarks/bench_perf_scoring.py`` asserts
the same and times it as the baseline of the CI-gated
``scoring.speedup``.  Do not edit this file to follow the live code.
"""

from __future__ import annotations

from repro.core.accounting import (
    CLOUD_FLOW_HEADROOM,
    CLOUD_FLOW_SHARE_FLOOR_MBPS,
    SessionRecord,
    cloud_egress_budget,
)
from repro.core.entities import ConnectionKind
from repro.core.scoring import (
    CDN_COORDINATION_MS,
    QOS_DURATION_S,
    QOS_SAMPLES,
)
from repro.core.state import KIND_OF_CODE, SimState
from repro.network.latency import PLAYOUT_PROCESSING_MS
from repro.network.transport import PathSpec
from repro.workload.games import GAME_CATALOGUE

from ..streaming.event_session_oracle import SessionConfig
from ..streaming.session_oracle import estimate_continuity


def server_latency_ms(state: SimState, player: int,
                      kind: ConnectionKind) -> float:
    """Interaction (server) latency for a player this epoch."""
    if kind is ConnectionKind.CDN:
        return CDN_COORDINATION_MS
    return state.server_latency_cache.get(
        player, state.datacenters[0].hop_ms)


def score_sessions_scalar(state: SimState, day, sessions, loads, cloud_rate,
                          rng) -> list[SessionRecord]:
    """Scalar reference scorer: one estimate call per session.

    Kept verbatim from the pre-batch implementation (adapted only
    to read the dense :class:`~repro.core.accounting.SweepLoads`
    rows instead of the old per-supernode dicts, and each session's
    fields from its table row — the same values).  It is the ground
    truth the batch path is pinned against and the baseline of the
    scoring benchmark, so it deliberately shares none of the batch
    path's gather.
    """
    records = []
    budget = cloud_egress_budget(state)
    cols = sessions.columns
    for player in sessions:
        game = GAME_CATALOGUE[state.game_code[player]]
        start = int(cols.start_subcycle[player])
        end = int(cols.end_subcycle[player])
        sid = int(cols.supernode_id[player])
        supernode_id = None if sid < 0 else sid
        kind = KIND_OF_CODE[int(cols.kind[player])]

        if supernode_id is not None:
            pool = state.supernode_pool
            row = loads.row(supernode_id)
            counts = loads.counts[row, start:end + 1]
            rates = loads.rates[row, start:end + 1]
            mean_count = max(1.0, float(counts.mean()))
            mean_rate = float(rates.mean())
            effective_upload = (float(pool.upload_mbps[supernode_id])
                                * float(pool.throttle[supernode_id]))
            utilization = min(2.0, mean_rate / effective_upload)
            share = effective_upload / mean_count
            target = supernode_id
        else:
            concurrent = float(cloud_rate[start:end + 1].mean())
            utilization = min(2.0, concurrent / budget)
            share = max(CLOUD_FLOW_SHARE_FLOOR_MBPS,
                        CLOUD_FLOW_HEADROOM * game.stream_rate_mbps)
            target = int(state.nearest_dc[player])

        server_latency = server_latency_ms(state, player, kind)
        encode_ms = 0.0
        if (state.compression is not None
                and supernode_id is None):
            encode_ms = state.compression.encode_latency_ms
        path = PathSpec(
            one_way_latency_ms=float(cols.latency_ms[player]),
            sender_share_mbps=max(0.05, share),
            receiver_download_mbps=float(
                state.topology.player_links.download_mbps[player]))
        # Continuity deadline: the game's Table-2 requirement applied
        # to packet delivery on the downstream path.  Server
        # interaction pipelines with rendering, so it affects the
        # response metric but not per-packet delivery.
        session_config = SessionConfig(
            response_budget_ms=game.latency_requirement_ms,
            tolerance=game.tolerance,
            path=path,
            upstream_one_way_ms=0.0,
            processing_ms=encode_ms,
            sender_utilization=utilization,
            duration_s=QOS_DURATION_S,
            adaptive=state.config.strategies.rate_adaptation,
        )
        outcome = estimate_continuity(session_config, rng, state.transport,
                                      n_samples=QOS_SAMPLES)
        response = (float(cols.upstream_ms[player])
                    + outcome.mean_response_latency_ms
                    + server_latency + PLAYOUT_PROCESSING_MS)
        records.append(SessionRecord(
            player=player, day=day, game=game.name, kind=kind,
            target=target,
            response_latency_ms=response,
            server_latency_ms=server_latency,
            continuity=outcome.continuity,
            satisfied=outcome.satisfied,
            join_latency_ms=(float(cols.join_latency_ms[player])
                             if cols.joined[player] else None),
        ))
    return records
