"""Frozen oracle: the shard merge as it ran over per-record results.

A verbatim copy, taken when a run's sessions became a columnar
``SessionLog``, of ``merge_results`` from ``repro.core.shard``: it
re-creates every ``SessionRecord`` to relabel its player id.  The one
change gives the merged result a plain list to extend, since
``RunResult.sessions`` is now a log.  ``test_session_log.py`` asserts
the live merge yields the same rows and days over generated partitions.
Do not edit this file to follow the live code.
"""

from __future__ import annotations

from repro.core.accounting import DayMetrics, RunResult, SessionRecord
from repro.core.shard import ShardPartition


def merge_results(parts: list[RunResult],
                  partitions: list[ShardPartition]) -> RunResult:
    """Fold per-partition results into one run, in partition order.

    Counts and bandwidth sum; per-day means combine weighted by each
    partition's online players; session records are re-labelled back to
    global player ids (``SessionRecord.target`` stays partition-local —
    supernode ids only mean anything inside their partition's pool).
    Every float reduction runs left-to-right over ascending partition
    index, so the merged result is identical however the partitions
    were scheduled.
    """
    if len(parts) != len(partitions):
        raise ValueError("one result per partition required")
    if not parts:
        return RunResult()
    merged = RunResult()
    merged.sessions = []  # the per-record list the merge built
    num_days = len(parts[0].days)
    if any(len(p.days) != num_days for p in parts):
        raise ValueError("partitions measured different day counts")
    for d in range(num_days):
        rows = [p.days[d] for p in parts]
        if any(r.day != rows[0].day for r in rows):
            raise ValueError("partitions disagree on measured day numbers")
        online = sum(r.online_players for r in rows)
        day = DayMetrics(
            day=rows[0].day,
            online_players=online,
            supernode_players=sum(r.supernode_players for r in rows),
            cloud_players=sum(r.cloud_players for r in rows),
            cloud_bandwidth_mbps=float(
                sum(r.cloud_bandwidth_mbps for r in rows)))
        if online > 0:
            day.mean_response_latency_ms = float(
                sum(r.mean_response_latency_ms * r.online_players
                    for r in rows) / online)
            day.mean_server_latency_ms = float(
                sum(r.mean_server_latency_ms * r.online_players
                    for r in rows) / online)
            day.mean_continuity = float(
                sum(r.mean_continuity * r.online_players
                    for r in rows) / online)
            day.satisfied_ratio = float(
                sum(r.satisfied_ratio * r.online_players
                    for r in rows) / online)
        merged.days.append(day)
    for part, partition in zip(parts, partitions):
        ids = partition.player_ids.tolist()
        merged.sessions.extend(
            SessionRecord(ids[r.player], r.day, r.game, r.kind, r.target,
                          r.response_latency_ms, r.server_latency_ms,
                          r.continuity, r.satisfied, r.join_latency_ms)
            for r in part.sessions)
        merged.join_latencies_ms.extend(part.join_latencies_ms)
        merged.supernode_join_latencies_ms.extend(
            part.supernode_join_latencies_ms)
        merged.migration_latencies_ms.extend(part.migration_latencies_ms)
        merged.assignment_wall_times_s.extend(part.assignment_wall_times_s)
        merged.faults.merge(part.faults)
    return merged
