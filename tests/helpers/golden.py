"""Canonical golden digests of simulation outputs, for bit-identity pins.

Refactors of the core pipeline promise *bit-identical* results.  The
digest walks every numeric field of the measured output through
``repr`` (which round-trips Python floats exactly) and hashes the
concatenation, so a single ULP of drift anywhere changes the digest.

Two families of pins use this helper:

* ``tests/faults/test_equivalence.py`` — a system configured with no
  :class:`~repro.faults.plan.FaultPlan` must match the pre-faults code.
* the baseline + chaos pins guarding the staged-pipeline refactor of
  ``repro.core`` (same file) — a run with a busy fault schedule must
  survive code motion bit for bit.

Regenerate the pinned values with::

    PYTHONPATH=src python -m tests.faults.regen_golden
"""

from __future__ import annotations

import hashlib


def run_result_digest(result) -> str:
    """SHA-256 over every numeric field of a RunResult's content."""
    parts: list[str] = []
    for day in result.days:
        parts.append("|".join(repr(v) for v in (
            day.day, day.online_players, day.supernode_players,
            day.cloud_players, day.cloud_bandwidth_mbps,
            day.mean_response_latency_ms, day.mean_server_latency_ms,
            day.mean_continuity, day.satisfied_ratio)))
    for record in result.sessions:
        parts.append("|".join(repr(v) for v in (
            record.player, record.day, record.game, record.kind.value,
            record.target, record.response_latency_ms,
            record.server_latency_ms, record.continuity, record.satisfied,
            record.join_latency_ms)))
    # assignment_wall_times_s is deliberately excluded: it measures
    # wall-clock time, which is not a simulation output.
    for name in ("join_latencies_ms", "supernode_join_latencies_ms",
                 "migration_latencies_ms"):
        parts.append("|".join(repr(v) for v in getattr(result, name)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def fault_summary_digest(summary) -> str:
    """SHA-256 over a FaultSummary's accounting (chaos-run pins), shed,
    drained and admission-shed counters included."""
    parts = [repr(v) for v in (
        summary.events_applied, summary.displaced, summary.recovered,
        summary.degraded, summary.dropped, summary.retries,
        summary.shed, summary.drained, summary.joins_shed)]
    parts.append("|".join(repr(v) for v in summary.time_to_recover_ms))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
