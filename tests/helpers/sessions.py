"""Session rows <-> :class:`~repro.core.accounting.SessionLog`."""

from __future__ import annotations

from repro.core.accounting import SessionLog


def log_of(records) -> SessionLog:
    """A one-chunk log holding ``records`` (``SessionRecord`` rows)."""
    return SessionLog.from_rows(
        [r.player, r.day, r.game, r.kind.value, r.target,
         r.response_latency_ms, r.server_latency_ms, r.continuity,
         r.satisfied, r.join_latency_ms]
        for r in records)
