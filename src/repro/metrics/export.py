"""Result export: a CSV dump of a run's per-session records.

Downstream analysis (pandas, R, spreadsheets) wants flat files, not
Python objects.  :func:`export_sessions_csv` writes a
:class:`~repro.core.RunResult`'s per-session records with a stable
column order.
"""

from __future__ import annotations

import csv
from pathlib import Path

__all__ = ["export_sessions_csv"]

_SESSION_FIELDS = ("day", "player", "game", "kind", "target",
                   "response_latency_ms", "server_latency_ms",
                   "continuity", "satisfied", "join_latency_ms")


def _session_row(record) -> dict:
    return {
        "day": record.day,
        "player": record.player,
        "game": record.game,
        "kind": record.kind.value,
        "target": record.target,
        "response_latency_ms": record.response_latency_ms,
        "server_latency_ms": record.server_latency_ms,
        "continuity": record.continuity,
        "satisfied": record.satisfied,
        "join_latency_ms": record.join_latency_ms,
    }


def _check_overwrite(path: Path, overwrite: bool) -> None:
    if not overwrite and path.exists():
        raise FileExistsError(
            f"{path} already exists (pass overwrite=True to replace it)")


def export_sessions_csv(result, path: str | Path,
                        overwrite: bool = True) -> int:
    """Write one CSV row per session record; returns the row count.

    By default an existing file is silently replaced (``overwrite=True``,
    matching historical behaviour); pass ``overwrite=False`` to raise
    :class:`FileExistsError` instead of clobbering prior results.
    """
    path = Path(path)
    _check_overwrite(path, overwrite)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_SESSION_FIELDS)
        writer.writeheader()
        count = 0
        for record in result.sessions:
            writer.writerow(_session_row(record))
            count += 1
    return count
