"""Result export: a CSV dump of a run's session log.

Downstream analysis (pandas, R, spreadsheets) wants flat files, not
Python objects.  :func:`export_sessions_csv` writes one row per session
of a :class:`~repro.core.RunResult`'s :class:`~repro.core.SessionLog`
with a stable column order, one log chunk at a time.
"""

from __future__ import annotations

import csv
from pathlib import Path

__all__ = ["export_sessions_csv"]

_SESSION_FIELDS = ("day", "player", "game", "kind", "target",
                   "response_latency_ms", "server_latency_ms",
                   "continuity", "satisfied", "join_latency_ms")


def _check_overwrite(path: Path, overwrite: bool) -> None:
    if not overwrite and path.exists():
        raise FileExistsError(
            f"{path} already exists (pass overwrite=True to replace it)")


def export_sessions_csv(result, path: str | Path,
                        overwrite: bool = True) -> int:
    """Write one CSV row per logged session; returns the row count.

    By default an existing file is silently replaced (``overwrite=True``,
    matching historical behaviour); pass ``overwrite=False`` to raise
    :class:`FileExistsError` instead of clobbering prior results.
    """
    path = Path(path)
    _check_overwrite(path, overwrite)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_SESSION_FIELDS)
        kind = _SESSION_FIELDS.index("kind")
        for values in result.sessions.value_chunks(_SESSION_FIELDS):
            values[kind] = [connection.value for connection in values[kind]]
            writer.writerows(zip(*values))
    return len(result.sessions)
