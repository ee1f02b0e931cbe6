"""A day's session rows behind the interface ``observe_day`` reads.

The time-series store is a foundation module and reads a day's
:class:`~repro.core.accounting.SessionLog` duck-typed, through
``value_chunks``.  These tests hand it plain namespaces, so that a row
may carry what a log cannot (an unknown game name, a bare kind string).
"""


class RowLog(list):
    """A list of record-like rows, read as one log chunk."""

    def value_chunks(self, names):
        yield [[getattr(row, name) for row in self] for name in names]
