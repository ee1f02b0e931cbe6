"""Metrics: result tables, bar charts, and per-session CSV export."""

from .export import export_sessions_csv
from .plots import render_bars
from .tables import ResultTable

__all__ = [
    "export_sessions_csv",
    "render_bars",
    "ResultTable",
]
