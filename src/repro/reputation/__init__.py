"""Reputation substrate: first-person rating ledgers and Eq.-7 scores."""

from .ratings import RatingLedger
from .scores import (
    DEFAULT_AGING_FACTOR,
    ReputationTable,
    raw_reputation_sum,
    reputation_score,
)

__all__ = [
    "RatingLedger",
    "DEFAULT_AGING_FACTOR",
    "ReputationTable",
    "raw_reputation_sum",
    "reputation_score",
]
