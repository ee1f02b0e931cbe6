"""Streaming substrate: quality ladder, session estimator, QoS, QoE."""

from .continuity import (
    SATISFIED_CONTINUITY_THRESHOLD,
    is_satisfied,
    satisfied_ratio,
)
from .compression import LIVERENDER_LIKE, CompressionModel
from .qoe import MosBreakdown, QoeModel
from .session import (
    BatchSessionOutcome,
    estimate_continuity_batch,
    initial_levels_batch,
    stationary_levels_batch,
)
from .video import (
    FRAME_RATE_FPS,
    QUALITY_LADDER,
    QualityLevel,
    adjust_up_factor,
    get_level,
    level_for_latency_requirement,
)

__all__ = [
    "SATISFIED_CONTINUITY_THRESHOLD",
    "is_satisfied",
    "satisfied_ratio",
    "LIVERENDER_LIKE",
    "CompressionModel",
    "MosBreakdown",
    "QoeModel",
    "BatchSessionOutcome",
    "estimate_continuity_batch",
    "initial_levels_batch",
    "stationary_levels_batch",
    "FRAME_RATE_FPS",
    "QUALITY_LADDER",
    "QualityLevel",
    "adjust_up_factor",
    "get_level",
    "level_for_latency_requirement",
]
