"""Streaming substrate: quality ladder, segments, buffer, adaptation, QoS."""

from .adaptation import DEFAULT_ADJUST_DOWN_THRESHOLD, Adjustment, RateController
from .buffer import BufferEstimator, PlaybackBuffer
from .continuity import (
    SATISFIED_CONTINUITY_THRESHOLD,
    ContinuityStats,
    is_satisfied,
    packet_continuity,
    satisfied_ratio,
)
from .compression import LIVERENDER_LIKE, CompressionModel
from .qoe import MosBreakdown, QoeModel
from .segments import DEFAULT_SEGMENT_SECONDS, Segment
from .session import (
    BatchSessionOutcome,
    SessionConfig,
    SessionResult,
    estimate_continuity_batch,
    initial_levels_batch,
    simulate_session,
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
    "DEFAULT_ADJUST_DOWN_THRESHOLD",
    "Adjustment",
    "RateController",
    "BufferEstimator",
    "PlaybackBuffer",
    "SATISFIED_CONTINUITY_THRESHOLD",
    "ContinuityStats",
    "is_satisfied",
    "packet_continuity",
    "satisfied_ratio",
    "LIVERENDER_LIKE",
    "CompressionModel",
    "MosBreakdown",
    "QoeModel",
    "DEFAULT_SEGMENT_SECONDS",
    "Segment",
    "BatchSessionOutcome",
    "SessionConfig",
    "SessionResult",
    "estimate_continuity_batch",
    "initial_levels_batch",
    "simulate_session",
    "stationary_levels_batch",
    "FRAME_RATE_FPS",
    "QUALITY_LADDER",
    "QualityLevel",
    "adjust_up_factor",
    "get_level",
    "level_for_latency_requirement",
]
