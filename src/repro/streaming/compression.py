"""Compressed graphics streaming — the LiveRender comparison point.

§2: "LiveRender incorporates intra-frame compression, inter-frame
compression and caching to achieve compressed graphics streaming in a
cloud gaming system.  This system only reduces the bandwidth when
streaming game videos to players, while CloudFog aims to offload the
streaming burden from the cloud to supernodes."

This module models that class of system so the comparison can be run:
a compression pipeline with three stages whose combined ratio shrinks
the streamed bitrate (and therefore the cloud's egress), at the cost of
extra encode latency per frame — but which leaves the *path* untouched,
which is why it cannot fix response latency or coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CompressionModel", "LIVERENDER_LIKE"]


@dataclass(frozen=True)
class CompressionModel:
    """A graphics-streaming compression pipeline.

    Ratios are the *remaining* fraction of bits after each stage, so the
    effective streamed bitrate is ``bitrate x intra x inter x (1 -
    cache_hit_rate)`` plus the cache-maintenance overhead.
    """

    #: Intra-frame compression: texture/command deduplication in-frame.
    intra_ratio: float = 0.75
    #: Inter-frame compression: delta encoding against previous frames.
    inter_ratio: float = 0.65
    #: Fraction of frame content served from the client-side cache.
    cache_hit_rate: float = 0.25
    #: Cache synchronisation overhead as a fraction of the raw bitrate.
    cache_overhead: float = 0.02
    #: Added encode/decode latency per frame (ms).
    encode_latency_ms: float = 6.0

    def __post_init__(self) -> None:
        for name in ("intra_ratio", "inter_ratio"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if not 0.0 <= self.cache_hit_rate < 1.0:
            raise ValueError("cache_hit_rate must lie in [0, 1)")
        if self.cache_overhead < 0:
            raise ValueError("cache_overhead must be non-negative")
        if self.encode_latency_ms < 0:
            raise ValueError("encode latency must be non-negative")

    @property
    def effective_ratio(self) -> float:
        """Remaining fraction of the raw bitrate after the pipeline."""
        return (self.intra_ratio * self.inter_ratio
                * (1.0 - self.cache_hit_rate) + self.cache_overhead)

    def compressed_mbps(self, bitrate_mbps: float) -> float:
        """Streamed rate for a raw bitrate."""
        if bitrate_mbps < 0:
            raise ValueError("bitrate must be non-negative")
        return bitrate_mbps * self.effective_ratio


#: Calibration in the regime LiveRender reports: roughly 2-3x bandwidth
#: reduction with a few ms of added pipeline latency.
LIVERENDER_LIKE = CompressionModel()
