"""Supernode rendering capability — §3.1.1's hardware requirement.

"Rendering game video is relatively less hardware demanding than
computation and communication in MMOG; most modern computers with
discrete graphics cards are sufficient to meet the rendering
requirement", and "the emerging technique of rendering multiple videos
makes it possible for a supernode to support multiple players
simultaneously" [26, 27].

This module models that concretely: a GPU tier has a per-frame render
budget; each concurrent stream costs render time proportional to its
pixel count at 30 fps.  A supernode's *render capacity* (how many
streams it can draw) combines with its *bandwidth capacity* (how many it
can upload) — the effective player capacity is the minimum of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..streaming.video import FRAME_RATE_FPS, QUALITY_LADDER, QualityLevel

__all__ = ["GpuTier", "RenderCapability", "sample_gpu_tiers"]


class GpuTier(Enum):
    """Desktop GPU classes among supernode contributors."""

    INTEGRATED = "integrated"
    MAINSTREAM = "mainstream"
    ENTHUSIAST = "enthusiast"


#: Megapixels a GPU tier can render per second for game scenes (drawing
#: + encode), calibrated so a mainstream discrete card comfortably draws
#: several 720p streams at 30 fps — the paper's premise.
_MEGAPIXELS_PER_SECOND = {
    GpuTier.INTEGRATED: 30.0,
    GpuTier.MAINSTREAM: 250.0,
    GpuTier.ENTHUSIAST: 700.0,
}

#: Contributor mix: most donated desktops are mainstream machines.
_TIER_WEIGHTS = {
    GpuTier.INTEGRATED: 0.25,
    GpuTier.MAINSTREAM: 0.60,
    GpuTier.ENTHUSIAST: 0.15,
}


@dataclass(frozen=True)
class RenderCapability:
    """One machine's rendering budget."""

    tier: GpuTier

    @property
    def megapixels_per_second(self) -> float:
        return _MEGAPIXELS_PER_SECOND[self.tier]

    def stream_cost_mpps(self, quality: QualityLevel,
                         fps: int = FRAME_RATE_FPS) -> float:
        """Megapixels/second one stream of this quality consumes."""
        if fps <= 0:
            raise ValueError("fps must be positive")
        return quality.width * quality.height * fps / 1e6

    def max_streams(self, quality: QualityLevel,
                    fps: int = FRAME_RATE_FPS) -> int:
        """Concurrent streams of one quality this machine can render."""
        cost = self.stream_cost_mpps(quality, fps)
        return max(0, int(self.megapixels_per_second / cost))

    def render_capacity(self, fps: int = FRAME_RATE_FPS) -> int:
        """Player capacity assuming the mid-ladder level-3 stream mix."""
        return self.max_streams(QUALITY_LADDER[2], fps)

    def meets_supernode_requirement(self) -> bool:
        """§3.1.1: a supernode must render several streams at once.

        Integrated graphics can draw a couple of low-res streams but not
        the multi-player load the paper assumes, so only discrete tiers
        qualify.
        """
        return self.render_capacity() >= 4


def sample_gpu_tiers(rng: np.random.Generator, n: int) -> list[GpuTier]:
    """Sample contributor GPU tiers from the desktop mix."""
    if n < 0:
        raise ValueError("n must be non-negative")
    tiers = list(_TIER_WEIGHTS)
    weights = np.array([_TIER_WEIGHTS[t] for t in tiers])
    picks = rng.choice(len(tiers), size=n, p=weights / weights.sum())
    return [tiers[int(i)] for i in picks]
