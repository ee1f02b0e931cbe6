"""Rendering substrate: supernode GPU capability."""

from .capability import GpuTier, RenderCapability, sample_gpu_tiers

__all__ = [
    "GpuTier",
    "RenderCapability",
    "sample_gpu_tiers",
]
