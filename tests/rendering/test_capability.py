"""Tests for GPU rendering capability."""

import numpy as np
import pytest

from repro.rendering.capability import (
    GpuTier,
    RenderCapability,
    sample_gpu_tiers,
)
from repro.streaming.video import QUALITY_LADDER, get_level


def test_discrete_cards_meet_the_requirement():
    """§3.1.1: 'most modern computers with discrete graphics cards are
    sufficient'."""
    assert RenderCapability(GpuTier.MAINSTREAM).meets_supernode_requirement()
    assert RenderCapability(GpuTier.ENTHUSIAST).meets_supernode_requirement()


def test_integrated_graphics_do_not_qualify():
    assert not RenderCapability(
        GpuTier.INTEGRATED).meets_supernode_requirement()


def test_stream_cost_scales_with_resolution():
    cap = RenderCapability(GpuTier.MAINSTREAM)
    low = cap.stream_cost_mpps(get_level(1))     # 288x216
    high = cap.stream_cost_mpps(get_level(5))    # 1280x720
    assert high > 10 * low
    with pytest.raises(ValueError):
        cap.stream_cost_mpps(get_level(1), fps=0)


def test_max_streams_ordering_across_tiers():
    level = get_level(3)
    counts = [RenderCapability(t).max_streams(level)
              for t in (GpuTier.INTEGRATED, GpuTier.MAINSTREAM,
                        GpuTier.ENTHUSIAST)]
    assert counts == sorted(counts)
    assert counts[1] >= 10  # a mainstream card renders many 480p streams


def test_can_render_mix():
    """Integrated graphics render a low-res stream, not ten 720p ones."""
    cap = RenderCapability(GpuTier.INTEGRATED)
    assert cap.max_streams(get_level(1)) >= 1
    assert cap.max_streams(get_level(5)) < 10


def test_render_capacity_uses_mid_ladder():
    cap = RenderCapability(GpuTier.MAINSTREAM)
    assert cap.render_capacity() == cap.max_streams(QUALITY_LADDER[2])


def test_sample_gpu_tiers_mix():
    rng = np.random.default_rng(0)
    tiers = sample_gpu_tiers(rng, 10000)
    share_mainstream = tiers.count(GpuTier.MAINSTREAM) / len(tiers)
    assert 0.55 < share_mainstream < 0.65
    with pytest.raises(ValueError):
        sample_gpu_tiers(rng, -1)
    assert sample_gpu_tiers(rng, 0) == []


def test_system_pool_respects_render_limits():
    """Supernodes in a built system all have qualifying GPUs and
    capacities bounded by their render budgets."""
    from repro.core import CloudFogSystem, cloudfog_basic
    system = CloudFogSystem(cloudfog_basic(num_players=300,
                                           num_supernodes=10, seed=2))
    pool = system.state.supernode_pool
    assert pool
    for tier, capacity in zip(pool.gpu_tier, pool.capacity.tolist()):
        cap = RenderCapability(tier)
        assert cap.meets_supernode_requirement()
        assert capacity <= cap.render_capacity()
