"""Tests for the LiveRender-style compression model."""

import pytest

from repro.streaming.compression import LIVERENDER_LIKE, CompressionModel


def test_default_pipeline_halves_bandwidth_or_better():
    """The LiveRender regime: roughly 2-3x bandwidth reduction."""
    ratio = LIVERENDER_LIKE.effective_ratio
    assert 0.25 < ratio < 0.55


def test_compressed_rate_scales_linearly():
    model = CompressionModel()
    assert model.compressed_mbps(2.0) == pytest.approx(
        2.0 * model.effective_ratio)
    assert model.compressed_mbps(0.0) == 0.0
    with pytest.raises(ValueError):
        model.compressed_mbps(-1.0)


def test_each_stage_contributes():
    no_cache = CompressionModel(cache_hit_rate=0.0, cache_overhead=0.0)
    with_cache = CompressionModel(cache_hit_rate=0.25, cache_overhead=0.0)
    assert with_cache.effective_ratio < no_cache.effective_ratio


def test_validation():
    with pytest.raises(ValueError):
        CompressionModel(intra_ratio=0.0)
    with pytest.raises(ValueError):
        CompressionModel(inter_ratio=1.5)
    with pytest.raises(ValueError):
        CompressionModel(cache_hit_rate=1.0)
    with pytest.raises(ValueError):
        CompressionModel(cache_overhead=-0.1)
    with pytest.raises(ValueError):
        CompressionModel(encode_latency_ms=-1.0)


def test_system_comparison_matches_section_2_claim():
    """§2: compression 'only reduces the bandwidth' — it cannot fix the
    response path the way the fog does."""
    from repro.core import (
        CloudFogSystem,
        cloud_compressed,
        cloud_only,
        cloudfog_basic,
    )

    scale = dict(num_players=300, seed=11)
    cloud = CloudFogSystem(cloud_only(**scale)).run(days=2)
    liverender = CloudFogSystem(cloud_compressed(**scale)).run(days=2)
    fog = CloudFogSystem(
        cloudfog_basic(num_supernodes=25, **scale)).run(days=2)

    # Bandwidth: Cloud > LiveRender > CloudFog.
    assert (cloud.mean_cloud_bandwidth_mbps
            > liverender.mean_cloud_bandwidth_mbps
            > fog.mean_cloud_bandwidth_mbps)
    # Latency: compression does not shorten the path (the encode stage
    # even adds a little); only the fog moves the video source closer.
    assert (liverender.mean_response_latency_ms
            >= cloud.mean_response_latency_ms - 1.0)
    assert fog.mean_response_latency_ms < cloud.mean_response_latency_ms
