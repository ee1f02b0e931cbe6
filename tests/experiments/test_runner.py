"""Tests for the experiment runner and variant mapping."""

import pytest

from repro.core.config import StrategyFlags
from repro.experiments.runner import (
    VARIANTS,
    build_system,
    run_variant,
    variant_config,
)
from repro.experiments.testbeds import peersim


@pytest.fixture(scope="module")
def testbed():
    return peersim(0.002)  # 200 players


def test_variant_names_cover_the_paper(testbed):
    assert VARIANTS == ("Cloud", "CDN-small", "CDN", "CloudFog/B",
                       "CloudFog/A")


def test_cloud_variant(testbed):
    config = variant_config("Cloud", testbed, seed=0)
    assert config.mode == "cloud"
    assert config.num_supernodes == 0


def test_cdn_variant_halves_supernode_count(testbed):
    config = variant_config("CDN", testbed, seed=0)
    assert config.mode == "cdn"
    assert config.num_cdn_servers == max(2, testbed.num_supernodes // 2)


def test_cdn_small_variant(testbed):
    config = variant_config("CDN-small", testbed, seed=0)
    assert config.num_cdn_servers == max(2, testbed.num_supernodes // 8)


@pytest.mark.parametrize("variant", ["CDN", "CDN-small"])
def test_cdn_variants_demand_a_supernode_budget(testbed, variant):
    """Regression: omitting num_supernodes used to silently build a
    2-server CDN (max(2, 0 // 2)) instead of deriving the site count
    from the CloudFog budget — now it is an actionable error."""
    with pytest.raises(ValueError, match="num_supernodes"):
        variant_config(variant, testbed, seed=0, num_supernodes=0)
    # The message says how to fix it, naming the failing variant.
    with pytest.raises(ValueError, match=variant):
        variant_config(variant, testbed, seed=0, num_supernodes=0)
    # An explicit budget override is honoured by both variants.
    divisor = 2 if variant == "CDN" else 8
    config = variant_config(variant, testbed, seed=0, num_supernodes=40)
    assert config.num_cdn_servers == max(2, 40 // divisor)
    assert config.num_supernodes == 0  # a CDN runs no fog layer


def test_cloudfog_variants_differ_by_strategies(testbed):
    basic = variant_config("CloudFog/B", testbed, seed=0)
    advanced = variant_config("CloudFog/A", testbed, seed=0)
    assert basic.strategies == StrategyFlags.none()
    assert advanced.strategies == StrategyFlags.all()
    assert basic.num_supernodes == testbed.num_supernodes


def test_unknown_variant_rejected(testbed):
    with pytest.raises(ValueError):
        variant_config("P2P", testbed, seed=0)


def test_overrides_win(testbed):
    config = variant_config("CloudFog/B", testbed, seed=0, num_players=123)
    assert config.num_players == 123


def test_build_and_run(testbed):
    system = build_system("CloudFog/B", testbed, seed=1)
    assert system.state.config.num_players == testbed.num_players
    result = run_variant("Cloud", testbed, seed=1, days=2)
    assert result.days
    with pytest.raises(ValueError):
        run_variant("Cloud", testbed, days=0)
