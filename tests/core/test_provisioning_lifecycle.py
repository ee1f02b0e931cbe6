"""Lifecycle tests for dynamic provisioning inside a running system."""

import pytest

from repro.core import (CloudFogSystem, StrategyFlags, cloudfog_advanced,
                        cloudfog_basic, sweep)
from repro.core.lifecycle import bring_online, take_offline
from repro.workload.overrides import WorkloadOverrides


def provisioning_only(**overrides):
    flags = StrategyFlags(reputation_selection=False, rate_adaptation=False,
                          social_assignment=False, dynamic_provisioning=True)
    return cloudfog_basic(**overrides).with_(strategies=flags)


def test_dynamic_provisioning_redeploys_after_one_season():
    config = provisioning_only(num_players=150, num_supernodes=4,
                               provisioning_window_hours=8, seed=2)
    system = CloudFogSystem(config)
    assert system.state.provisioner is not None
    result = system.run(days=8)  # one 21-window season + one day
    assert system.state.provisioner.ready
    # After the season the live set follows Eq. 15 for the last window's
    # forecast, not the configured num_supernodes.
    expected = min(system.state.provisioner.target_supernodes(),
                   len(system.state.supernode_pool))
    assert len(system.state.live_supernodes) == expected
    assert result.days  # the run still measured


def test_supernode_join_samples_come_from_the_initial_deployment(
        monkeypatch):
    """Redeploys and heals add no supernode-join samples: a result
    copies the list once, at run start, so later samples would reach
    only the checkpoint."""
    redeploys = []
    real_deploy = sweep.deploy

    def counting_deploy(state, supernode_ids):
        redeploys.append(len(supernode_ids))
        real_deploy(state, supernode_ids)

    monkeypatch.setattr(sweep, "deploy", counting_deploy)
    system = CloudFogSystem(cloudfog_advanced(num_players=300,
                                              num_supernodes=18, seed=5))
    result = system.run(days=9)
    assert len(redeploys) > 1  # provisioning redeployed every window
    assert len(system.state.supernode_join_latencies_ms) == 18
    assert result.supernode_join_latencies_ms \
        == system.state.supernode_join_latencies_ms
    healed = list(system.state.live_supernodes[:3])
    take_offline(system.state, healed)
    bring_online(system.state, healed)
    assert len(system.state.supernode_join_latencies_ms) == 18


def test_fixed_mode_never_changes_live_set():
    config = cloudfog_basic(num_players=150, num_supernodes=6, seed=2)
    system = CloudFogSystem(config)
    assert system.state.provisioner is None
    live_before = list(system.state.live_supernodes)
    system.run(days=3)
    live_after = list(system.state.live_supernodes)
    assert live_before == live_after


def test_provisioned_target_tracks_population():
    """More daily participants => more supernodes deployed."""
    def live_after(participants):
        config = provisioning_only(
            num_players=400, num_supernodes=4, provisioning_window_hours=8,
            seed=2,
            workload=WorkloadOverrides(daily_participants=participants))
        system = CloudFogSystem(config)
        system.run(days=8)
        return len(system.state.live_supernodes)

    assert live_after(350) > live_after(80)


def test_run_rejects_nonpositive_days():
    system = CloudFogSystem(cloudfog_basic(num_players=60,
                                           num_supernodes=4, seed=1))
    with pytest.raises(ValueError):
        system.run(days=0)
