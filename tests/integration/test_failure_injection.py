"""Failure-injection tests: the system degrades gracefully, never breaks.

Every failure here is a seeded in-run crash (a :class:`FaultPlan`
event), so it lands on streaming sessions, walks them down the §3.2.2
reconnect ladder and is accounted once, in ``RunResult.faults``.
"""

from repro.core import CloudFogSystem, cloudfog_advanced, cloudfog_basic
from repro.core.entities import ConnectionKind
from repro.faults.plan import FaultEvent, FaultPlan

from ..helpers.invariants import bookkeeping_stage


def _crashes(*waves) -> FaultPlan:
    """A plan of ``(day, subcycle, count)`` crash waves."""
    return FaultPlan(events=tuple(
        FaultEvent(day=day, subcycle=subcycle, kind="crash", count=count)
        for day, subcycle, count in waves))


def _checked(config, log=None) -> CloudFogSystem:
    """A system whose bookkeeping is asserted after every subcycle."""
    system = CloudFogSystem(config)
    system.state.scenario_stages = (bookkeeping_stage(log),)
    return system


def test_total_fog_outage_falls_back_to_cloud():
    """Every supernode dies; the next day still serves every player."""
    system = _checked(cloudfog_basic(
        num_players=200, num_supernodes=12, seed=5,
        fault_plan=_crashes((0, 21, 12))))
    result = system.run(days=2)
    assert system.state.live_supernodes == []
    assert result.faults.displaced > 0
    assert result.faults.conserved()
    (day,) = result.days
    assert day.online_players > 0
    assert day.supernode_players == 0
    assert day.cloud_players == day.online_players


def test_partial_outage_migrates_and_keeps_serving():
    system = _checked(cloudfog_basic(
        num_players=300, num_supernodes=20, seed=5,
        fault_plan=_crashes((1, 21, 10))))
    result = system.run(days=3)
    assert len(system.state.live_supernodes) == 10
    # Every displacement is accounted for: recovered onto a survivor,
    # or degraded to the cloud when the survivors had no room — never
    # silently lost.
    summary = result.faults
    assert summary.displaced > 0
    assert summary.recovered > 0
    assert summary.conserved()
    assert summary.recovered == len(summary.time_to_recover_ms)
    kinds = {r.kind for r in result.sessions}
    assert ConnectionKind.SUPERNODE in kinds  # survivors still serve


def test_failed_supernodes_never_get_new_connections():
    system = _checked(cloudfog_basic(
        num_players=200, num_supernodes=10, seed=5,
        fault_plan=_crashes((0, 12, 5))))
    deployed = set(system.state.live_supernodes)
    result = system.run(days=2)
    dead = deployed - set(system.state.live_supernodes)
    assert len(dead) == 5
    served = {r.target for r in result.sessions
              if r.kind is ConnectionKind.SUPERNODE}
    assert served
    assert not served & dead


def test_repeated_failures_are_stable():
    """Failing in waves never corrupts bookkeeping."""
    log: list = []
    system = _checked(cloudfog_basic(
        num_players=200, num_supernodes=16, seed=5,
        fault_plan=_crashes((0, 8, 3), (0, 12, 3), (0, 16, 3),
                            (0, 20, 2),
                            # More failures than survivors is clamped.
                            (1, 10, 999))), log)
    deployed = len(system.state.live_supernodes)
    result = system.run(days=2)
    assert system.state.live_supernodes == []
    assert result.faults.events_applied == 5
    assert result.faults.conserved()
    live_after = {(day, subcycle): live for day, subcycle, live in log}
    assert [live_after[instant] for instant in
            ((0, 8), (0, 12), (0, 16), (0, 20), (1, 10))] == \
        [deployed - 3, deployed - 6, deployed - 9, deployed - 11, 0]


def test_advanced_system_survives_outage_with_provisioning():
    """CloudFog/A redeploys from the pool after a total outage."""
    log: list = []
    system = _checked(cloudfog_advanced(
        num_players=300, num_supernodes=18, seed=5,
        fault_plan=_crashes((7, 24, 999))), log)
    # Eight days warm the provisioner past its one-week season.
    result = system.run(days=9)
    assert result.faults.displaced > 0
    assert result.faults.conserved()
    live_after = {(day, subcycle): live for day, subcycle, live in log}
    assert live_after[(7, 24)] == 0
    # Provisioning redeployed: the next day serves from the fog again.
    assert live_after[(8, 1)] > 0
    kinds = {r.kind for r in result.sessions}
    assert ConnectionKind.SUPERNODE in kinds
