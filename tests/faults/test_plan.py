"""Fault plan construction, lookup, generation and (de)serialisation."""

import json

import pytest

from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan, load_fault_plan


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=1, kind="meteor")
    with pytest.raises(ValueError):
        FaultEvent(day=-1, subcycle=1, kind="crash")
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=0, kind="crash")  # subcycles are 1-based
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=1, kind="crash", count=0)
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=1, kind="lose_updates", severity=1.5)
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=1, kind="lose_updates",
                   duration_subcycles=0)
    with pytest.raises(ValueError):
        FaultEvent(day=0, subcycle=1, kind="degrade_link", extra_ms=-1.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(ambient_loss_boost=0.5)
    with pytest.raises(ValueError):
        FaultPlan(transient_refusal_prob=1.0)


# -- correlated-domain kinds -------------------------------------------

def test_correlated_event_validation():
    with pytest.raises(ValueError, match="dc_outage requires a datacenter"):
        FaultEvent(day=0, subcycle=1, kind="dc_outage")
    with pytest.raises(ValueError, match="requires radius_km"):
        FaultEvent(day=0, subcycle=1, kind="regional_outage", datacenter=0)
    with pytest.raises(ValueError, match="center_x_km"):
        FaultEvent(day=0, subcycle=1, kind="regional_outage", radius_km=5.0)
    with pytest.raises(ValueError, match="radius_km must be positive"):
        FaultEvent(day=0, subcycle=1, kind="regional_outage",
                   datacenter=0, radius_km=0.0)
    with pytest.raises(ValueError, match="warning_subcycles"):
        FaultEvent(day=0, subcycle=1, kind="preempt", warning_subcycles=-1)
    with pytest.raises(ValueError, match="datacenter must be non-negative"):
        FaultEvent(day=0, subcycle=1, kind="dc_outage", datacenter=-1)
    # A center alone (no datacenter) is a complete regional target.
    FaultEvent(day=0, subcycle=1, kind="regional_outage",
               center_x_km=10.0, center_y_km=20.0, radius_km=5.0)


def test_overlapping_partition_windows_rejected():
    a = FaultEvent(day=1, subcycle=4, kind="partition",
                   duration_subcycles=6)  # covers 4..9
    b = FaultEvent(day=1, subcycle=9, kind="partition",
                   duration_subcycles=2)
    with pytest.raises(ValueError, match="overlapping partition windows"):
        FaultPlan(events=(a, b))
    # Same windows on different days coexist fine.
    FaultPlan(events=(a, FaultEvent(day=2, subcycle=9, kind="partition",
                                    duration_subcycles=2)))
    # Back-to-back windows on one day don't overlap.
    FaultPlan(events=(a, FaultEvent(day=1, subcycle=10, kind="partition",
                                    duration_subcycles=2)))


def test_validate_for_rejects_out_of_range_targets():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=30, kind="crash"),))
    with pytest.raises(ValueError,
                       match=r"events\[0\].*subcycle 30 is out of range"):
        plan.validate_for(hours_per_day=24, num_datacenters=3)
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=5, kind="crash"),
        FaultEvent(day=1, subcycle=5, kind="dc_outage", datacenter=7),))
    with pytest.raises(ValueError,
                       match=r"events\[1\].*datacenter 7 is out of range"):
        plan.validate_for(hours_per_day=24, num_datacenters=3)
    plan.validate_for(hours_per_day=24, num_datacenters=8)  # in range


def test_validate_for_rejects_window_end_overrunning_the_day():
    """A window end past the last subcycle is rejected, not silently
    truncated mid-sweep: subcycle 20 + 6 subcycles ends at 25 > 24."""
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=2, kind="crash"),
        FaultEvent(day=1, subcycle=20, kind="lose_updates",
                   severity=0.4, duration_subcycles=6),))
    with pytest.raises(ValueError,
                       match=r"events\[1\].*window \[20, 25\].*overruns"):
        plan.validate_for(hours_per_day=24, num_datacenters=3)
    # The message is actionable: it names the largest duration that
    # still fits ("run to the end of the day").
    with pytest.raises(ValueError, match=r"duration_subcycles <= 5"):
        plan.validate_for(hours_per_day=24, num_datacenters=3)


def test_validate_for_accepts_window_running_to_day_end():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=20, kind="partition",
                   duration_subcycles=5),))  # covers 20..24 exactly
    plan.validate_for(hours_per_day=24, num_datacenters=3)
    # The same window overruns a shorter day.
    with pytest.raises(ValueError, match=r"events\[0\].*overruns"):
        plan.validate_for(hours_per_day=22, num_datacenters=3)


def test_window_overrun_fails_at_system_construction():
    from repro.core import CloudFogSystem
    from repro.core.config import cloudfog_advanced

    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=23, kind="partition",
                   duration_subcycles=4),))
    config = cloudfog_advanced(num_players=30, num_supernodes=4,
                               fault_plan=plan)
    with pytest.raises(ValueError, match=r"window \[23, 26\]"):
        CloudFogSystem(config)


def test_system_adoption_runs_validate_for():
    """A scenario authored against the wrong topology fails at system
    construction, not deep inside the sweep."""
    from repro.core import CloudFogSystem
    from repro.core.config import cloudfog_advanced

    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=1, kind="dc_outage", datacenter=9),))
    config = cloudfog_advanced(num_players=30, num_supernodes=4,
                               num_datacenters=2, fault_plan=plan)
    with pytest.raises(ValueError, match="datacenter 9 is out of range"):
        CloudFogSystem(config)


def test_admission_and_healing_validation():
    from repro.faults.plan import AdmissionPolicy, HealingPolicy

    with pytest.raises(ValueError):
        AdmissionPolicy(max_cloud_sessions=-1)
    with pytest.raises(ValueError):
        HealingPolicy(delay_subcycles=0)
    with pytest.raises(ValueError):
        HealingPolicy(replacement_share=0.0)
    with pytest.raises(ValueError):
        HealingPolicy(replacement_share=1.5)


def test_events_at_and_has_events_on():
    a = FaultEvent(day=0, subcycle=5, kind="crash")
    b = FaultEvent(day=0, subcycle=5, kind="flaky")
    c = FaultEvent(day=2, subcycle=1, kind="crash")
    plan = FaultPlan(events=(a, b, c))
    assert plan.events_at(0, 5) == (a, b)
    assert plan.events_at(0, 6) == ()
    assert plan.events_at(1, 5) == ()
    assert plan.has_events_on(0)
    assert not plan.has_events_on(1)
    assert plan.has_events_on(2)
    assert len(plan) == 3


def test_poisson_schedule_is_seed_deterministic():
    one = FaultPlan.poisson(2.0, days=5, seed=11)
    two = FaultPlan.poisson(2.0, days=5, seed=11)
    other = FaultPlan.poisson(2.0, days=5, seed=12)
    assert one.events == two.events
    assert one.events != other.events
    for event in one.events:
        assert event.kind == "crash"
        assert 0 <= event.day < 5
        assert 1 <= event.subcycle <= 24


def test_poisson_rate_zero_is_empty():
    assert len(FaultPlan.poisson(0.0, days=10, seed=0)) == 0


def test_json_round_trip(tmp_path):
    plan = FaultPlan(
        events=(FaultEvent(day=1, subcycle=20, kind="lose_updates",
                           severity=0.25, duration_subcycles=2),),
        ambient_loss_boost=0.02,
        transient_refusal_prob=0.1)
    path = tmp_path / "scenario.json"
    path.write_text(plan.to_json())
    loaded = load_fault_plan(path)
    assert loaded == plan


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault plan keys"):
        FaultPlan.from_dict({"events": [], "chaos_level": 11})


def test_from_dict_refuses_a_retry_policy():
    """A displaced player makes one selection round (§3.2.2); a plan
    that still configures backoff retries is refused by key."""
    with pytest.raises(ValueError, match=r"unknown fault plan keys: "
                                         r"\['retry'\]"):
        FaultPlan.from_dict({"events": [], "retry": {"max_attempts": 3}})


def test_from_dict_rejects_unknown_event_keys_with_valid_list():
    with pytest.raises(ValueError) as excinfo:
        FaultPlan.from_dict({"events": [
            {"kind": "crash", "day": 0, "subcycle": 1, "blast": 3}]})
    message = str(excinfo.value)
    assert "events[0]" in message and "blast" in message
    assert "valid keys" in message  # actionable: lists what is accepted


def test_from_dict_prefixes_event_errors_with_index():
    with pytest.raises(ValueError, match=r"events\[1\]: unknown fault "
                                         r"kind 'meteor'"):
        FaultPlan.from_dict({"events": [
            {"kind": "crash", "day": 0, "subcycle": 1},
            {"kind": "meteor", "day": 0, "subcycle": 2}]})


def test_policies_round_trip_through_json(tmp_path):
    from repro.faults.plan import AdmissionPolicy, HealingPolicy

    plan = FaultPlan(
        events=(FaultEvent(day=0, subcycle=6, kind="preempt", count=3,
                           warning_subcycles=2),
                FaultEvent(day=1, subcycle=8, kind="regional_outage",
                           center_x_km=12.0, center_y_km=30.0,
                           radius_km=8.0),
                FaultEvent(day=1, subcycle=14, kind="partition",
                           duration_subcycles=4)),
        admission=AdmissionPolicy(max_cloud_sessions=50),
        healing=HealingPolicy(delay_subcycles=3, replacement_share=0.5))
    path = tmp_path / "scenario.json"
    path.write_text(plan.to_json())
    assert load_fault_plan(path) == plan
    # Plans without the policies omit the keys entirely (old format).
    bare = FaultPlan()
    assert "admission" not in bare.to_dict()
    assert "healing" not in bare.to_dict()


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        load_fault_plan(path)


def test_example_scenario_parses():
    """The shipped example stays loadable and uses only known kinds."""
    from pathlib import Path

    path = (Path(__file__).parent.parent.parent
            / "examples" / "chaos_scenario.json")
    plan = load_fault_plan(path)
    assert len(plan) > 0
    assert all(event.kind in FAULT_KINDS for event in plan.events)
