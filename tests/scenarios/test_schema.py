"""Scenario schema: strict parsing, indexed errors, exact round trips."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan
from repro.scenarios import (BUILTIN_SCENARIOS, SECTION_OF, Scenario,
                             load_scenario)
from repro.workload.overrides import WorkloadOverrides

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def minimal(**extra) -> dict:
    payload = {"version": 1, "name": "t"}
    payload.update(extra)
    return payload


# -- round trips -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_builtin_round_trips_exactly(name):
    scenario = BUILTIN_SCENARIOS[name]
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_round_trip_through_json_text():
    scenario = BUILTIN_SCENARIOS["regional-isp-outage"]
    text = json.dumps(scenario.to_dict())
    assert Scenario.from_dict(json.loads(text)) == scenario


@pytest.mark.parametrize("example", ["esports_final.toml",
                                     "outage_scenario.json"])
def test_example_files_load_and_round_trip(example):
    scenario = load_scenario(EXAMPLES / example)
    assert Scenario.from_dict(scenario.to_dict()) == scenario


# -- strict key checking -----------------------------------------------------

def test_unknown_top_level_key_is_rejected_with_the_valid_list():
    with pytest.raises(ValueError,
                       match=r"scenario: unknown keys \['wrkload'\]"):
        Scenario.from_dict(minimal(wrkload={}))


def test_unknown_section_key_names_the_section():
    with pytest.raises(ValueError,
                       match=r"population: unknown keys \['playerz'\]"):
        Scenario.from_dict(minimal(population={"playerz": 5}))


def test_missing_name_is_rejected():
    with pytest.raises(ValueError, match="missing required key 'name'"):
        Scenario.from_dict({"version": 1})


def test_future_version_is_rejected():
    with pytest.raises(ValueError, match="unsupported scenario version 2"):
        Scenario.from_dict({"version": 2, "name": "t"})


# -- section validation ------------------------------------------------------

def test_weekly_weights_must_have_seven_entries():
    with pytest.raises(ValueError,
                       match=r"population\.weekly_weights: needs 7"):
        Scenario.from_dict(minimal(
            population={"weekly_weights": [1.0, 1.0]}))


def test_offpeak_share_must_be_a_share():
    with pytest.raises(ValueError,
                       match=r"population\.offpeak_share: must lie in "
                             r"\[0, 1\]"):
        Scenario.from_dict(minimal(population={"offpeak_share": 1.5}))


def test_unknown_game_weight_is_rejected():
    with pytest.raises(ValueError,
                       match=r"workload\.game_weights: unknown games "
                             r"\['Tetris'\]"):
        Scenario.from_dict(minimal(
            workload={"game_weights": {"Tetris": 1.0}}))


def test_flash_crowd_errors_carry_their_index():
    crowds = [{"day": 1, "subcycle": 2, "players": 5},
              {"day": 1, "subcycle": 2}]
    with pytest.raises(ValueError,
                       match=r"workload\.flash_crowds\[1\]\.players: "
                             r"missing required key"):
        Scenario.from_dict(minimal(workload={"flash_crowds": crowds}))


def test_flash_crowd_subcycle_is_one_based():
    with pytest.raises(ValueError,
                       match=r"workload\.flash_crowds\[0\]\.subcycle: is "
                             r"1-based"):
        Scenario.from_dict(minimal(workload={"flash_crowds": [
            {"day": 1, "subcycle": 0, "players": 5}]}))


def test_duration_shares_keep_the_section_prefix():
    with pytest.raises(ValueError, match=r"workload\.duration_shares:"):
        Scenario.from_dict(minimal(
            workload={"duration_shares": [0.9, 0.9, 0.9]}))


def test_unknown_testbed_and_variant_are_rejected():
    with pytest.raises(ValueError,
                       match="infrastructure: unknown testbed 'emulab'"):
        Scenario.from_dict(minimal(infrastructure={"testbed": "emulab"}))
    with pytest.raises(ValueError,
                       match="infrastructure: unknown variant 'P2P'"):
        Scenario.from_dict(minimal(infrastructure={"variant": "P2P"}))


def test_quality_ceiling_must_fit_the_ladder():
    with pytest.raises(ValueError,
                       match=r"streaming\.quality_ceiling: must be a "
                             r"ladder level in \[1, 5\], got 9"):
        Scenario.from_dict(minimal(streaming={"quality_ceiling": 9}))


@pytest.mark.parametrize("section, body, path", [
    ("population", {"start_offsets": [0, -3]}, "population.start_offsets"),
    ("population", {"daily_participants": 0},
     "population.daily_participants"),
    ("workload", {"game_weights": [["ArenaStrike", 1.0]]},
     "workload.game_weights"),
    ("workload", {"flash_crowds": [{"day": 1, "subcycle": 2, "players": 5,
                                    "game": "Tetris"}]},
     "workload.flash_crowds[0].game"),
    ("streaming", {"downlink_cap_mbps": -1.5},
     "streaming.downlink_cap_mbps"),
])
def test_workload_errors_name_their_document_path(section, body, path):
    with pytest.raises(ValueError, match=re.escape(path + ":")):
        Scenario.from_dict(minimal(**{section: body}))


def test_every_workload_field_has_one_document_section():
    workload_keys = {key for key in SECTION_OF
                     if key not in ("players", "rate_adaptation")}
    assert workload_keys == {item.name
                             for item in fields(WorkloadOverrides)}
    assert set(SECTION_OF.values()) == {"population", "workload",
                                        "streaming"}


def test_schedule_warmup_must_leave_a_measured_day():
    with pytest.raises(ValueError,
                       match=r"schedule: warmup_days \(4\) must leave"):
        Scenario.from_dict(minimal(schedule={"days": 4, "warmup_days": 4}))


# -- faults: inline vs reference --------------------------------------------

def test_inline_fault_plan_errors_keep_the_faults_prefix():
    with pytest.raises(ValueError, match=r"faults: events\[0\]"):
        Scenario.from_dict(minimal(
            faults={"events": [{"kind": "crash", "day": 0,
                                "subcycle": 1, "whoops": 2}]}))


def test_inline_fault_plan_missing_keys_become_value_errors():
    with pytest.raises(ValueError, match="faults:"):
        Scenario.from_dict(minimal(
            faults={"events": [{"kind": "crash"}]}))


def test_faults_ref_is_parsed_not_validated():
    scenario = Scenario.from_dict(minimal(
        faults={"ref": "plans/outage.json"}))
    assert scenario.faults is None
    assert scenario.faults_ref == "plans/outage.json"


def test_inline_plan_and_ref_are_mutually_exclusive():
    plan = FaultPlan.from_dict({"events": []})
    with pytest.raises(ValueError, match="not both"):
        Scenario(name="t", faults=plan, faults_ref="x.json")


# -- file loading ------------------------------------------------------------

def test_invalid_json_is_wrapped_with_the_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_scenario(path)


def test_invalid_toml_is_wrapped_with_the_path(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("name = [unclosed")
    with pytest.raises(ValueError, match="invalid TOML"):
        load_scenario(path)


def test_non_object_document_is_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must be a JSON/TOML object"):
        load_scenario(path)
