"""Compilation: scenario documents lower onto one SystemConfig."""

from pathlib import Path

import pytest

from repro.scenarios import BUILTIN_SCENARIOS, Scenario, get_scenario
from repro.scenarios.compile import compile_scenario
from repro.workload.overrides import FlashCrowdStage

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_builtin_compiles(name):
    compiled = compile_scenario(get_scenario(name))
    assert compiled.config.num_players > 0
    assert compiled.days == compiled.config.schedule.days
    assert compiled.label == f"scenario-{name}"


def test_flash_crowds_become_sweep_stages():
    compiled = compile_scenario(get_scenario("esports-final"))
    stages = compiled.config.workload.flash_crowds
    assert len(stages) == 2
    assert all(isinstance(stage, FlashCrowdStage) for stage in stages)
    assert stages[0].day == 2 and stages[0].subcycle == 20
    assert stages[0].game == "ArenaStrike"


def test_population_players_overrides_the_testbed():
    scenario = Scenario.from_dict({
        "version": 1, "name": "t", "population": {"players": 123},
        "schedule": {"days": 2, "warmup_days": 1}})
    compiled = compile_scenario(scenario)
    assert compiled.config.num_players == 123


def test_schedule_days_shrinks_the_default_warmup_to_fit():
    scenario = Scenario.from_dict({
        "version": 1, "name": "t", "schedule": {"days": 3}})
    compiled = compile_scenario(scenario)
    assert compiled.config.schedule.days == 3
    assert compiled.config.schedule.warmup_days == 2


def test_seed_parameter_overrides_the_document():
    scenario = get_scenario("esports-final")
    assert compile_scenario(scenario).config.seed == 7
    assert compile_scenario(scenario, seed=42).config.seed == 42


def test_rate_adaptation_override_lands_in_the_strategy_flags():
    compiled = compile_scenario(get_scenario("mobile-thin-clients"))
    assert compiled.config.strategies.rate_adaptation is True


def test_infrastructure_overrides_flow_into_the_config():
    scenario = Scenario.from_dict({
        "version": 1, "name": "t",
        "infrastructure": {"overrides": {"num_supernodes": 33}},
        "schedule": {"days": 2, "warmup_days": 1}})
    assert compile_scenario(scenario).config.num_supernodes == 33


def test_inline_faults_become_the_config_fault_plan():
    compiled = compile_scenario(get_scenario("regional-isp-outage"))
    plan = compiled.config.fault_plan
    assert plan is not None
    assert len(plan.events) == 3


def test_faults_ref_resolves_relative_to_base_dir():
    scenario = Scenario.from_dict({
        "version": 1, "name": "t",
        "faults": {"ref": "resilience_scenario.json"},
        "schedule": {"days": 5, "warmup_days": 1}})
    compiled = compile_scenario(scenario, base_dir=EXAMPLES)
    assert compiled.config.fault_plan is not None
    assert len(compiled.config.fault_plan.events) == 5


def test_missing_faults_ref_is_an_actionable_error():
    scenario = Scenario.from_dict({
        "version": 1, "name": "t",
        "faults": {"ref": "no/such/plan.json"}})
    with pytest.raises(ValueError, match=r"faults\.ref: cannot load"):
        compile_scenario(scenario, base_dir=EXAMPLES)


def test_configurator_installs_the_scenario_seams(monkeypatch):
    """The config carries the streaming limits and the flash crowds; a
    built state installs the crowds as its scenario stages, and the
    downlink cap applies where scoring reads the links, so the
    population itself is never mutated."""
    from repro.core import sweep
    from repro.core.scoring import gather_session_params
    from repro.core.system import CloudFogSystem

    compiled = compile_scenario(get_scenario("mobile-thin-clients"))
    assert compiled.configure is None
    workload = compiled.config.workload
    assert workload.quality_ceiling == 2
    assert workload.downlink_cap_mbps == 1.5
    system = CloudFogSystem(compiled.config)
    links = system.state.topology.player_links.download_mbps
    assert links.max() > 1.5
    scored = {}
    real = sweep.score_sessions

    def spy(state, day, sessions, loads, cloud_rate, rng):
        scored["receiver"] = gather_session_params(
            state, sessions, loads, cloud_rate).receiver_mbps
        return real(state, day, sessions, loads, cloud_rate, rng)

    monkeypatch.setattr(sweep, "score_sessions", spy)
    system.run(days=1)
    assert 0 < scored["receiver"].max() <= 1.5
    assert links.max() > 1.5
    crowds = compile_scenario(get_scenario("esports-final")).config
    assert CloudFogSystem(crowds).state.scenario_stages \
        == crowds.workload.flash_crowds


def test_configurator_is_picklable_for_sharded_workers():
    """Worker processes receive the config, workload value included."""
    import pickle

    for name in BUILTIN_SCENARIOS:
        config = compile_scenario(get_scenario(name)).config
        assert pickle.loads(pickle.dumps(config)) == config


def _with_overrides(overrides: dict) -> Scenario:
    return Scenario.from_dict({
        "version": 1, "name": "t",
        "infrastructure": {"overrides": overrides},
        "schedule": {"days": 2, "warmup_days": 1}})


def test_unknown_infrastructure_override_is_refused():
    with pytest.raises(ValueError,
                       match=r"^infrastructure\.overrides: unknown key "
                             r"'num_supernodez'"):
        compile_scenario(_with_overrides({"num_supernodez": 3}))


@pytest.mark.parametrize("key, value", [
    ("seed", 3),
    ("num_players", 50),
    ("schedule", None),
    ("fault_plan", None),
    ("workload", None),
])
def test_infrastructure_overrides_may_not_set_other_sections(key, value):
    with pytest.raises(ValueError,
                       match=rf"^infrastructure\.overrides: '{key}' is set "
                             rf"by the document's"):
        compile_scenario(_with_overrides({key: value}))


@pytest.mark.parametrize("key, value, expected", [
    ("num_supernodes", "many", "int"),
    ("num_supernodes", 2.5, "int"),
    ("num_supernodes", True, "int"),
    ("aging_factor", "high", "float or int"),
    ("cloud_compression", 1, "bool"),
    ("supernode_capacity_override", "4", "int or None"),
    ("strategies", {"rate_adaptation": True}, "StrategyFlags"),
])
def test_wrong_typed_infrastructure_override_is_refused(key, value,
                                                        expected):
    with pytest.raises(ValueError,
                       match=rf"^infrastructure\.overrides: {key} must be "
                             rf"{expected}, got "):
        compile_scenario(_with_overrides({key: value}))


@pytest.mark.parametrize("overrides, path", [
    ({"num_supernodes": -1}, "num_supernodes"),
    ({"aging_factor": 1.5, "num_supernodes": 3}, "aging_factor"),
    ({"throttle_50_share": 0.9}, "throttle_50_share"),
])
def test_override_range_error_names_its_document_path(overrides, path):
    with pytest.raises(ValueError,
                       match=rf"^infrastructure\.overrides\.{path}: "):
        compile_scenario(_with_overrides(overrides))


def test_right_typed_infrastructure_overrides_compile():
    config = compile_scenario(_with_overrides({
        "supernode_capable_share": 1, "aging_factor": 0.9,
        "supernode_capacity_override": None, "cloud_compression": True,
    })).config
    assert config.supernode_capable_share == 1
    assert config.aging_factor == 0.9
    assert config.cloud_compression is True


def _with_crowd(day: int, subcycle: int) -> Scenario:
    return Scenario.from_dict({
        "version": 1, "name": "t", "schedule": {"days": 3},
        "workload": {"flash_crowds": [
            {"day": 0, "subcycle": 20, "players": 5},
            {"day": day, "subcycle": subcycle, "players": 5}]}})


@pytest.mark.parametrize("day, subcycle, field", [
    (9, 30, "day"),
    (3, 20, "day"),
    (2, 25, "subcycle"),
])
def test_flash_crowd_outside_the_run_is_refused(day, subcycle, field):
    with pytest.raises(ValueError,
                       match=rf"^workload\.flash_crowds\[1\]\.{field}: "):
        compile_scenario(_with_crowd(day, subcycle))


def test_flash_crowd_on_the_last_hour_of_the_last_day_compiles():
    crowds = compile_scenario(_with_crowd(2, 24)).config.workload.flash_crowds
    assert (crowds[1].day, crowds[1].subcycle) == (2, 24)
