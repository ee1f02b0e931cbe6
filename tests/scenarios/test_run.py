"""End-to-end scenario runs and the ``scenario`` CLI."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.slo import default_policy
from repro.scenarios import Scenario
from repro.scenarios.run import run_scenario, scenario_main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def tiny(**extra) -> Scenario:
    payload = {
        "version": 1, "name": "tiny", "seed": 5,
        "population": {"daily_participants": 60},
        "schedule": {"days": 3, "warmup_days": 1},
    }
    payload.update(extra)
    return Scenario.from_dict(payload)


def test_run_scenario_produces_the_json_report():
    report = run_scenario(tiny())
    assert report["scenario"] == "tiny"
    assert report["variant"] == "CloudFog/A"
    assert report["measured_days"] == 2
    assert report["results"]["sessions"] > 0
    assert 0 <= report["results"]["supernode_coverage"] <= 1
    assert report["slo"]["policy"] == "cloudfog-default"
    assert isinstance(report["slo"]["ok"], bool)
    assert report["economics"]["num_supernodes"] > 0
    json.dumps(report)  # the whole report must be JSON-serialisable


def test_flash_crowd_inflates_the_session_count():
    quiet = run_scenario(tiny())
    spiked = run_scenario(tiny(
        name="tiny-spiked",
        workload={"flash_crowds": [
            {"day": 1, "subcycle": 20, "players": 50}]}))
    assert spiked["results"]["sessions"] >= \
        quiet["results"]["sessions"] + 40


def test_days_and_seed_overrides_reach_the_run():
    report = run_scenario(tiny(), days=2, seed=77)
    assert report["days"] == 2
    assert report["seed"] == 77


def test_sharded_run_is_deterministic_across_shard_counts():
    scenario = tiny(name="tiny-sharded",
                    workload={"flash_crowds": [
                        {"day": 1, "subcycle": 20, "players": 30}]})
    two = run_scenario(scenario, shards=2)
    four = run_scenario(scenario, shards=4)
    assert two["results"] == four["results"]
    assert two["faults"] == four["faults"]


def test_sharded_run_reports_no_slo_verdict(tmp_path, monkeypatch):
    """A sharded run's time series stays in its workers: the report
    says so with ``"slo": None`` (an empty series would read as a
    vacuous pass), observability is not forced on, and an SLO policy
    or a telemetry bundle, which would have no series, is refused."""
    def forced(*args, **kwargs):
        raise AssertionError("a sharded scenario run enabled observability")

    monkeypatch.setattr(obs, "enable", forced)
    report = run_scenario(tiny(), shards=2)
    assert report["slo"] is None
    assert report["results"]["sessions"] > 0
    with pytest.raises(ValueError, match="--obs-dir.*ROADMAP item 1"):
        run_scenario(tiny(), shards=2, obs_dir=tmp_path / "rundir")
    assert not (tmp_path / "rundir").exists()
    with pytest.raises(ValueError, match="--slo.*ROADMAP item 1"):
        run_scenario(tiny(), shards=2, policy=default_policy())


def test_obs_dir_captures_the_telemetry_bundle(tmp_path):
    report = run_scenario(tiny(), obs_dir=tmp_path / "rundir")
    files = set(report["obs_dir"]["files"])
    assert "run.json" in files
    assert "timeseries.json" in files
    meta = json.loads((tmp_path / "rundir" / "run.json").read_text())
    assert meta["scenario"] == "tiny"


# -- CLI ---------------------------------------------------------------------

def test_cli_list_names_every_builtin(capsys):
    assert scenario_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("esports-final", "follow-the-sun", "regional-isp-outage",
                 "mobile-thin-clients", "spot-preemption-economy"):
        assert name in out


def test_cli_validate_accepts_builtins_and_examples(capsys):
    assert scenario_main(["validate", "esports-final"]) == 0
    assert "ok:" in capsys.readouterr().out
    assert scenario_main(
        ["validate", str(EXAMPLES / "esports_final.toml")]) == 0
    assert scenario_main(
        ["validate", str(EXAMPLES / "outage_scenario.json")]) == 0


def test_cli_validate_rejects_malformed_files(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "version": 1, "name": "bad",
        "workload": {"flash_crowds": [
            {"day": 1, "subcycle": 0, "players": 3}]}}))
    assert scenario_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid:" in err
    assert "workload.flash_crowds[0]" in err


def test_cli_validate_rejects_unknown_config_overrides(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "version": 1, "name": "typo",
        "infrastructure": {"overrides": {"num_supernodez": 3}}}))
    assert scenario_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: infrastructure.overrides: unknown key")


def test_cli_validate_names_the_path_of_an_override_range_error(
        tmp_path, capsys):
    path = tmp_path / "range.json"
    path.write_text(json.dumps({
        "version": 1, "name": "range",
        "infrastructure": {"overrides": {"num_supernodes": -1}}}))
    assert scenario_main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invalid: infrastructure.overrides.num_supernodes: "
        "num_supernodes must be non-negative"]


def test_cli_validate_rejects_wrong_typed_config_overrides(tmp_path,
                                                         capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({
        "version": 1, "name": "typed",
        "infrastructure": {"overrides": {"num_supernodes": "many"}}}))
    assert scenario_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "invalid: infrastructure.overrides: num_supernodes must be int, "
        "got 'many'"]


def test_cli_validate_rejects_a_crowd_outside_the_run(tmp_path, capsys):
    path = tmp_path / "late.json"
    path.write_text(json.dumps({
        "version": 1, "name": "late", "schedule": {"days": 3},
        "workload": {"flash_crowds": [
            {"day": 9, "subcycle": 30, "players": 5}]}}))
    assert scenario_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid: workload.flash_crowds[0].day: ")


def test_cli_validate_rejects_unknown_names(capsys):
    assert scenario_main(["validate", "no-such-scenario"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_prints_the_json_report(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "version": 1, "name": "cli-tiny",
        "population": {"daily_participants": 50},
        "schedule": {"days": 2, "warmup_days": 1}}))
    assert scenario_main(["run", str(path), "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "cli-tiny"
    assert report["seed"] == 3
    assert report["measured_days"] == 1


def test_main_dispatches_the_scenario_subcommand(capsys):
    assert main(["scenario", "list"]) == 0
    assert "esports-final" in capsys.readouterr().out


def test_main_list_mentions_the_scenario_command(capsys):
    assert main(["list"]) == 0
    assert "scenario" in capsys.readouterr().out
