"""Run directories and reports: dump a chaos run, render it, check the
SLO verdicts name the crash day and correlate it to the fault window."""

import json

import pytest

from repro import obs
from repro.core import CloudFogSystem
from repro.obs.report import (RUN_FILES, render_report, write_report,
                              write_run_dir)
from repro.obs.slo import SloObjective, SloPolicy

from ..faults.regen_golden import CHAOS_SCENARIOS


@pytest.fixture()
def chaos_run_dir(tmp_path):
    """A full five-pillar chaos run dumped into a run directory."""
    obs.enable()
    CloudFogSystem(CHAOS_SCENARIOS["chaos_advanced"]).run(days=2)
    write_run_dir(tmp_path, meta={"command": "test", "seed": 7})
    obs.disable()
    return tmp_path


def test_write_run_dir_writes_every_live_artifact(chaos_run_dir):
    for name in RUN_FILES.values():
        assert (chaos_run_dir / name).exists(), f"missing {name}"
    meta = json.loads((chaos_run_dir / "run.json").read_text())
    assert meta == {"command": "test", "seed": 7}
    slo = json.loads((chaos_run_dir / "slo.json").read_text())
    assert slo["policy"]["name"] == "cloudfog-default"


def test_write_run_dir_skips_disabled_pillars(tmp_path):
    assert not obs.enabled()
    written = write_run_dir(tmp_path)
    assert [path.name for path in written] == ["run.json"]


def test_report_names_crash_day_and_correlates_the_fault_window(
        chaos_run_dir):
    markdown, payload = render_report(chaos_run_dir)
    assert payload["slo"]["ok"] is False
    violating = payload["slo"]["violating_days"]
    assert violating, "the chaos run must violate at least one day"
    correlations = payload["correlations"]
    assert correlations, "violations must correlate to fault windows"
    corr = correlations[0]
    assert corr["day"] in violating
    assert "no-displacements" in corr["objectives"]
    assert any(f["attrs"]["fault_kind"] == "crash"
               for f in corr["fault_events"])
    # and the markdown spells all of it out
    assert "VIOLATED" in markdown
    assert "no-displacements" in markdown
    assert "Violations correlated to fault windows" in markdown
    assert "crash" in markdown


def test_report_sections_cover_timeline_regions_profile(chaos_run_dir):
    _, payload = render_report(chaos_run_dir)
    kinds = {entry["kind"] for entry in payload["fault_timeline"]}
    assert "fault_injected" in kinds
    regions = [row["region"] for row in payload["regions"]]
    assert regions and regions[0] == "all"
    phases = {row["name"] for row in payload["profile"]}
    assert "run_day" in phases


def test_report_honours_an_explicit_policy(chaos_run_dir):
    lax = SloPolicy(name="lax", objectives=(
        SloObjective(name="latency", metric="p95_response_latency_ms",
                     op="<=", threshold=10_000.0),))
    _, payload = render_report(chaos_run_dir, policy=lax)
    assert payload["slo"]["policy"]["name"] == "lax"
    assert payload["slo"]["ok"] is True
    assert payload["correlations"] == []


def test_write_report_emits_markdown_and_json(chaos_run_dir):
    markdown, payload = render_report(chaos_run_dir)
    md_path, json_path = write_report(chaos_run_dir, markdown, payload)
    assert md_path.read_text() == markdown
    assert json.loads(json_path.read_text())["slo"]["ok"] is False


def test_render_report_tolerates_a_sparse_run_dir(tmp_path):
    """Artifacts are optional: a dump with only ``run.json`` renders."""
    write_run_dir(tmp_path)
    markdown, payload = render_report(tmp_path)
    assert payload["slo"] is None
    assert payload["fault_timeline"] == []
    assert "no " in markdown.lower()


def test_render_report_missing_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_report(tmp_path / "nope")
