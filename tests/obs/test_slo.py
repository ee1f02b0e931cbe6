"""Unit tests of the SLO objectives, burn-rate evaluation and policies."""

import json
from types import SimpleNamespace

import pytest

from repro.obs.slo import (BurnWindow, SloObjective, SloPolicy,
                           default_policy, evaluate, load_policy)
from repro.obs.timeseries import TimeSeriesStore

from .rows import RowLog


class FlatQoe:
    def session_mos(self, continuity, response_latency_ms,
                    requirement_ms, bitrate_kbps):
        return 4.0


def _record(latency):
    return SimpleNamespace(
        player=0, day=0, game="ArenaStrike", kind="supernode", target=0,
        response_latency_ms=latency, server_latency_ms=latency / 2,
        continuity=0.99, satisfied=True, join_latency_ms=None)


def _store(latencies, displaced=()):
    """One day per latency; optionally mark some days as crash days."""
    store = TimeSeriesStore(qoe=FlatQoe())
    displaced = set(displaced)
    for day, latency in enumerate(latencies):
        store.observe_day(
            day=day, records=RowLog([_record(latency)]),
            fault_deltas={"displaced": 1} if day in displaced else None)
    return store


def test_objective_validation():
    with pytest.raises(ValueError):
        SloObjective(name="x", metric="p95_response_latency_ms",
                     op="==", threshold=1.0)
    with pytest.raises(ValueError):
        SloObjective(name="x", metric="no_such_metric",
                     op="<=", threshold=1.0)
    with pytest.raises(ValueError):
        SloObjective(name="x", metric="mean_mos", op=">=",
                     threshold=3.0, error_budget=0.0)
    with pytest.raises(ValueError):
        BurnWindow(days=0)
    good = SloObjective(name="x", metric="mean_mos", op=">=",
                        threshold=3.0)
    assert good.compliant(3.5) and not good.compliant(2.0)


def test_evaluate_flags_violating_days_and_burn_rates():
    objective = SloObjective(name="p95", metric="p95_response_latency_ms",
                             op="<=", threshold=100.0, error_budget=0.25)
    policy = SloPolicy(objectives=(objective,),
                       windows=(BurnWindow(1), BurnWindow(3)))
    report = evaluate(policy, _store([90.0, 150.0, 90.0, 90.0]))
    (obj,) = report.objectives
    assert not report.ok
    assert obj.violating_days == [1]
    assert report.violating_days() == [1]
    day1 = obj.verdicts[1]
    # 1-day window: 1/1 errors over budget 0.25 -> burn 4; 3-day window
    # trails days 0-1: 1/2 errors -> burn 2.  Both exceed 1.0 -> alerting.
    assert day1.burn_rates == (4.0, 2.0)
    assert day1.alerting
    assert obj.alerting_days == [1]
    day2 = obj.verdicts[2]
    assert day2.ok and day2.burn_rates == (0.0, pytest.approx(4.0 / 3.0))
    assert not day2.alerting  # fast window is clean


def test_days_without_data_get_no_verdict():
    """Regression: a day with no recoveries used to report
    recovery_p95_ms == 0.0 and trivially satisfy sub-second-recovery.
    Now such days carry None and are skipped — no verdict, no error
    budget burned — while real slow recoveries still violate."""
    objective = SloObjective(name="sub-second-recovery",
                             metric="recovery_p95_ms",
                             op="<=", threshold=1000.0)
    policy = SloPolicy(objectives=(objective,), windows=(BurnWindow(1),))
    store = TimeSeriesStore(qoe=FlatQoe())
    store.observe_day(day=0, records=RowLog([_record(90.0)]), recovery_ms=[])
    store.observe_day(day=1, records=RowLog([_record(90.0)]),
                      recovery_ms=[1500.0])
    store.observe_day(day=2, records=RowLog([_record(90.0)]), recovery_ms=[])
    report = evaluate(policy, store)
    (obj,) = report.objectives
    # Only the day with actual recoveries is judged (and violates).
    assert [v.day for v in obj.verdicts] == [1]
    assert obj.violating_days == [1]
    assert not report.ok


def test_evaluate_empty_region_is_vacuously_ok():
    objective = SloObjective(name="x", metric="mean_mos", op=">=",
                             threshold=3.0, region="dc7")
    report = evaluate(SloPolicy(objectives=(objective,)), _store([90.0]))
    assert report.ok
    assert report.objectives[0].verdicts == []


def test_default_policy_passes_clean_days_and_flags_crash_days():
    report = evaluate(default_policy(), _store([120.0, 130.0, 125.0],
                                               displaced={1}))
    assert not report.ok
    assert report.violating_days() == [1]
    by_name = {o.objective.name: o for o in report.objectives}
    assert by_name["no-displacements"].violating_days == [1]
    assert by_name["p95-response-latency"].ok
    assert by_name["continuity-floor"].ok
    assert by_name["mos-floor"].ok
    assert by_name["sub-second-recovery"].ok


def test_policy_json_round_trip(tmp_path):
    policy = SloPolicy(
        name="custom",
        objectives=(SloObjective(name="lat", metric="p95_response_latency_ms",
                                 op="<=", threshold=140.0,
                                 error_budget=0.5, region="dc0"),),
        windows=(BurnWindow(2, max_burn=1.5),))
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy.as_dict()))
    loaded = load_policy(path)
    assert loaded == policy
    path.write_text("[]")
    with pytest.raises(ValueError):
        load_policy(path)


def test_policy_from_dict_defaults_windows():
    policy = SloPolicy.from_dict({"name": "w", "objectives": []})
    assert policy.windows == (BurnWindow(1), BurnWindow(3))


def test_report_dict_and_table():
    report = evaluate(default_policy(), _store([90.0, 90.0],
                                               displaced={0}))
    payload = report.as_dict()
    assert payload["ok"] is False
    assert payload["violating_days"] == [0]
    names = [o["objective"]["name"] for o in payload["objectives"]]
    assert "no-displacements" in names
    rendered = str(report.to_table())
    assert "VIOLATED" in rendered and "no-displacements" in rendered
