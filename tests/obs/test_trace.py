"""Tests for the span tracer: nesting, ordering, JSONL round-trip."""

import json

import pytest

from repro.obs.profile import phase_breakdown
from repro.obs.trace import NULL_TRACER, Tracer


def test_span_nesting_and_finish_order():
    tracer = Tracer()
    with tracer.span("outer", day=1) as outer:
        assert tracer.current is outer
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.depth == 1
        with tracer.span("inner2") as inner2:
            assert inner2.parent_id == outer.span_id
    assert tracer.current is None
    # children finish before their parent, in execution order
    assert [s.name for s in tracer.finished] == ["inner", "inner2", "outer"]
    assert outer.duration_s >= inner.duration_s + inner2.duration_s - 1e-9


def test_span_attrs_and_annotate():
    tracer = Tracer()
    with tracer.span("work", kind="test") as span:
        span.annotate(items=3)
    assert span.attrs == {"kind": "test", "items": 3}


def test_span_records_errors_and_propagates():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    (span,) = tracer.finished
    assert span.error == "RuntimeError: boom"
    assert span.end_s is not None


def test_out_of_order_exit_raises():
    tracer = Tracer()
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(RuntimeError, match="out of order"):
        outer.__exit__(None, None, None)


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("run_variant", variant="CloudFog/B"):
        with tracer.span("run_day", day=0):
            pass
        with tracer.span("run_day", day=1):
            pass
    path = tmp_path / "trace.jsonl"
    assert tracer.export_jsonl(path) == 3
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3
    by_name = {row["name"]: row for row in rows}
    top = by_name["run_variant"]
    assert top["parent_id"] is None
    assert top["attrs"] == {"variant": "CloudFog/B"}
    days = [row for row in rows if row["name"] == "run_day"]
    assert all(row["parent_id"] == top["span_id"] for row in days)
    assert all(row["depth"] == 1 for row in days)
    assert [row["attrs"]["day"] for row in days] == [0, 1]
    assert all(row["duration_s"] >= 0 for row in rows)


def test_null_tracer_is_inert():
    with NULL_TRACER.span("anything", day=1) as span:
        span.annotate(x=1)
    assert NULL_TRACER.current is None
    assert list(NULL_TRACER.finished) == []
    # the same shared span object every time: zero allocation per call
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
    # exceptions still propagate through the null span
    with pytest.raises(ValueError):
        with NULL_TRACER.span("x"):
            raise ValueError("escapes")


def test_phase_breakdown_self_time():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    rows = {row["name"]: row for row in phase_breakdown(tracer.finished)}
    assert rows["child"]["count"] == 2
    assert rows["parent"]["count"] == 1
    # parent self time excludes the children's wall clock
    child_total = rows["child"]["total_s"]
    assert rows["parent"]["self_s"] == pytest.approx(
        rows["parent"]["total_s"] - child_total, abs=1e-9)
    shares = sum(row["self_share"] for row in rows.values())
    assert shares == pytest.approx(1.0)
    assert rows["child"]["mean_ms"] == pytest.approx(
        1e3 * child_total / 2)


def test_profile_table_renders():
    from repro.obs.profile import profile_table

    tracer = Tracer()
    with tracer.span("phase_a"):
        pass
    text = profile_table(tracer).render()
    assert "phase_a" in text
    assert "self_%" in text
    empty = profile_table(Tracer()).render()
    assert "no spans recorded" in empty
