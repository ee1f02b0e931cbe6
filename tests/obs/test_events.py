"""Unit tests of the structured event log."""

import json

import pytest

from repro.obs.events import NULL_EVENT_LOG, Event, EventLog
from repro.obs.trace import Tracer


def test_emit_sequences_and_filters():
    log = EventLog()
    log.emit("fault_injected", day=0, subcycle=9, fault_kind="crash")
    log.emit("migration", day=0, subcycle=9, player=7)
    log.emit("fault_injected", day=1, subcycle=3, fault_kind="flaky")
    assert [e.seq for e in log.tail(3)] == [1, 2, 3]
    assert [e.kind for e in log.tail(3)] \
        == ["fault_injected", "migration", "fault_injected"]
    assert [e.day for e in log.tail(3)] == [0, 0, 1]
    assert [e.seq for e in log.tail(2)] == [2, 3]
    assert [e.seq for e in log.tail(9)] == [1, 2, 3]
    assert log.tail(0) == []


def test_events_link_to_the_open_span():
    tracer = Tracer()
    log = EventLog(tracer=tracer)
    outside = log.emit("setup")
    assert outside.span_id is None
    with tracer.span("run_day", day=0) as span:
        inside = log.emit("fault_injected", day=0)
    assert inside.span_id == span.span_id


def test_ring_keeps_newest_and_seq_never_resets():
    log = EventLog(max_events=2)
    for i in range(5):
        log.emit("tick", day=i)
    assert [e.seq for e in log.tail(5)] == [4, 5]
    assert [e.day for e in log.tail(5)] == [3, 4]
    with pytest.raises(ValueError):
        EventLog(max_events=0)


def test_payload_round_trip_continues_numbering():
    log = EventLog()
    log.emit("a", day=0)
    log.emit("b", day=1, detail="x")
    payload = log.as_payload()
    clone = EventLog()
    clone.load_payload(payload)
    assert clone.as_payload() == payload
    resumed = clone.emit("c", day=2)
    assert resumed.seq == 3  # numbering continues past the capture


def test_export_jsonl(tmp_path):
    log = EventLog()
    log.emit("fault_injected", day=0, fault_kind="crash", count=2)
    log.emit("migration", day=0, player=3)
    path = tmp_path / "events.jsonl"
    assert log.export_jsonl(path) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [entry["kind"] for entry in lines] \
        == ["fault_injected", "migration"]
    assert lines[0]["attrs"] == {"fault_kind": "crash", "count": 2}
    assert Event.from_dict(lines[1]) == log.tail(1)[0]


def test_null_log_is_inert():
    assert not NULL_EVENT_LOG.enabled
    assert NULL_EVENT_LOG.emit("anything", day=0) is None
