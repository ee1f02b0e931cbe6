"""The incremental checkpoint writer equals the one-shot encoding.

A :class:`~repro.persist.Checkpointer` encodes the config once and
re-encodes only the session-log chunks and join latencies appended
since its previous save.  Whatever happens to the result between saves
— appends, in-place mutation of the day rows and fault summary, a log
or list swapped for a restored copy, a shorter log, a shrunk list, a
replaced last item, telemetry switched on or off — every file's payload
must be byte-for-byte ``canonical_json`` of the payload built by
``capture_state`` + ``capture_result``.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import CloudFogSystem
from repro.core.accounting import DayMetrics, RunResult, SessionLog
from repro.core.columns import KIND_SUPERNODE
from repro.core.config import cloudfog_advanced
from repro.core.state import SimState
from repro.persist import snapshot
from repro.persist import (
    Checkpointer,
    SnapshotEncoder,
    canonical_json,
    capture_result,
    capture_state,
    payload_digest,
    read_checkpoint,
    restore_result,
    resume_run,
    write_checkpoint,
)

from ..faults.regen_golden import CHAOS_PLAN
from ..helpers.sessions import chunk_columns

STATE = SimState(cloudfog_advanced(num_players=30, num_supernodes=3,
                                   seed=1))
TOTAL_DAYS = 9

_floats = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

_ops = st.one_of(
    st.tuples(st.just("sessions"), chunk_columns(min_rows=0, max_rows=4)),
    st.tuples(st.just("joins"), st.lists(_floats, max_size=4)),
    st.tuples(st.just("day"), _floats),
    st.tuples(st.just("faults"), st.integers(1, 3), _floats),
    st.tuples(st.just("restore"), st.booleans()),
    st.tuples(st.just("shrink"), st.booleans()),
    st.tuples(st.just("replace_last"), _floats),
    st.tuples(st.just("save"), st.booleans()),
)


def _apply(result: RunResult, op) -> None:
    kind, *args = op
    if kind == "sessions":
        result.sessions.extend(SessionLog.of(**args[0]))
    elif kind == "joins":
        result.join_latencies_ms.extend(args[0])
    elif kind == "day":
        if not result.days or args[0] > 5e3:
            result.days.append(DayMetrics(day=len(result.days)))
        row = result.days[-1]
        row.online_players += 1
        row.cloud_bandwidth_mbps = args[0]
    elif kind == "faults":
        result.faults.displaced += args[0]
        result.faults.recovered += args[0]
        result.faults.time_to_recover_ms.append(args[1])
    elif kind == "restore":
        restored = restore_result(capture_result(result))
        if args[0]:
            result.sessions = restored.sessions
        else:
            result.join_latencies_ms = restored.join_latencies_ms
    elif kind == "shrink":
        if args[0]:  # the log is append-only: swap in a shorter one
            chunks = result.sessions.chunks
            shorter = SessionLog()
            for chunk in chunks[:len(chunks) // 2]:
                shorter.extend(SessionLog.of(**chunk))
            result.sessions = shorter
        else:
            values = result.join_latencies_ms
            del values[len(values) // 2:]
    elif kind == "replace_last":
        if result.join_latencies_ms:
            result.join_latencies_ms[-1] = args[0]


def _reference_text(result: RunResult, day: int) -> str:
    payload = {"day": day, "run": {"total_days": TOTAL_DAYS},
               "state": capture_state(STATE),
               "result": capture_result(result)}
    telemetry = obs.capture_telemetry()
    if telemetry is not None:
        payload["telemetry"] = telemetry
    return canonical_json(payload)


def _payload_text(path: Path) -> str:
    """The payload's bytes exactly as they sit in the file."""
    text = path.read_text()
    start = text.index(',"payload":') + len(',"payload":')
    end = text.rindex(',"schema_version":')
    return text[start:end]


@given(ops=st.lists(_ops, min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_every_save_equals_the_one_shot_encoding(ops):
    result = RunResult()
    with tempfile.TemporaryDirectory() as tmp:
        hook = Checkpointer(Path(tmp), every=1)
        day = 0
        try:
            for op in ops + [("save", False)]:
                if op[0] != "save":
                    _apply(result, op)
                    continue
                if op[1]:
                    obs.enable()
                else:
                    obs.disable()
                hook.on_day_end(STATE, day, result, TOTAL_DAYS)
                path = hook.written[-1]
                assert _payload_text(path) == _reference_text(result, day)
                assert read_checkpoint(path)["day"] == day
                day += 1
        finally:
            obs.disable()


def _without_host_times(payload: dict) -> dict:
    payload["result"].pop("assignment_wall_times_s")
    return payload


def test_resumed_continuation_writes_the_uninterrupted_files(tmp_path):
    """A resume hands the checkpointer a freshly restored result; the
    files it writes from there on match the uninterrupted run's (all
    but the host-timed assignment walls) and stay canonical."""
    config = cloudfog_advanced(num_players=120, num_supernodes=8,
                               seed=3).with_(fault_plan=CHAOS_PLAN)
    days = 4
    full = Checkpointer(tmp_path / "full", every=1)
    CloudFogSystem(config).run(days=days, on_day_end=full.on_day_end)
    rest = Checkpointer(tmp_path / "rest", every=1)
    resume_run(full.path_for(0), checkpointer=rest)
    assert [p.name for p in rest.written] == [
        p.name for p in full.written[1:]]
    for expected, actual in zip(full.written[1:], rest.written):
        document = json.loads(actual.read_text())
        assert _payload_text(actual) == canonical_json(document["payload"])
        assert payload_digest(document["payload"]) == \
            document["manifest"]["payload_sha256"]
        assert _without_host_times(read_checkpoint(actual)) == \
            _without_host_times(read_checkpoint(expected))


def test_faulted_run_files_equal_the_one_shot_encoding(tmp_path):
    """With the config text cached, every file of a faulted run holds
    exactly the bytes of a one-shot ``write_checkpoint`` of the payload
    captured at the same day end."""
    config = cloudfog_advanced(num_players=120, num_supernodes=8,
                               seed=3).with_(fault_plan=CHAOS_PLAN)
    hook = Checkpointer(tmp_path / "run", every=1)
    reference = []

    def on_day_end(state, day, result, total_days):
        hook.on_day_end(state, day, result, total_days)
        reference.append(write_checkpoint(
            tmp_path / f"reference-{day}.json",
            {"day": day, "run": {"total_days": total_days},
             "state": capture_state(state),
             "result": capture_result(result)}))

    CloudFogSystem(config).run(days=3, on_day_end=on_day_end)
    assert len(hook.written) == 3
    assert [path.read_bytes() for path in hook.written] == \
        [path.read_bytes() for path in reference]


def test_a_new_config_object_is_encoded_afresh():
    state = SimState(cloudfog_advanced(num_players=30, num_supernodes=3,
                                       seed=1))
    encoder = SnapshotEncoder()
    before = encoder.encode_state(state)
    assert before == canonical_json(capture_state(state))
    state.config = state.config.with_(fault_plan=CHAOS_PLAN)
    after = encoder.encode_state(state)
    assert after == canonical_json(capture_state(state))
    assert after != before


def _log(count: int, day: int) -> SessionLog:
    players = range(count)
    return SessionLog.of(
        player=players, day=[day] * count, game=[0] * count,
        kind=[KIND_SUPERNODE] * count, target=[1] * count,
        response_latency_ms=[90.5] * count, server_latency_ms=[1.0] * count,
        continuity=[0.97] * count, satisfied=[True] * count,
        join_latency_ms=[float("nan") if p % 2 else 12.25 for p in players],
        joined=[not p % 2 for p in players])


def test_a_second_save_encodes_only_the_new_tail(monkeypatch):
    """A chunk reaches the chunk encoder once, when it is new; a
    restored log (new chunks in a new log) is encoded whole again,
    chunk by chunk."""
    encoded = []
    encode_chunk = snapshot._chunk_columns

    def counting(chunk):
        encoded.append(len(chunk["player"]))
        return encode_chunk(chunk)

    result = RunResult()
    encoder = SnapshotEncoder()
    monkeypatch.setattr(snapshot, "_chunk_columns", counting)
    result.sessions.extend(_log(3, day=0))
    first = encoder.encode_result(result)
    result.sessions.extend(_log(2, day=1))
    second = encoder.encode_result(result)
    third = encoder.encode_result(result)
    assert encoded == [3, 2]
    assert second == third != first
    monkeypatch.undo()
    assert second == canonical_json(capture_result(result))

    result.sessions = restore_result(capture_result(result)).sessions
    monkeypatch.setattr(snapshot, "_chunk_columns", counting)
    assert encoder.encode_result(result) == second
    assert encoded == [3, 2, 3, 2]
