"""The checkpoint stores a run's session log as its chunks' columns.

Over generated logs (one to six chunks, every catalogue game and
``KIND_*`` code, joined and unjoined rows) a capture/restore round trip
through the file's JSON text must give back the same chunks, column for
column and bit for bit, with NaN join latencies where no join ran; and
after every append the incremental encoder must write exactly the
one-shot encoding.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import SESSION_COLUMNS, RunResult, SessionLog
from repro.persist import (SnapshotEncoder, canonical_json, capture_result,
                           restore_result)

from ..helpers.sessions import chunk_columns


@given(chunks=st.lists(chunk_columns(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_session_chunks_round_trip_bit_for_bit(chunks):
    result = RunResult()
    encoder = SnapshotEncoder()
    for columns in chunks:
        result.sessions.extend(SessionLog.of(**columns))
        assert encoder.encode_result(result) == \
            canonical_json(capture_result(result))

    text = canonical_json(capture_result(result))
    assert "NaN" not in text
    restored = restore_result(json.loads(text)).sessions
    assert len(restored) == len(result.sessions)
    assert len(restored.chunks) == len(result.sessions.chunks)
    for got, want in zip(restored.chunks, result.sessions.chunks):
        assert got.keys() == want.keys()
        for name, dtype in SESSION_COLUMNS.items():
            assert got[name].dtype == dtype
            assert got[name].tobytes() == want[name].tobytes(), name
        assert np.isnan(got["join_latency_ms"][~got["joined"]]).all()
