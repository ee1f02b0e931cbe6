"""The checkpoint's rating section: ledger and score columns (schema 3).

The state payload carries the rating ledger as columns (pair table,
append-only rating log) and the reputation cache as one score column
aligned to the pair table.  A resume rebuilds both through the
reputation module's columns-in calls, which validate the columns; a
bad column is a corrupt checkpoint that names the offending index.
Files of the previous schema, whose ratings were per-pair lists, are
refused by version.
"""

import json

import pytest

from repro.core import CloudFogSystem
from repro.persist import (
    Checkpointer,
    CheckpointCorruptError,
    CheckpointVersionError,
    SCHEMA_VERSION,
    read_checkpoint,
    restore_state,
    resume_run,
    write_checkpoint,
)

from ..helpers.golden import run_result_digest
from .test_checkpoint import BASELINE, CHAOS, DAYS


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Day 0's checkpoint of the chaos run (penalties rate too)."""
    hook = Checkpointer(tmp_path_factory.mktemp("run"), every=1)
    result = CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=hook.on_day_end)
    return result, hook.path_for(0)


def test_ratings_section_is_columns(checkpoint):
    _, path = checkpoint
    state = read_checkpoint(path)["state"]
    ratings = state["ratings"]
    assert "reputation" not in state
    assert set(ratings) == {"pair_player", "pair_supernode", "log_pair",
                            "log_value", "log_day", "score"}
    pairs = len(ratings["pair_player"])
    assert pairs and len(ratings["score"]) == pairs
    assert len(ratings["log_pair"]) >= pairs
    restored = restore_state(state)
    assert {**restored.ledger.to_columns(),
            **restored.reputation.to_columns()} == ratings


@pytest.mark.parametrize("column, index, bad, message", [
    ("log_value", 3, 1.5, "entry 3 has a value outside"),
    ("log_value", 0, -0.5, "entry 0 has a value outside"),
    ("log_day", 2, -1, "entry 2 has a negative day"),
    ("log_pair", 1, 10 ** 6, "entry 1 names no pair"),
    ("score", 4, "0.5", "score 4 is not a float"),
])
def test_bad_rating_column_is_corrupt(checkpoint, column, index, bad,
                                      message):
    _, path = checkpoint
    state = read_checkpoint(path)["state"]
    state["ratings"][column][index] = bad
    with pytest.raises(CheckpointCorruptError, match=message):
        restore_state(state)


@pytest.mark.parametrize("column", ["log_day", "pair_supernode", "score"])
def test_short_rating_column_is_corrupt(checkpoint, column):
    _, path = checkpoint
    state = read_checkpoint(path)["state"]
    state["ratings"][column].pop()
    with pytest.raises(CheckpointCorruptError, match="ratings: "):
        restore_state(state)


def test_corrupt_ratings_refuse_the_resume(tmp_path, checkpoint):
    _, path = checkpoint
    payload = read_checkpoint(path)
    payload["state"]["ratings"]["log_value"][0] = float("nan")
    bad = write_checkpoint(tmp_path / "bad.json", payload)
    with pytest.raises(CheckpointCorruptError, match="entry 0"):
        resume_run(bad)


def test_rewritten_columns_resume_bit_identically(tmp_path, checkpoint):
    expected, path = checkpoint
    copy = write_checkpoint(tmp_path / "copy.json", read_checkpoint(path))
    assert run_result_digest(resume_run(copy)) == \
        run_result_digest(expected)


def test_schema_2_checkpoint_is_refused(tmp_path):
    """A file of the previous schema (per-pair rating lists) is refused
    by version on both reader paths, never half-restored."""
    hook = Checkpointer(tmp_path / "run", every=1)
    CloudFogSystem(BASELINE).run(days=1, on_day_end=hook.on_day_end)
    data = hook.path_for(0).read_bytes()
    tail = b'%d}' % SCHEMA_VERSION
    assert data.endswith(b',"schema_version":' + tail)
    fast = tmp_path / "fast.json"
    fast.write_bytes(data[:-len(tail)] + b'2}')
    general = tmp_path / "general.json"
    document = json.loads(data)
    document["schema_version"] = 2
    general.write_text(json.dumps(document, indent=1))
    for path in (fast, general):
        with pytest.raises(CheckpointVersionError, match="version 2"):
            resume_run(path)
