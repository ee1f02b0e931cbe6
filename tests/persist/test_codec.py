"""Tests for the versioned on-disk checkpoint format."""

import json

import pytest

from repro.persist import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    canonical_json,
    payload_digest,
    read_checkpoint,
    write_checkpoint,
)
from repro.persist.codec import FORMAT_NAME, SCHEMA_VERSION

PAYLOAD = {"day": 3, "state": {"seed": 7, "values": [1.5, 2.25]}}


def test_write_read_round_trip(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    assert read_checkpoint(path) == PAYLOAD


def test_document_structure(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    assert document["format"] == FORMAT_NAME
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["manifest"]["day"] == 3
    assert document["manifest"]["payload_sha256"] == payload_digest(PAYLOAD)


def test_floats_round_trip_exactly(tmp_path):
    """JSON uses repr-based shortest round-trip: no ULP drift."""
    values = [0.1, 1e-300, 123456.789012345, 2.0 ** -52]
    path = write_checkpoint(tmp_path / "ck.json", {"day": 0, "v": values})
    restored = read_checkpoint(path)["v"]
    assert all(a == b for a, b in zip(restored, values))


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_write_requires_day():
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", {"state": {}})
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", {"day": -1})
    with pytest.raises(CheckpointError):
        write_checkpoint("unused.json", {"day": "3"})


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "nope.json")


def test_invalid_json_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    path.write_text(path.read_text()[:40])  # simulate a truncated write
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_wrong_format_is_corrupt(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "payload": {}}))
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)
    path.write_text(json.dumps([1, 2, 3]))  # not even an object
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_schema_version_mismatch(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    document["schema_version"] = 999
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointVersionError):
        read_checkpoint(path)


def test_tampered_payload_is_corrupt(tmp_path):
    """Editing any payload byte without re-digesting must be caught."""
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    document["payload"]["state"]["seed"] = 8
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
        read_checkpoint(path)


def test_manifest_day_disagreement_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    document = json.loads(path.read_text())
    document["manifest"]["day"] = 9
    # Keep the digest valid so only the day cross-check can fire.
    document["manifest"]["payload_sha256"] = payload_digest(
        document["payload"])
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointCorruptError, match="disagrees"):
        read_checkpoint(path)


def test_write_is_atomic(tmp_path):
    """A successful write leaves no temp file; rewriting replaces."""
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    write_checkpoint(path, {"day": 3, "state": {"seed": 8}})
    assert list(tmp_path.iterdir()) == [path]
    assert read_checkpoint(path)["state"]["seed"] == 8


# ----------------------------------------------------------------------
# the writer's one-encoding layout and the reader's fast path
# ----------------------------------------------------------------------
def test_file_is_the_canonical_document(tmp_path):
    """The payload is written as its canonical bytes, so the whole file
    is the canonical encoding of the document."""
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    text = path.read_text()
    assert text == canonical_json(json.loads(text))
    assert f'"payload":{canonical_json(PAYLOAD)},' in text


def test_fast_path_skips_the_canonical_re_encode(tmp_path, monkeypatch):
    from repro.persist import codec

    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)

    def no_re_encode(payload):
        raise AssertionError("writer-layout file took the general path")

    monkeypatch.setattr(codec, "payload_digest", no_re_encode)
    assert read_checkpoint(path) == PAYLOAD


def test_fast_path_flipped_payload_byte_is_digest_mismatch(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    data = path.read_bytes()
    flipped = data.replace(b'"seed":7', b'"seed":8')
    assert flipped != data  # still valid JSON, still the writer layout
    path.write_bytes(flipped)
    with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
        read_checkpoint(path)


@pytest.mark.parametrize("keep", [1, 40, -30, -1])
def test_fast_path_truncated_file_fails(tmp_path, keep):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_fast_path_manifest_day_disagreement_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    data = path.read_bytes()
    # Only the manifest changes: the payload digest stays valid.
    path.write_bytes(data.replace(b'"manifest":{"day":3,',
                                  b'"manifest":{"day":9,'))
    with pytest.raises(CheckpointCorruptError, match="disagrees"):
        read_checkpoint(path)


def test_fast_path_schema_version_mismatch(tmp_path):
    path = write_checkpoint(tmp_path / "ck.json", PAYLOAD)
    data = path.read_bytes()
    tail = b'"schema_version":%d}' % SCHEMA_VERSION
    assert data.endswith(tail)
    path.write_bytes(data[:-len(tail)] + b'"schema_version":999}')
    with pytest.raises(CheckpointVersionError):
        read_checkpoint(path)


def test_previous_layout_still_loads(tmp_path):
    """Files written before the one-encoding writer (default
    separators, digest over the canonical re-encode) load unchanged."""
    document = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "manifest": {"day": 3, "payload_sha256": payload_digest(PAYLOAD)},
        "payload": PAYLOAD,
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document, sort_keys=True))
    assert read_checkpoint(path) == PAYLOAD
