"""The versioned on-disk checkpoint format.

One checkpoint is one JSON document, itself in canonical form (sorted
keys, no whitespace)::

    {"format":"repro-checkpoint",
     "manifest":{"day":3,"payload_sha256":"<hex digest>"},
     "payload":{...},
     "schema_version":7}

(shown wrapped; the file is one line).  The payload is encoded exactly
once, as canonical JSON, and the manifest digest is the SHA-256 of
those very bytes, so any byte of drift — truncation, a hand-edited
field, a partially written file — is caught at load time before the
simulation state is rebuilt.

The reader has a fast path for files in exactly the writer's layout:
it hashes the payload bytes as they sit in the file and parses them
once.  Every other file, and any fast-path miss, takes the general
path: parse the document, then re-encode the payload canonically and
compare digests.  Both paths run the same format, schema-version,
digest and manifest-day checks and raise the same errors.

JSON is a deliberate choice over pickle: ``json`` round-trips every
finite Python float exactly (``repr``-based shortest round-trip), the
files are inspectable and diffable, and loading one cannot execute
code.  The restore side rebuilds live objects from the payload through
constructors, never by unpickling.

Failure taxonomy::

    CheckpointError            anything checkpoint-related (base)
    ├── CheckpointVersionError schema newer/older than this code
    └── CheckpointCorruptError not a checkpoint / digest mismatch /
                               malformed or inconsistent content

Writes are atomic (temp file + ``os.replace``) so an interrupted save
never leaves a half-written checkpoint behind — the previous one stays
valid.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

__all__ = ["FORMAT_NAME", "SCHEMA_VERSION", "CheckpointError",
           "CheckpointVersionError", "CheckpointCorruptError",
           "canonical_json", "canonical_object", "payload_digest",
           "write_checkpoint", "write_checkpoint_text", "read_checkpoint"]

#: Identifies a file as one of ours regardless of schema evolution.
FORMAT_NAME = "repro-checkpoint"

#: Bump on any payload layout change; readers reject other versions.
#: v2: FaultSummary grew the correlated-loss counters (shed, drained,
#: joins_shed) — a v1 reader would drop them silently on restore.
#: v3: the state's ``ratings`` section is the rating ledger's columns
#: (pair table, append-only rating log, aligned score column); the
#: per-pair rating lists, the ``reputation`` section and its refresh
#: day are gone.
#: v4: the state's second fault summary (the ledger of a removed
#: out-of-band failure walker) is gone; every fault is accounted once,
#: in the result's ``faults`` section.
#: v5: the state's ``workload`` member is gone; the workload overrides
#: are the config's ``workload`` value, which the ``config`` member
#: already carries (flash crowds, game mix and the rest included).
#: v6: the config's fault plan lost its ``retry`` member; a displaced
#: player makes one selection round, with no backoff policy.
#: v7: the result's ``sessions`` is one object of ``SESSION_COLUMNS``
#: values per session-log chunk (``game`` as the ``GAME_CATALOGUE``
#: index and ``kind`` as the ``KIND_*`` code, so both are part of this
#: schema; join latency 0.0 where not ``joined``); the state's
#: ``supernodes`` is one object of pool columns in id order, with no
#: ``id``; ``telemetry`` also carries the metrics registry's dump.
SCHEMA_VERSION = 7

#: The bytes around the payload in a file :func:`write_checkpoint_text`
#: wrote; the reader's fast path recognises exactly this layout.
_HEAD = re.compile(
    rb'\{"format":"' + re.escape(FORMAT_NAME.encode()) + rb'","manifest":'
    rb'\{"day":(0|[1-9][0-9]*),"payload_sha256":"([0-9a-f]{64})"\},'
    rb'"payload":')
_TAIL = b',"schema_version":%d}' % SCHEMA_VERSION


class CheckpointError(RuntimeError):
    """Base class of every checkpoint persistence failure."""


class CheckpointVersionError(CheckpointError):
    """The file's schema version is not the one this code writes."""


class CheckpointCorruptError(CheckpointError):
    """The file is not a checkpoint, or its content fails validation."""


def canonical_json(value) -> str:
    """The canonical encoding the manifest digest is computed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_object(members: dict[str, str]) -> str:
    """Canonical JSON of an object whose member values are already
    canonical JSON text — equal to ``canonical_json`` of the decoded
    object, without re-encoding the members."""
    return "{" + ",".join(f"{json.dumps(key)}:{members[key]}"
                          for key in sorted(members)) + "}"


def payload_digest(payload: dict) -> str:
    """SHA-256 hex digest of a payload's canonical encoding."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def write_checkpoint(path: str | Path, payload: dict) -> Path:
    """Write one schema-stamped, digest-manifested checkpoint atomically.

    ``payload`` must carry a non-negative integer ``"day"`` (the day the
    snapshot was taken at the end of); it is mirrored into the manifest
    so tooling can list checkpoints without hashing payloads.
    """
    return write_checkpoint_text(path, canonical_json(payload),
                                 payload.get("day"))


def write_checkpoint_text(path: str | Path, payload_text: str,
                          day: int) -> Path:
    """Write a checkpoint whose payload is already canonical JSON text.

    ``payload_text`` must be ``canonical_json(payload)`` of a payload
    whose ``"day"`` is ``day``; it is hashed and written as is, so the
    payload is encoded only once per save.
    """
    if not isinstance(day, int) or isinstance(day, bool) or day < 0:
        raise CheckpointError(
            f"payload must carry a non-negative integer 'day', got {day!r}")
    path = Path(path)
    body = payload_text.encode()
    head = (f'{{"format":"{FORMAT_NAME}","manifest":{{"day":{day},'
            f'"payload_sha256":"{hashlib.sha256(body).hexdigest()}"}},'
            f'"payload":').encode()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(head)
        handle.write(body)
        handle.write(_TAIL)
    os.replace(tmp, path)
    return path


def _fast_payload(data: bytes) -> dict | None:
    """The payload of a file in exactly the writer's layout whose every
    check passes, parsed once; None sends the file down the general
    path, which raises the precise error."""
    head = _HEAD.match(data)
    if head is None or not data.endswith(_TAIL):
        return None
    body = data[head.end():len(data) - len(_TAIL)]
    if hashlib.sha256(body).hexdigest() != head.group(2).decode():
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if not isinstance(payload, dict) \
            or payload.get("day") != int(head.group(1)):
        return None
    return payload


def read_checkpoint(path: str | Path) -> dict:
    """Load, schema-check and digest-verify a checkpoint; return its payload."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    payload = _fast_payload(data)
    if payload is not None:
        return payload
    try:
        document = json.loads(data)
    except ValueError as exc:
        raise CheckpointCorruptError(
            f"{path} is not valid JSON (truncated write?): {exc}") from exc
    if not isinstance(document, dict) \
            or document.get("format") != FORMAT_NAME:
        raise CheckpointCorruptError(
            f"{path} is not a {FORMAT_NAME} file")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointVersionError(
            f"{path} has schema version {version!r}; this build reads "
            f"only version {SCHEMA_VERSION}")
    manifest = document.get("manifest")
    payload = document.get("payload")
    if not isinstance(manifest, dict) or not isinstance(payload, dict):
        raise CheckpointCorruptError(
            f"{path} lacks a manifest/payload pair")
    digest = payload_digest(payload)
    if digest != manifest.get("payload_sha256"):
        raise CheckpointCorruptError(
            f"{path}: payload digest mismatch — expected "
            f"{manifest.get('payload_sha256')!r}, computed {digest!r}")
    if manifest.get("day") != payload.get("day"):
        raise CheckpointCorruptError(
            f"{path}: manifest day {manifest.get('day')!r} disagrees "
            f"with payload day {payload.get('day')!r}")
    return payload
