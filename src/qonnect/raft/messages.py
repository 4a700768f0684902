"""Raft wire messages with a versioned, self-describing JSON encoding.

Every message names its fields on the wire (no positional packing) and
carries a schema version so transports can reject payloads they do not
understand.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Union

WIRE_VERSION = 1


@dataclass(frozen=True)
class LogEntry:
    """One replicated command; indices are contiguous starting at 1."""

    index: int
    term: int
    command: str


@dataclass(frozen=True)
class VoteRequest:
    kind = "vote-request"
    src: int
    dst: int
    term: int
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True)
class VoteResponse:
    kind = "vote-response"
    src: int
    dst: int
    term: int
    granted: bool


@dataclass(frozen=True)
class AppendRequest:
    kind = "append-request"
    src: int
    dst: int
    term: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@dataclass(frozen=True)
class AppendResponse:
    kind = "append-response"
    src: int
    dst: int
    term: int
    success: bool
    # Highest index known replicated on success; on failure, the index the
    # leader should send from next.
    match_index: int
    conflict_index: int


@dataclass(frozen=True)
class SnapshotRequest:
    kind = "snapshot-request"
    src: int
    dst: int
    term: int
    last_included_index: int
    last_included_term: int
    state_blob: str


@dataclass(frozen=True)
class SnapshotResponse:
    kind = "snapshot-response"
    src: int
    dst: int
    term: int
    match_index: int


Message = Union[
    VoteRequest,
    VoteResponse,
    AppendRequest,
    AppendResponse,
    SnapshotRequest,
    SnapshotResponse,
]

_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        VoteRequest,
        VoteResponse,
        AppendRequest,
        AppendResponse,
        SnapshotRequest,
        SnapshotResponse,
    )
}

# Request kinds travel as HTTP POSTs; their paired response kind is returned
# in the HTTP response body.
REQUEST_KINDS = (VoteRequest.kind, AppendRequest.kind, SnapshotRequest.kind)


def encode_message(msg: Message) -> str:
    payload = asdict(msg)  # entries become a list of objects
    payload["v"] = WIRE_VERSION
    payload["kind"] = msg.kind
    return json.dumps(payload, separators=(",", ":"))


# Wire type of each field annotation; ``type(value) is`` keeps a JSON
# ``true`` out of an int field and ``1`` out of a bool field.
_SCALARS: dict[str, type] = {"int": int, "bool": bool, "str": str}
_FIELD_TYPES: dict[type, dict[str, str]] = {
    cls: {f.name: f.type for f in fields(cls)} for cls in (LogEntry, *_KINDS.values())
}


def _decode_fields(cls: type, data: object, what: str):
    """Build ``cls`` from a JSON object holding exactly its fields, typed."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    annotations = _FIELD_TYPES[cls]
    if data.keys() != annotations.keys():
        raise ValueError(f"{what} needs fields {sorted(annotations)}, got {sorted(data)}")
    for name, annotation in annotations.items():
        value = data[name]
        if annotation == "tuple[LogEntry, ...]":
            if not isinstance(value, list):
                raise ValueError(f"{what}: {name} must be a list")
            data[name] = tuple(_decode_fields(LogEntry, e, "a log entry") for e in value)
        elif type(value) is not _SCALARS[annotation]:
            raise ValueError(
                f"{what}: {name} must be {annotation}, not {type(value).__name__}"
            )
    return cls(**data)


def decode_message(raw: str) -> Message:
    """Decode one wire message; any malformed payload raises ``ValueError``."""
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("a raft message must be a JSON object")
    version = data.pop("v", None)
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported raft wire version: {version!r}")
    kind = data.pop("kind", None)
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown raft message kind: {kind!r}")
    msg = _decode_fields(cls, data, f"a {kind} message")
    if isinstance(msg, AppendRequest) and any(
        e.index != msg.prev_log_index + i for i, e in enumerate(msg.entries, start=1)
    ):
        raise ValueError("append-request entries must follow prev_log_index without gaps")
    return msg
