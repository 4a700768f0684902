"""Raft wire messages with a versioned, self-describing JSON encoding.

Every message names its fields on the wire (no positional packing) and
carries a schema version so transports can reject payloads they do not
understand.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Union

WIRE_VERSION = 1


@dataclass(frozen=True)
class LogEntry:
    """One replicated command; indices are contiguous starting at 1."""

    index: int
    term: int
    command: str

    def to_dict(self) -> dict:
        return {"index": self.index, "term": self.term, "command": self.command}

    @classmethod
    def from_dict(cls, data: dict) -> LogEntry:
        return cls(index=data["index"], term=data["term"], command=data["command"])


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
    payload = asdict(msg)
    if isinstance(msg, AppendRequest):
        payload["entries"] = [e.to_dict() for e in msg.entries]
    payload["v"] = WIRE_VERSION
    payload["kind"] = msg.kind
    return json.dumps(payload, separators=(",", ":"))


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
    try:
        if cls is AppendRequest:
            data["entries"] = tuple(LogEntry.from_dict(e) for e in data["entries"])
        return cls(**data)
    except (KeyError, TypeError) as exc:  # missing, extra or non-object fields
        raise ValueError(f"malformed {kind} message: {exc!r}") from None
