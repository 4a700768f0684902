"""Raft wire messages with a versioned, self-describing JSON encoding.

Every message names its fields on the wire (no positional packing) and
carries a schema version so transports can reject payloads they do not
understand: ``qonnect.codec`` writes it as ``{"v": 1, "kind": cls.kind,
**fields}`` and checks every field's type on the way in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from qonnect import codec


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

# Request kinds travel as HTTP POSTs; their paired response kind is returned
# in the HTTP response body.
REQUEST_KINDS = (VoteRequest.kind, AppendRequest.kind, SnapshotRequest.kind)

_encode = codec.encoder(Message)
_decode = codec.decoder(Message)


def encode_message(msg: Message) -> str:
    return codec.dumps(_encode(msg))


def decode_message(raw: str) -> Message:
    """Decode one wire message; any malformed payload raises ``ValueError``."""
    msg = _decode(codec.loads(raw))
    if isinstance(msg, AppendRequest) and any(
        e.index != msg.prev_log_index + i for i, e in enumerate(msg.entries, start=1)
    ):
        raise ValueError("append-request entries must follow prev_log_index without gaps")
    return msg
