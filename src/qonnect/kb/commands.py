"""The KB command vocabulary: every mutation travels the Raft log as one of these.

Commands carry any wall-clock timestamps explicitly (stamped by the leader at
propose time) so that applying the same sequence on every replica is fully
deterministic.

A log entry holds either one command or a ``Batch`` of them (group commit:
one entry per telemetry flush or scheduler pass). A batch's members are
encoded exactly like single-command entries, so entries written before
batches existed still decode. Entries are written by ``qonnect.codec`` as
``{"v": 1, "kind": cls.kind, **fields}`` with sorted keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from qonnect import codec
from qonnect.kb.model import Domain, QoSVector


@dataclass(frozen=True)
class RegisterCluster:
    kind = "register-cluster"
    external_ip: str
    domain: Domain
    registered_at: float


@dataclass(frozen=True)
class PutNodeSnapshot:
    kind = "put-node-snapshot"
    cluster_id: str
    nodes: tuple[dict, ...]  # wire-form node dicts, taken_at stamped on apply
    taken_at: float


@dataclass(frozen=True)
class SubmitApplication:
    kind = "submit-application"
    app_id: str
    name: str
    labels: tuple[tuple[str, str], ...]
    qos: QoSVector
    components: tuple[tuple[str, Domain, dict], ...]  # (name, target domain, manifest)
    submitted_at: float


@dataclass(frozen=True)
class UpdateQoS:
    kind = "update-qos"
    name: str
    qos: QoSVector
    updated_at: float


@dataclass(frozen=True)
class DeleteApplication:
    kind = "delete-application"
    name: str


@dataclass(frozen=True)
class RecordDecision:
    kind = "record-decision"
    app_id: str
    component: str
    cluster_id: str
    node_names: tuple[str, ...]
    decided_at: float
    deciding_term: int
    version: int  # application version the decision was computed against


@dataclass(frozen=True)
class RecordHeartbeat:
    kind = "record-heartbeat"
    app_id: str
    component: str
    cluster_id: str
    version: int
    status: str  # healthy | progressing | failed
    at: float


@dataclass(frozen=True)
class RequeueComponent:
    kind = "requeue-component"
    app_id: str
    component: str
    version: int
    reason: str


KBCommand = Union[
    RegisterCluster,
    PutNodeSnapshot,
    SubmitApplication,
    UpdateQoS,
    DeleteApplication,
    RecordDecision,
    RecordHeartbeat,
    RequeueComponent,
]


@dataclass(frozen=True)
class Batch:
    """Several commands committed as one log entry and applied in order."""

    kind = "batch"
    commands: tuple[KBCommand, ...]

    def __post_init__(self) -> None:
        if not self.commands:
            raise ValueError("a batch carries at least one command")
        if any(isinstance(cmd, Batch) for cmd in self.commands):
            raise ValueError("batches do not nest")


_encode = codec.encoder(KBCommand | Batch)
_decode = codec.decoder(KBCommand | Batch)


def encode_command(cmd: KBCommand | Batch) -> str:
    return codec.dumps(_encode(cmd))


def decode_command(raw: str) -> KBCommand | Batch:
    """Decode one log entry; any malformed payload raises ``ValueError``."""
    return _decode(codec.loads(raw))
