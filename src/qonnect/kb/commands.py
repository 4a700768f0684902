"""The KB command vocabulary: every mutation travels the Raft log as one of these.

Commands carry any wall-clock timestamps explicitly (stamped by the leader at
propose time) so that applying the same sequence on every replica is fully
deterministic.

A log entry holds either one command or a ``Batch`` of them (group commit:
one entry per telemetry flush or scheduler pass). A batch's members are
encoded exactly like single-command entries, so entries written before
batches existed still decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from qonnect.kb.model import Domain, QoSVector

COMMAND_SCHEMA_VERSION = 1


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


def encode_command(cmd: KBCommand | Batch) -> str:
    if isinstance(cmd, Batch):
        data = {
            "v": COMMAND_SCHEMA_VERSION,
            "kind": Batch.kind,
            "commands": [_to_dict(member) for member in cmd.commands],
        }
    else:
        data = _to_dict(cmd)
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


def decode_command(raw: str) -> KBCommand | Batch:
    """Decode one log entry; any malformed payload raises ``ValueError``."""
    try:
        data = json.loads(raw)
        if isinstance(data, dict) and data.get("kind") == Batch.kind:
            _check_version(data)
            members = data["commands"]
            if not isinstance(members, list):
                raise ValueError("batch commands must be a list")
            return Batch(tuple(_from_dict(member) for member in members))
        return _from_dict(data)
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed command: {exc!r}") from None


def _check_version(data: dict) -> None:
    if data.get("v") != COMMAND_SCHEMA_VERSION:
        raise ValueError(f"unsupported command schema version: {data.get('v')!r}")


def _to_dict(cmd: KBCommand) -> dict:
    data: dict = {"v": COMMAND_SCHEMA_VERSION, "kind": cmd.kind}
    if isinstance(cmd, RegisterCluster):
        data.update(
            external_ip=cmd.external_ip,
            domain=cmd.domain.value,
            registered_at=cmd.registered_at,
        )
    elif isinstance(cmd, PutNodeSnapshot):
        data.update(cluster_id=cmd.cluster_id, nodes=list(cmd.nodes), taken_at=cmd.taken_at)
    elif isinstance(cmd, SubmitApplication):
        data.update(
            app_id=cmd.app_id,
            name=cmd.name,
            labels=[list(kv) for kv in cmd.labels],
            qos=cmd.qos.to_dict(),
            components=[[n, d.value, m] for n, d, m in cmd.components],
            submitted_at=cmd.submitted_at,
        )
    elif isinstance(cmd, UpdateQoS):
        data.update(name=cmd.name, qos=cmd.qos.to_dict(), updated_at=cmd.updated_at)
    elif isinstance(cmd, DeleteApplication):
        data.update(name=cmd.name)
    elif isinstance(cmd, RecordDecision):
        data.update(
            app_id=cmd.app_id,
            component=cmd.component,
            cluster_id=cmd.cluster_id,
            node_names=list(cmd.node_names),
            decided_at=cmd.decided_at,
            deciding_term=cmd.deciding_term,
            version=cmd.version,
        )
    elif isinstance(cmd, RecordHeartbeat):
        data.update(
            app_id=cmd.app_id,
            component=cmd.component,
            cluster_id=cmd.cluster_id,
            version=cmd.version,
            status=cmd.status,
            at=cmd.at,
        )
    elif isinstance(cmd, RequeueComponent):
        data.update(
            app_id=cmd.app_id, component=cmd.component, version=cmd.version, reason=cmd.reason
        )
    else:
        raise TypeError(f"unknown command type: {type(cmd)!r}")
    return data


def _from_dict(data: object) -> KBCommand:
    if not isinstance(data, dict):
        raise ValueError("a command must be a JSON object")
    _check_version(data)
    kind = data.get("kind")
    if kind == Batch.kind:
        raise ValueError("batches do not nest")
    if kind == RegisterCluster.kind:
        return RegisterCluster(
            external_ip=data["external_ip"],
            domain=Domain(data["domain"]),
            registered_at=data["registered_at"],
        )
    if kind == PutNodeSnapshot.kind:
        return PutNodeSnapshot(
            cluster_id=data["cluster_id"],
            nodes=tuple(data["nodes"]),
            taken_at=data["taken_at"],
        )
    if kind == SubmitApplication.kind:
        return SubmitApplication(
            app_id=data["app_id"],
            name=data["name"],
            labels=tuple((k, v) for k, v in data["labels"]),
            qos=QoSVector.from_dict(data["qos"]),
            components=tuple((n, Domain(d), m) for n, d, m in data["components"]),
            submitted_at=data["submitted_at"],
        )
    if kind == UpdateQoS.kind:
        return UpdateQoS(
            name=data["name"],
            qos=QoSVector.from_dict(data["qos"]),
            updated_at=data["updated_at"],
        )
    if kind == DeleteApplication.kind:
        return DeleteApplication(name=data["name"])
    if kind == RecordDecision.kind:
        return RecordDecision(
            app_id=data["app_id"],
            component=data["component"],
            cluster_id=data["cluster_id"],
            node_names=tuple(data["node_names"]),
            decided_at=data["decided_at"],
            deciding_term=data["deciding_term"],
            version=data["version"],
        )
    if kind == RecordHeartbeat.kind:
        return RecordHeartbeat(
            app_id=data["app_id"],
            component=data["component"],
            cluster_id=data["cluster_id"],
            version=data["version"],
            status=data["status"],
            at=data["at"],
        )
    if kind == RequeueComponent.kind:
        return RequeueComponent(
            app_id=data["app_id"],
            component=data["component"],
            version=data["version"],
            reason=data["reason"],
        )
    raise ValueError(f"unknown command kind: {kind!r}")
