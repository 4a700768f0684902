"""The KB command vocabulary: every mutation travels the Raft log as one of these.

Commands carry any wall-clock timestamps explicitly (stamped by the leader at
propose time) so that applying the same sequence on every replica is fully
deterministic.

A log entry holds either one command or a ``Batch`` of them (group commit:
one entry per telemetry flush or scheduler pass). Entries are written by
``qonnect.codec`` as ``{"v": 1, "kind": cls.kind, **fields}`` with sorted
keys, and a batch's members like single-command entries, with one
exception: a batch that holds a ``RecordDecision`` is written as v2,
``{"commands": [...], "kind": "batch", "node_lists": [[...], ...], "v": 2}``.
Its table holds each distinct node list once, in order of first use, and
each decision member holds ``node_list``, its index there, in place of
``node_names``. v1 batches still decode.

The KB snapshot v2 (``qonnect.kb.store``) holds the same table. Both
formats are read through ``take_node_lists`` and ``put_node_lists``, the
one place that knows the table's index rule and its refusals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Union

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
    # Wire-form node dicts, taken_at stamped on apply. Any JSON value decodes,
    # so an entry logged before leaders checked reports still replays; apply
    # flags and skips a node that is not a well-formed object.
    nodes: tuple[Any, ...]
    taken_at: float


@dataclass(frozen=True)
class SubmitApplication:
    kind = "submit-application"
    app_id: str
    name: str
    labels: tuple[tuple[str, str], ...]
    qos: QoSVector
    # (name, target domain, manifest); the entry holds each manifest's object
    components: tuple[tuple[str, Domain, codec.ObjectText], ...]
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


# The schema of a batch that holds a decision; every other entry is v1.
LISTED_VERSION = 2

_encode = codec.encoder(KBCommand | Batch)
_decode = codec.decoder(KBCommand | Batch)
_decode_node_lists = codec.decoder(list[tuple[str, ...]])
_NO_NAMES: list = []  # what a listed decision is decoded with, before it gets its list


def take_node_lists(doc: dict, decisions: list[dict]) -> list[tuple[str, ...]]:
    """Take the node-list table out of ``doc``, and each of ``decisions``'
    index into it, so that the rest decodes as v1: each decision is left an
    empty ``node_names``. Returns each decision's list, in order, as the
    table's one tuple per entry; ``ValueError`` for a missing or malformed
    table, an index that is not an int (a bool is not) within it, or an
    index next to ``node_names``."""
    table = _decode_node_lists(doc.pop("node_lists", None))
    taken = []
    for decision in decisions:
        index = decision.pop("node_list", None)
        if type(index) is not int or not 0 <= index < len(table):
            raise ValueError(f"node list {index!r:.20} is not in the table of {len(table)}")
        if "node_names" in decision:
            raise ValueError("a listed decision holds node_list, not node_names")
        taken.append(table[index])
        decision["node_names"] = _NO_NAMES
    return taken


def put_node_lists(decisions: Iterable[Any], names: list[tuple[str, ...]]) -> None:
    """Give each decoded decision its list, in order, as the codec builds it."""
    for decision, nodes in zip(decisions, names, strict=True):
        decision.__dict__["node_names"] = nodes


def encode_command(cmd: KBCommand | Batch) -> str:
    data = _encode(cmd)
    if type(cmd) is Batch and any(type(member) is RecordDecision for member in cmd.commands):
        lists: dict[tuple[str, ...], int] = {}
        for member, encoded in zip(cmd.commands, data["commands"]):
            if type(member) is RecordDecision:
                del encoded["node_names"]
                encoded["node_list"] = lists.setdefault(member.node_names, len(lists))
        data.update(node_lists=list(lists), v=LISTED_VERSION)
    return codec.dumps(data)


def decode_command(raw: str) -> KBCommand | Batch:
    """Decode one log entry, v1 or a v2 batch; any malformed payload raises
    ``ValueError``."""
    data = codec.loads(raw)
    if type(data) is not dict or "node_lists" not in data:
        return _decode(data)
    if data.get("v") != LISTED_VERSION or type(data["v"]) is not int \
            or data.get("kind") != Batch.kind:
        raise ValueError("only a v2 batch holds a node-list table")
    members = data.get("commands")
    names = take_node_lists(data, [
        member for member in (members if type(members) is list else ())
        if type(member) is dict and member.get("kind") == RecordDecision.kind
    ])
    data["v"] = codec.VERSION
    batch = _decode(data)
    put_node_lists((cmd for cmd in batch.commands if type(cmd) is RecordDecision), names)
    return batch
