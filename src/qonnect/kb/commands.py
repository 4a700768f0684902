"""The KB command vocabulary: every mutation travels the Raft log as one of these.

Commands carry any wall-clock timestamps explicitly (stamped by the leader at
propose time) so that applying the same sequence on every replica is fully
deterministic.

A log entry holds either one command or a ``Batch`` of them (group commit:
one entry per telemetry flush or scheduler pass). ``qonnect.codec`` writes
a single command as the v1 entry ``{"v": 1, "kind": cls.kind, **fields}``,
with sorted keys, and every batch as v3,
``{"kind": "batch", "node_lists": [[...], ...], "runs": [...], "v": 3}``.
Each run is one maximal stretch of members of one kind, written by that
class's run codec as ``{"kind": cls.kind, <field>: [one value per
member], ...}``, so the runs keep the members' order. A decision run holds
a ``node_list`` column, each member's index in the table, in place of
``node_names``. The table holds each distinct node list once, in order of
first use, and is there only when a decision run is. v1 batches
(``"commands"``, members written as single entries) and v2 batches (v1's
members, each decision holding ``node_list``, and the table) still decode.

The KB snapshot v2 (``qonnect.kb.store``) holds the same table. The
snapshot and a v2 batch read it through ``take_node_lists`` and
``put_node_lists``; ``listed_indexes`` takes each index out of their
decision objects. A v3 decision run looks its lists up by the same rule
(``_lists_at``, the one place that knows the table's index rule and its
refusals) before its run is decoded, and hands them to the run codec as
its decoded ``node_names`` column.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from itertools import groupby
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


# The schema of a batch entry; every single-command entry is v1.
BATCH_VERSION = 3
# The schema of a v2 batch, which held a decision; still read.
_LISTED_VERSION = 2
_BATCH_KEYS = frozenset(("kind", "node_lists", "runs", "v"))

_encode = codec.encoder(KBCommand)
_decode = codec.decoder(KBCommand | Batch)
_runs = {cls.kind: codec.columns(cls) for cls in typing.get_args(KBCommand)}
_decode_node_lists = codec.decoder(list[tuple[str, ...]])
_NO_NAMES: list = []  # what a listed decision is decoded with, before it gets its list


def listed_indexes(decisions: list[dict]) -> list[Any]:
    """Take each of ``decisions``' ``node_list`` out, so that the rest
    decodes as v1: each decision is left an empty ``node_names``. Returns
    the indexes, in order, for ``take_node_lists``; ``ValueError`` for an
    index next to ``node_names``."""
    indexes = []
    for decision in decisions:
        if "node_names" in decision:
            raise ValueError("a listed decision holds node_list, not node_names")
        indexes.append(decision.pop("node_list", None))
        decision["node_names"] = _NO_NAMES
    return indexes


def take_node_lists(doc: dict, indexes: list[Any]) -> list[tuple[str, ...]]:
    """Take the node-list table out of ``doc`` and return the entry each of
    ``indexes`` names, in order, as the table's one tuple per entry;
    ``ValueError`` for a missing or malformed table, or an index that is not
    an int (a bool is not) within it."""
    return _lists_at(_decode_node_lists(doc.pop("node_lists", None)), indexes)


def _lists_at(table: list[tuple[str, ...]], indexes: list[Any]) -> list[tuple[str, ...]]:
    for index in indexes:
        if type(index) is not int or not 0 <= index < len(table):
            raise ValueError(f"node list {index!r:.20} is not in the table of {len(table)}")
    return [table[index] for index in indexes]


def put_node_lists(decisions: Iterable[Any], names: list[tuple[str, ...]]) -> None:
    """Give each decoded decision its list, in order. ``object.__setattr__``
    passes a frozen class's own, and sets a slot or ``__dict__`` alike."""
    for decision, nodes in zip(decisions, names, strict=True):
        object.__setattr__(decision, "node_names", nodes)


def encode_command(cmd: KBCommand | Batch) -> str:
    if type(cmd) is not Batch:
        return codec.dumps(_encode(cmd))
    runs = []
    lists: dict[tuple[str, ...], int] = {}
    for cls, members in groupby(cmd.commands, type):
        members = list(members)
        run = _runs[cls.kind].encode(members)
        if cls is RecordDecision:
            del run["node_names"]
            run["node_list"] = [lists.setdefault(m.node_names, len(lists)) for m in members]
        run["kind"] = cls.kind
        runs.append(run)
    entry = {"kind": Batch.kind, "runs": runs, "v": BATCH_VERSION}
    if lists:
        entry["node_lists"] = list(lists)
    return codec.dumps(entry)


def decode_command(raw: str) -> KBCommand | Batch:
    """Decode one log entry: a v1 command or batch, a v2 batch or a v3
    batch; any malformed payload raises ``ValueError``."""
    data = codec.loads(raw)
    if type(data) is not dict:
        return _decode(data)
    version = data.get("v")
    if version == BATCH_VERSION and type(version) is int:
        return _decode_runs(data)
    if "node_lists" not in data:
        return _decode(data)
    if version != _LISTED_VERSION or type(version) is not int or data.get("kind") != Batch.kind:
        raise ValueError("only a v2 or v3 batch holds a node-list table")
    members = data.get("commands")
    names = take_node_lists(data, listed_indexes([
        member for member in (members if type(members) is list else ())
        if type(member) is dict and member.get("kind") == RecordDecision.kind
    ]))
    data["v"] = codec.VERSION
    batch = _decode(data)
    put_node_lists((cmd for cmd in batch.commands if type(cmd) is RecordDecision), names)
    return batch


def _decode_runs(data: dict) -> Batch:
    """A v3 batch: each run by its class's run codec, a decision run given
    the lists its ``node_list`` column names, by ``take_node_lists``' index
    rule, as its ``node_names`` column."""
    runs = data.get("runs")
    if data.get("kind") != Batch.kind or not data.keys() <= _BATCH_KEYS or type(runs) is not list:
        raise ValueError("a v3 entry is a batch of runs")
    members: list[KBCommand] = []
    table = None
    for run in runs:
        kind = run.pop("kind", None) if type(run) is dict else None
        run_codec = _runs.get(kind) if type(kind) is str else None
        if run_codec is None:
            raise ValueError(f"unknown run kind: {kind!r:.40}")
        if kind == RecordDecision.kind:
            listed = run.pop("node_list", None)
            if type(listed) is not list or "node_names" in run:
                raise ValueError("a decision run holds a node_list column, not node_names")
            if table is None:
                table = _decode_node_lists(data.pop("node_lists", None))
            decoded = run_codec.decode(run, {"node_names": _lists_at(table, listed)})
        else:
            decoded = run_codec.decode(run)
        if not decoded:
            raise ValueError(f"an empty {kind} run")
        members += decoded
    if "node_lists" in data:
        raise ValueError("a node-list table in a batch with no decision")
    return Batch(tuple(members))
