"""The knowledge base state machine applied by the Raft log.

``apply`` is deterministic: every replica feeding it the same command
sequence ends up structurally identical. Commands referencing unknown ids
degrade to no-op effects (never exceptions), so replicas cannot diverge on
bad input. Each effect records the component status transitions it caused,
which is what the status-machine property tests replay.

A v2 KB snapshot writes each retained-node list once, in a ``node_lists``
table its decisions index, as a v2 decision batch does; ``restore`` reads
the table through ``qonnect.kb.commands``' ``take_node_lists`` and
``put_node_lists``, the one reader of both formats.
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, TypeVar

from qonnect import codec
from qonnect.kb.commands import (
    DeleteApplication,
    KBCommand,
    PutNodeSnapshot,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    SubmitApplication,
    UpdateQoS,
    put_node_lists,
    take_node_lists,
)
from qonnect.kb.model import (
    ApplicationRecord,
    ClusterRecord,
    ComponentRecord,
    ComponentStatus,
    Domain,
    NodeSnapshot,
    ScheduleDecision,
)

# Namespace for deriving cluster ids from (domain, external ip); makes
# RegisterCluster idempotent and replica-deterministic by construction.
_CLUSTER_ID_NAMESPACE = uuid.UUID("87e1f2da-4b6e-4f80-9da5-5ea726ea3d58")

# The KB snapshot document's schema. v2 writes each node list once, in a
# table its decisions index; ``restore`` reads v1 too. Log entries keep
# ``codec.VERSION``.
STATE_VERSION = 2

_decode_node = codec.decoder(NodeSnapshot)

_T = TypeVar("_T")


def node_from_wire(wire: object, cluster_id: str, taken_at: float) -> NodeSnapshot:
    """The ``NodeSnapshot`` a reported node applies as; ``ValueError`` if malformed.

    The leader stamps ``cluster_id`` and ``taken_at``; the wire form may not
    carry them.
    """
    if type(wire) is not dict or "cluster_id" in wire or "taken_at" in wire:
        raise ValueError("a node must be an object without cluster_id or taken_at")
    return _decode_node({**wire, "cluster_id": cluster_id, "taken_at": taken_at})


HEARTBEAT_STATUS = {
    "healthy": ComponentStatus.HEALTHY,
    "progressing": ComponentStatus.PROGRESSING,
    "failed": ComponentStatus.FAILED,
}

_ACTIVE = frozenset(
    (ComponentStatus.SCHEDULED, ComponentStatus.HEALTHY, ComponentStatus.PROGRESSING)
)
# Bound once: see raft.node.
_PENDING, _SCHEDULED = ComponentStatus.PENDING, ComponentStatus.SCHEDULED
_WITHDRAWN = ComponentStatus.WITHDRAWN
_STATUS_VALUE = {status: status.value for status in ComponentStatus}


def _scan_order(pair: tuple[ApplicationRecord, ComponentRecord]) -> tuple[float, str, str]:
    """The order both scans return: (submitted_at, app name, component name)."""
    app, comp = pair
    return app.submitted_at, app.name, comp.name


def cluster_id_for(external_ip: str, domain: Domain) -> str:
    return str(uuid.uuid5(_CLUSTER_ID_NAMESPACE, f"{domain.value}/{external_ip}"))


@dataclass
class Effect:
    """What one applied command did; `transitions` lists status changes."""

    kind: str
    detail: dict = field(default_factory=dict)
    transitions: list[dict] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return self.kind == "noop"


def _noop(reason: str, **detail) -> Effect:
    return Effect(kind="noop", detail={"reason": reason, **detail})


class KnowledgeBase:
    def __init__(self) -> None:
        self.clusters: dict[str, ClusterRecord] = {}
        self.nodes: dict[tuple[str, str], NodeSnapshot] = {}
        self.applications: dict[str, ApplicationRecord] = {}
        # Indexes kept by apply and rebuilt by restore; they are derived from
        # the records above, so equality and snapshots leave them out.
        self._live_by_name: dict[str, ApplicationRecord] = {}
        # cluster id -> (app id, component) of its Scheduled components.
        self._scheduled: dict[str, set[tuple[str, str]]] = {}
        # (app id, component) of every Pending component; names are unique
        # within an application (``validate_bundle``).
        self._pending: set[tuple[str, str]] = set()
        # Bumped whenever a component's stall reference may move earlier: it
        # became active, or a heartbeat set its replicated time back. A
        # lease's stall ``floor`` taken at another ``epoch`` is void
        # (``qonnect.scheduler.loop.Lease``).
        self.stall_epoch = 0
        # app id -> what ``derived`` computed from that record; filled by
        # reads, dropped with the record and never restored.
        self._derived: dict[str, object] = {}
        # app id -> the snapshot text its submit fixes (``_fixed_text``),
        # made by the submit's apply or a restored KB's first snapshot, and
        # dropped with the record.
        self._texts: dict[str, _FixedText] = {}
        # cluster id -> ingress ip, served as the config poll's answer.
        self._config: dict[str, str] = {}
        # One tuple per distinct retained-node list, which every decision
        # holding that list shares; cut back to the live lists by each
        # ``snapshot_state``.
        self._node_lists: dict[tuple[str, ...], tuple[str, ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            self.clusters == other.clusters
            and self.nodes == other.nodes
            and self.applications == other.applications
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def live_application(self, name: str) -> ApplicationRecord | None:
        return self._live_by_name.get(name)

    def derived(self, app: ApplicationRecord, derive: Callable[[ApplicationRecord], _T]) -> _T:
        """``derive(app)``, computed once while ``app`` is in this KB.

        Only for what a submit fixes and no later command changes: each
        component's name, target domain and manifest. What a submit fixes
        has two readers. The agent poll (``qonnect.rla.service``) reads it
        here, so the value is kept per application, not per ``derive``.
        ``snapshot_state`` keeps its text in ``_texts`` by the same rule.
        """
        value = self._derived.get(app.app_id)
        if value is None:
            value = self._derived[app.app_id] = derive(app)
        return value

    def scheduled_applications(self, cluster_id: str) -> list[ApplicationRecord]:
        """Apps with a component Scheduled on this cluster, by (submitted_at, name)."""
        app_ids = {app_id for app_id, _ in self._scheduled.get(cluster_id, ())}
        return sorted(
            (self.applications[app_id] for app_id in app_ids),
            key=lambda a: (a.submitted_at, a.name),
        )

    def cluster_config(self) -> dict[str, str]:
        """cluster id -> ingress ip for every registered cluster.

        The KB's own mapping, kept by ``RegisterCluster``'s apply and built by
        ``restore``, so a poll builds nothing. Callers must not change it.
        """
        return self._config

    def nodes_in_domain(self, domain: Domain) -> list[NodeSnapshot]:
        cluster_ids = {cid for cid, rec in self.clusters.items() if rec.domain == domain}
        return [snap for key, snap in self.nodes.items() if key[0] in cluster_ids]

    def pending_components(self) -> list[tuple[ApplicationRecord, ComponentRecord]]:
        """Pending components by (submitted_at, app name, component name).

        Read from the pending index, so with nothing pending no application
        is visited.
        """
        out = []
        for app_id, name in self._pending:
            app = self.applications[app_id]
            out.append((app, app.component(name)))
        out.sort(key=_scan_order)
        return out

    def stalled_components(
        self,
        now: float,
        grace: float,
        seen: Mapping[tuple[str, str], float] = MappingProxyType({}),
        lease_start: float = -math.inf,
    ) -> tuple[list[tuple[ApplicationRecord, ComponentRecord]], float]:
        """Active components whose stall reference is more than ``grace`` old,
        by (submitted_at, app name, component name), and the floor: the
        earliest stall reference of any active component, or ``now`` if
        earlier.

        A component's stall reference is its replicated heartbeat time (its
        decision time, if never beaten). A leader passes the soft state of
        its lease (by default, none): ``seen`` maps ``(app_id, component)``
        to the last heartbeat it accepted, and ``lease_start`` is when it
        began to lead; the reference is then the latest of those times and
        the replicated one. No component can stall before ``floor + grace``
        unless a reference moves earlier (the lease's ``floor`` and
        ``epoch`` say when).

        The scan walks every active component once, unsorted, and sorts only
        what it returns.
        """
        if grace <= 0:
            raise ValueError("grace period must be positive")
        stalled = []
        floor = now
        for app in self.applications.values():
            for comp in app.components:
                if comp.status not in _ACTIVE or comp.decision is None:
                    continue
                reference = comp.last_heartbeat
                if reference is None:
                    reference = comp.decision.decided_at
                key = (app.app_id, comp.name)
                reference = max(reference, seen.get(key, reference), lease_start)
                if reference < floor:
                    floor = reference
                if now - reference > grace:
                    stalled.append((app, comp))
        stalled.sort(key=_scan_order)
        return stalled, floor

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def apply(self, cmd: KBCommand) -> Effect:
        handler = _HANDLERS.get(type(cmd))
        if handler is None:
            raise TypeError(f"unknown command type: {type(cmd)!r}")
        return handler(self, cmd)

    def _transition(
        self, effect: Effect, app: ApplicationRecord, comp: ComponentRecord, to: ComponentStatus
    ) -> None:
        """Move ``comp`` to ``to``: the one place a status changes.

        A move to Scheduled needs ``comp.decision`` set, and a move away from
        it needs the decision still set: it names the cluster to unindex.
        """
        if comp.status is to:
            return
        self._index(app, comp, add=False)
        if to in _ACTIVE and comp.status not in _ACTIVE:
            self.stall_epoch += 1  # its reference may predate a stall scan's floor
        effect.transitions.append(
            {
                "app": app.name,
                "component": comp.name,
                "from": _STATUS_VALUE[comp.status],
                "to": _STATUS_VALUE[to],
            }
        )
        comp.status = to
        self._index(app, comp, add=True)

    def _index(self, app: ApplicationRecord, comp: ComponentRecord, add: bool) -> None:
        """Add ``comp`` to the index its status names, or drop it from it:
        ``_pending`` for Pending, ``_scheduled`` under its decision's cluster
        for Scheduled. No other status has an index."""
        key = (app.app_id, comp.name)
        if comp.status is _PENDING:
            if add:
                self._pending.add(key)
            else:
                self._pending.discard(key)
        elif comp.status is _SCHEDULED and comp.decision is not None:
            cluster_id = comp.decision.cluster_id
            held = self._scheduled.get(cluster_id)
            if add:
                if held is None:
                    held = self._scheduled[cluster_id] = set()
                held.add(key)
            elif held is not None:
                held.discard(key)
                if not held:
                    del self._scheduled[cluster_id]

    def _apply_register(self, cmd: RegisterCluster) -> Effect:
        cid = cluster_id_for(cmd.external_ip, cmd.domain)
        if cid in self.clusters:
            return Effect(kind="cluster-exists", detail={"cluster_id": cid})
        self.clusters[cid] = ClusterRecord(
            cluster_id=cid,
            domain=cmd.domain,
            external_ip=cmd.external_ip,
            registered_at=cmd.registered_at,
        )
        self._config[cid] = cmd.external_ip
        return Effect(
            kind="cluster-registered",
            detail={"cluster_id": cid, "domain": cmd.domain.value, "ip": cmd.external_ip},
        )

    def _apply_put_nodes(self, cmd: PutNodeSnapshot) -> Effect:
        """Store a cluster's report as its node list: a node the report leaves
        out goes, unless it was reported later than this report."""
        if cmd.cluster_id not in self.clusters:
            return _noop("unknown-cluster", cluster_id=cmd.cluster_id)
        cluster_id = self.clusters[cmd.cluster_id].cluster_id  # the KB's string, not the log's
        stored, flags = 0, []
        named = set()
        for i, wire in enumerate(cmd.nodes):
            try:
                snap = node_from_wire(wire, cluster_id, cmd.taken_at)
            except ValueError:  # logged before leaders checked reports
                flags.append(f"malformed-node:{i}")
                continue
            key = (cluster_id, snap.node_name)
            named.add(key)
            existing = self.nodes.get(key)
            if existing is not None and existing.taken_at > snap.taken_at:
                flags.append(f"stale-snapshot:{snap.node_name}")
                continue
            if snap.role == "control-plane":
                # Filtering is the reporting agent's duty; store it but flag it.
                flags.append(f"control-plane-node-reported:{snap.node_name}")
            self.nodes[key] = snap
            stored += 1
        for key in [
            key
            for key, snap in self.nodes.items()
            if key[0] == cluster_id and key not in named and snap.taken_at <= cmd.taken_at
        ]:
            del self.nodes[key]
        return Effect(kind="nodes-updated", detail={"stored": stored, "flags": flags})

    def _apply_submit(self, cmd: SubmitApplication) -> Effect:
        if self.live_application(cmd.name) is not None:
            return _noop("name-in-use", name=cmd.name)
        replaced = self.applications.get(cmd.app_id)
        if replaced is not None:  # a reused app id drops the record it replaces
            self._derived.pop(cmd.app_id, None)
            if self._live_by_name.get(replaced.name) is replaced:
                del self._live_by_name[replaced.name]
            for comp in replaced.components:
                self._index(replaced, comp, add=False)
        effect = Effect(kind="application-submitted", detail={"app_id": cmd.app_id})
        components = []
        for name, domain, manifest in cmd.components:
            comp = ComponentRecord(name=name, target_domain=domain, manifest=manifest)
            components.append(comp)
            effect.transitions.append(
                {"app": cmd.name, "component": name, "from": None, "to": _STATUS_VALUE[comp.status]}
            )
        app = ApplicationRecord(
            app_id=cmd.app_id,
            name=cmd.name,
            labels=dict(cmd.labels),
            qos=cmd.qos,
            components=components,
            submitted_at=cmd.submitted_at,
        )
        self.applications[cmd.app_id] = app
        self._live_by_name[cmd.name] = app
        for comp in components:
            self._index(app, comp, add=True)
        self._texts[cmd.app_id] = _fixed_text(app)  # now, so no snapshot stalls on it
        return effect

    def _apply_update_qos(self, cmd: UpdateQoS) -> Effect:
        app = self.live_application(cmd.name)
        if app is None:
            return _noop("unknown-application", name=cmd.name)
        app.qos = cmd.qos
        app.version += 1
        effect = Effect(kind="qos-updated", detail={"name": cmd.name, "version": app.version})
        # A QoS change re-places every component against the new weights.
        for comp in app.components:
            self._transition(effect, app, comp, _PENDING)
            comp.decision = None
            comp.last_heartbeat = None
        return effect

    def _apply_delete(self, cmd: DeleteApplication) -> Effect:
        app = self.live_application(cmd.name)
        if app is None:
            return _noop("unknown-application", name=cmd.name)
        del self._live_by_name[cmd.name]
        del self.applications[app.app_id]
        self._derived.pop(app.app_id, None)
        self._texts.pop(app.app_id, None)
        effect = Effect(kind="application-withdrawn", detail={"name": cmd.name})
        for comp in app.components:
            self._transition(effect, app, comp, _WITHDRAWN)
        return effect

    def _target(
        self, cmd: RecordDecision | RecordHeartbeat | RequeueComponent
    ) -> tuple[ApplicationRecord, ComponentRecord, None] | tuple[None, None, Effect]:
        """The live app and component ``cmd`` names at its version, or the no-op it is."""
        app = self.applications.get(cmd.app_id)
        if app is None:
            return None, None, _noop("unknown-application", app_id=cmd.app_id)
        comp = app.component(cmd.component)
        if comp is None:
            return None, None, _noop("unknown-component", component=cmd.component)
        if cmd.version != app.version:
            return None, None, _noop("stale-version", expected=app.version, got=cmd.version)
        return app, comp, None

    def _apply_decision(self, cmd: RecordDecision) -> Effect:
        app, comp, refused = self._target(cmd)
        if refused is not None:
            return refused
        if comp.status is not _PENDING:
            return _noop("not-pending", component=cmd.component, status=comp.status.value)
        cluster = self.clusters.get(cmd.cluster_id)
        if cluster is None:
            return _noop("unknown-cluster", cluster_id=cmd.cluster_id)
        if cluster.domain != comp.target_domain:
            return _noop(
                "domain-mismatch",
                cluster_domain=cluster.domain.value,
                target=comp.target_domain.value,
            )
        node_names = self._node_lists.setdefault(cmd.node_names, cmd.node_names)
        comp.decision = ScheduleDecision(
            component_name=comp.name,
            cluster_id=cluster.cluster_id,  # the KB's string, not the log's copy
            node_names=node_names,
            decided_at=cmd.decided_at,
            deciding_term=cmd.deciding_term,
        )
        comp.last_heartbeat = None
        effect = Effect(
            kind="decision-recorded",
            detail={
                "app": app.name,
                "component": comp.name,
                "cluster_id": cluster.cluster_id,
                "nodes": node_names,
            },
        )
        self._transition(effect, app, comp, _SCHEDULED)
        return effect

    def _apply_heartbeat(self, cmd: RecordHeartbeat) -> Effect:
        app, comp, refused = self._target(cmd)
        if refused is not None:
            return refused
        if comp.decision is None or comp.decision.cluster_id != cmd.cluster_id:
            return _noop("not-assigned", component=cmd.component, cluster_id=cmd.cluster_id)
        status = HEARTBEAT_STATUS.get(cmd.status)
        if status is None:
            return _noop("unknown-status", status=cmd.status)
        beaten = comp.last_heartbeat
        if cmd.at < (comp.decision.decided_at if beaten is None else beaten):
            self.stall_epoch += 1  # stamped by a clock behind the last one
        comp.last_heartbeat = cmd.at
        effect = Effect(
            kind="heartbeat-recorded",
            detail={"app": app.name, "component": comp.name, "status": cmd.status},
        )
        self._transition(effect, app, comp, status)
        return effect

    def _apply_requeue(self, cmd: RequeueComponent) -> Effect:
        app, comp, refused = self._target(cmd)
        if refused is not None:
            return refused
        if comp.status is _PENDING:
            return _noop("already-pending", component=cmd.component)
        effect = Effect(
            kind="component-requeued",
            detail={"app": app.name, "component": comp.name, "reason": cmd.reason},
        )
        self._transition(effect, app, comp, _PENDING)
        comp.decision = None
        comp.last_heartbeat = None
        return effect

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot_state(self) -> str:
        """The KB as schema v2 text: byte for byte ``codec.dumps`` of the v1
        document of its records, with each decision's node list moved into
        a ``node_lists`` table, in order of first use, that it indexes.

        The applications section is built as text. Each manifest is kept as
        its text (``codec.ObjectText``) and spliced in. The rest of what a
        submit fixes is encoded once per record (``_fixed_text``): when the
        submit applies, or at a restored record's first snapshot. Only the
        fields that change are formatted on every call. Clusters, nodes and
        the table go through the codec. The KB's node-list tuples are cut
        back to the ones live decisions hold.
        """
        lists: dict[tuple[str, ...], int] = {}
        parts = [self._application_text(app, lists) for app in self.applications.values()]
        self._node_lists = {names: names for names in lists}
        state = _State(STATE_VERSION, list(self.clusters.values()), list(self.nodes.values()), [])
        # {"applications":[],"clusters":…,"node_lists":…,"nodes":…,"v":2}
        rest = codec.dumps({**_encode_state(state), "node_lists": list(lists)})
        if not parts:
            return rest
        # The head and tail ride on the first and last part, so no string
        # of the whole applications section is built besides the blob.
        parts[0] = _APPLICATIONS + parts[0]
        parts[-1] += rest[len(_APPLICATIONS):]
        return ",".join(parts)

    def _application_text(self, app: ApplicationRecord, lists: dict[tuple[str, ...], int]) -> str:
        """``app`` as ``snapshot_state`` writes it; ``lists`` maps each node
        list this call has met to its index in the table."""
        kept = self._texts.get(app.app_id) or self._texts.setdefault(app.app_id, _fixed_text(app))
        head, middle, tail, fixed = kept
        components = ",".join(
            f'{{"decision":{_decision_text(comp.decision, lists)},'
            f'"last_heartbeat":{_scalar(comp.last_heartbeat)},"manifest":{comp.manifest}{name}'
            f"{_STATUS_TEXT[comp.status]}{domain}"
            for comp, (name, domain) in zip(app.components, fixed)
        )
        qos = app.qos
        return (
            f'{head}{components}{middle}{{"energy":{_scalar(qos.energy)},'
            f'"performance":{_scalar(qos.performance)},"pricing":{_scalar(qos.pricing)}}}'
            f'{tail}{_scalar(app.version)},"withdrawn":{_scalar(app.withdrawn)}}}'
        )

    @classmethod
    def restore(cls, blob: str) -> KnowledgeBase:
        """Load a ``snapshot_state`` blob, v2 or v1; a malformed one raises
        ``ValueError``. Applications an older delete kept, marked
        ``withdrawn``, are dropped. The codec turns each manifest back into
        its text. A v2 document's table is read by ``take_node_lists``;
        either version's equal lists are then made one tuple."""
        doc = codec.loads(blob)
        listed = None
        if type(doc) is dict and doc.get("v") == STATE_VERSION:
            listed = take_node_lists(doc, _decisions_in(doc))
        state = _decode_state(doc)
        decisions = [comp.decision for app in state.applications for comp in app.components
                     if comp.decision is not None]
        if listed is None:
            listed = [decision.node_names for decision in decisions]
        kb = cls()
        put_node_lists(decisions, [kb._node_lists.setdefault(names, names) for names in listed])
        kb.clusters = {rec.cluster_id: rec for rec in state.clusters}
        kb._config = {rec.cluster_id: rec.external_ip for rec in state.clusters}
        kb.nodes = {(snap.cluster_id, snap.node_name): snap for snap in state.nodes}
        kb.applications = {app.app_id: app for app in state.applications if not app.withdrawn}
        for app in kb.applications.values():
            kb._live_by_name.setdefault(app.name, app)
            for comp in app.components:
                kb._index(app, comp, add=True)
        return kb


_HANDLERS: dict[type, Callable[[KnowledgeBase, KBCommand], Effect]] = {
    RegisterCluster: KnowledgeBase._apply_register,
    PutNodeSnapshot: KnowledgeBase._apply_put_nodes,
    SubmitApplication: KnowledgeBase._apply_submit,
    UpdateQoS: KnowledgeBase._apply_update_qos,
    DeleteApplication: KnowledgeBase._apply_delete,
    RecordDecision: KnowledgeBase._apply_decision,
    RecordHeartbeat: KnowledgeBase._apply_heartbeat,
    RequeueComponent: KnowledgeBase._apply_requeue,
}


_APPLICATIONS = '{"applications":['
# repr of a scalar -> its JSON text, where the two differ.
_JSON_TEXT = {"None": "null", "True": "true", "False": "false",
              "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_STATUS_TEXT = {status: _string(status.value) for status in ComponentStatus}


def _scalar(value: float | bool | None) -> str:
    """A number, bool or None as ``codec.dumps`` writes it."""
    text = repr(value)
    return _JSON_TEXT.get(text, text)


class _FixedText(NamedTuple):
    """An application's snapshot text that a submit fixes: the pieces around
    the fields that change, in ``codec.dumps``'s key order."""

    head: str  # {"app_id":…,"components":[
    middle: str  # ],"labels":…,"name":…,"qos":
    tail: str  # ,"submitted_at":…,"version":
    # Per component: ,"name":…,"status": and ,"target_domain":…}; its
    # manifest is kept as text already and goes in front of the first.
    components: tuple[tuple[str, str], ...]


def _fixed_text(app: ApplicationRecord) -> _FixedText:
    return _FixedText(
        f'{{"app_id":{_string(app.app_id)},"components":[',
        f'],"labels":{codec.dumps(app.labels)},"name":{_string(app.name)},"qos":',
        f',"submitted_at":{_scalar(app.submitted_at)},"version":',
        tuple(
            (
                f',"name":{_string(comp.name)},"status":',
                f',"target_domain":{_string(comp.target_domain.value)}}}',
            )
            for comp in app.components
        ),
    )


def _decision_text(decision: ScheduleDecision | None, lists: dict[tuple[str, ...], int]) -> str:
    if decision is None:
        return "null"
    index = lists.setdefault(decision.node_names, len(lists))
    return (
        f'{{"cluster_id":{_string(decision.cluster_id)},'
        f'"component_name":{_string(decision.component_name)},'
        f'"decided_at":{_scalar(decision.decided_at)},'
        f'"deciding_term":{_scalar(decision.deciding_term)},"node_list":{index}}}'
    )


def _decisions_in(doc: dict) -> list[dict]:
    """Each decision object in a snapshot document, in order. What this
    passes over (a component that is not an object, say) fails to decode."""
    decisions = []
    apps = doc.get("applications")
    for app in apps if type(apps) is list else ():
        comps = app.get("components") if type(app) is dict else None
        for comp in comps if type(comps) is list else ():
            decision = comp.get("decision") if type(comp) is dict else None
            if type(decision) is dict:
                decisions.append(decision)
    return decisions


@dataclass(frozen=True)
class _State:
    """The snapshot document: every record of the KB. A v2 document also
    holds a ``node_lists`` table, which ``restore`` takes out before
    decoding and ``snapshot_state`` adds after encoding."""

    v: int
    clusters: list[ClusterRecord]
    nodes: list[NodeSnapshot]
    applications: list[ApplicationRecord]

    def __post_init__(self) -> None:
        if self.v not in (1, STATE_VERSION):
            raise ValueError(f"unsupported knowledge base snapshot schema: {self.v!r}")


_encode_state = codec.encoder(_State)
_decode_state = codec.decoder(_State)
