"""The knowledge base state machine applied by the Raft log.

``apply`` is deterministic: every replica feeding it the same command
sequence ends up structurally identical. Commands referencing unknown ids
degrade to no-op effects (never exceptions), so replicas cannot diverge on
bad input. Each effect records the component status transitions it caused,
which is what the status-machine property tests replay.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field

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

SNAPSHOT_SCHEMA_VERSION = 1

# Namespace for deriving cluster ids from (domain, external ip); makes
# RegisterCluster idempotent and replica-deterministic by construction.
_CLUSTER_ID_NAMESPACE = uuid.UUID("87e1f2da-4b6e-4f80-9da5-5ea726ea3d58")

_HEARTBEAT_STATUS = {
    "healthy": ComponentStatus.HEALTHY,
    "progressing": ComponentStatus.PROGRESSING,
    "failed": ComponentStatus.FAILED,
}

_ACTIVE = (ComponentStatus.SCHEDULED, ComponentStatus.HEALTHY, ComponentStatus.PROGRESSING)


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
        for app in self.applications.values():
            if app.name == name and not app.withdrawn:
                return app
        return None

    def cluster_config(self) -> dict[str, str]:
        """cluster id -> ingress ip for every registered cluster."""
        return {cid: rec.external_ip for cid, rec in self.clusters.items()}

    def nodes_in_domain(self, domain: Domain) -> list[NodeSnapshot]:
        cluster_ids = {cid for cid, rec in self.clusters.items() if rec.domain == domain}
        return [snap for key, snap in self.nodes.items() if key[0] in cluster_ids]

    def _apps_in_order(self) -> list[ApplicationRecord]:
        return sorted(
            (a for a in self.applications.values() if not a.withdrawn),
            key=lambda a: (a.submitted_at, a.name),
        )

    def pending_components(self) -> list[tuple[ApplicationRecord, ComponentRecord]]:
        out = []
        for app in self._apps_in_order():
            for comp in sorted(app.components, key=lambda c: c.name):
                if comp.status == ComponentStatus.PENDING:
                    out.append((app, comp))
        return out

    def stalled_components(
        self, now: float, grace: float
    ) -> list[tuple[ApplicationRecord, ComponentRecord]]:
        """Active components whose heartbeat (or decision, if never beaten)
        is older than ``grace``."""
        if grace <= 0:
            raise ValueError("grace period must be positive")
        out = []
        for app in self._apps_in_order():
            for comp in sorted(app.components, key=lambda c: c.name):
                if comp.status not in _ACTIVE or comp.decision is None:
                    continue
                reference = comp.last_heartbeat
                if reference is None:
                    reference = comp.decision.decided_at
                if now - reference > grace:
                    out.append((app, comp))
        return out

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def apply(self, cmd: KBCommand) -> Effect:
        if isinstance(cmd, RegisterCluster):
            return self._apply_register(cmd)
        if isinstance(cmd, PutNodeSnapshot):
            return self._apply_put_nodes(cmd)
        if isinstance(cmd, SubmitApplication):
            return self._apply_submit(cmd)
        if isinstance(cmd, UpdateQoS):
            return self._apply_update_qos(cmd)
        if isinstance(cmd, DeleteApplication):
            return self._apply_delete(cmd)
        if isinstance(cmd, RecordDecision):
            return self._apply_decision(cmd)
        if isinstance(cmd, RecordHeartbeat):
            return self._apply_heartbeat(cmd)
        if isinstance(cmd, RequeueComponent):
            return self._apply_requeue(cmd)
        raise TypeError(f"unknown command type: {type(cmd)!r}")

    def _transition(
        self, effect: Effect, app: ApplicationRecord, comp: ComponentRecord, to: ComponentStatus
    ) -> None:
        if comp.status == to:
            return
        effect.transitions.append(
            {
                "app": app.name,
                "component": comp.name,
                "from": comp.status.value,
                "to": to.value,
            }
        )
        comp.status = to

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
        return Effect(
            kind="cluster-registered",
            detail={"cluster_id": cid, "domain": cmd.domain.value, "ip": cmd.external_ip},
        )

    def _apply_put_nodes(self, cmd: PutNodeSnapshot) -> Effect:
        if cmd.cluster_id not in self.clusters:
            return _noop("unknown-cluster", cluster_id=cmd.cluster_id)
        stored, flags = 0, []
        for wire in cmd.nodes:
            snap = NodeSnapshot(
                cluster_id=cmd.cluster_id, taken_at=cmd.taken_at, **dict(wire)
            )
            key = (cmd.cluster_id, snap.node_name)
            existing = self.nodes.get(key)
            if existing is not None and existing.taken_at > snap.taken_at:
                flags.append(f"stale-snapshot:{snap.node_name}")
                continue
            if snap.role == "control-plane":
                # Filtering is the reporting agent's duty; store it but flag it.
                flags.append(f"control-plane-node-reported:{snap.node_name}")
            self.nodes[key] = snap
            stored += 1
        return Effect(kind="nodes-updated", detail={"stored": stored, "flags": flags})

    def _apply_submit(self, cmd: SubmitApplication) -> Effect:
        if self.live_application(cmd.name) is not None:
            return _noop("name-in-use", name=cmd.name)
        effect = Effect(kind="application-submitted", detail={"app_id": cmd.app_id})
        components = []
        for name, domain, manifest in cmd.components:
            comp = ComponentRecord(name=name, target_domain=domain, manifest=manifest)
            components.append(comp)
            effect.transitions.append(
                {"app": cmd.name, "component": name, "from": None, "to": comp.status.value}
            )
        self.applications[cmd.app_id] = ApplicationRecord(
            app_id=cmd.app_id,
            name=cmd.name,
            labels=dict(cmd.labels),
            qos=cmd.qos,
            components=components,
            submitted_at=cmd.submitted_at,
        )
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
            if comp.status == ComponentStatus.WITHDRAWN:
                continue
            comp.decision = None
            comp.last_heartbeat = None
            self._transition(effect, app, comp, ComponentStatus.PENDING)
        return effect

    def _apply_delete(self, cmd: DeleteApplication) -> Effect:
        app = self.live_application(cmd.name)
        if app is None:
            return _noop("unknown-application", name=cmd.name)
        app.withdrawn = True
        effect = Effect(kind="application-withdrawn", detail={"name": cmd.name})
        for comp in app.components:
            comp.decision = None
            self._transition(effect, app, comp, ComponentStatus.WITHDRAWN)
        return effect

    def _apply_decision(self, cmd: RecordDecision) -> Effect:
        app = self.applications.get(cmd.app_id)
        if app is None or app.withdrawn:
            return _noop("unknown-application", app_id=cmd.app_id)
        comp = app.component(cmd.component)
        if comp is None:
            return _noop("unknown-component", component=cmd.component)
        if cmd.version != app.version:
            return _noop("stale-version", expected=app.version, got=cmd.version)
        if comp.status != ComponentStatus.PENDING:
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
        comp.decision = ScheduleDecision(
            component_name=comp.name,
            cluster_id=cmd.cluster_id,
            node_names=cmd.node_names,
            decided_at=cmd.decided_at,
            deciding_term=cmd.deciding_term,
        )
        comp.last_heartbeat = None
        effect = Effect(
            kind="decision-recorded",
            detail={
                "app": app.name,
                "component": comp.name,
                "cluster_id": cmd.cluster_id,
                "nodes": list(cmd.node_names),
            },
        )
        self._transition(effect, app, comp, ComponentStatus.SCHEDULED)
        return effect

    def _apply_heartbeat(self, cmd: RecordHeartbeat) -> Effect:
        app = self.applications.get(cmd.app_id)
        if app is None or app.withdrawn:
            return _noop("unknown-application", app_id=cmd.app_id)
        comp = app.component(cmd.component)
        if comp is None:
            return _noop("unknown-component", component=cmd.component)
        if cmd.version != app.version:
            return _noop("stale-version", expected=app.version, got=cmd.version)
        if comp.decision is None or comp.decision.cluster_id != cmd.cluster_id:
            return _noop("not-assigned", component=cmd.component, cluster_id=cmd.cluster_id)
        status = _HEARTBEAT_STATUS.get(cmd.status)
        if status is None:
            return _noop("unknown-status", status=cmd.status)
        comp.last_heartbeat = cmd.at
        effect = Effect(
            kind="heartbeat-recorded",
            detail={"app": app.name, "component": comp.name, "status": cmd.status},
        )
        self._transition(effect, app, comp, status)
        return effect

    def _apply_requeue(self, cmd: RequeueComponent) -> Effect:
        app = self.applications.get(cmd.app_id)
        if app is None or app.withdrawn:
            return _noop("unknown-application", app_id=cmd.app_id)
        comp = app.component(cmd.component)
        if comp is None:
            return _noop("unknown-component", component=cmd.component)
        if cmd.version != app.version:
            return _noop("stale-version", expected=app.version, got=cmd.version)
        if comp.status == ComponentStatus.PENDING:
            return _noop("already-pending", component=cmd.component)
        if comp.status == ComponentStatus.WITHDRAWN:
            return _noop("withdrawn", component=cmd.component)
        comp.decision = None
        comp.last_heartbeat = None
        effect = Effect(
            kind="component-requeued",
            detail={"app": app.name, "component": comp.name, "reason": cmd.reason},
        )
        self._transition(effect, app, comp, ComponentStatus.PENDING)
        return effect

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot_state(self) -> str:
        return json.dumps(
            {
                "v": SNAPSHOT_SCHEMA_VERSION,
                "clusters": [c.to_dict() for c in self.clusters.values()],
                "nodes": [n.to_dict() for n in self.nodes.values()],
                "applications": [a.to_dict() for a in self.applications.values()],
            },
            separators=(",", ":"),
            sort_keys=True,
        )

    @classmethod
    def restore(cls, blob: str) -> KnowledgeBase:
        try:
            data = json.loads(blob)
        except (json.JSONDecodeError, TypeError) as exc:
            raise ValueError(f"invalid knowledge base snapshot: {exc}") from exc
        if not isinstance(data, dict) or data.get("v") != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported knowledge base snapshot schema: {data.get('v') if isinstance(data, dict) else data!r}"
            )
        kb = cls()
        try:
            for cdata in data["clusters"]:
                rec = ClusterRecord.from_dict(cdata)
                kb.clusters[rec.cluster_id] = rec
            for ndata in data["nodes"]:
                snap = NodeSnapshot.from_dict(ndata)
                kb.nodes[(snap.cluster_id, snap.node_name)] = snap
            for adata in data["applications"]:
                app = ApplicationRecord.from_dict(adata)
                kb.applications[app.app_id] = app
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed knowledge base snapshot: {exc!r}") from exc
        return kb
