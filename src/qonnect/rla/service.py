"""RLA request handling and the leader-side control loops.

One service instance wraps a Raft node plus its KB replica. Control writes
(registrations, submissions, QoS changes, deletions, placement decisions)
commit through Raft before the request is answered. High-volume telemetry
(node snapshots, heartbeats) is acknowledged from applied state and flushed
through the log in small batches: each telemetry flush, like each scheduler
pass, commits as one ``Batch`` log entry.

Each replica compacts its log into a KB snapshot on its own, by the
size-relative rule of Ongaro's dissertation (section 5.1.1): once at least
``compact_every`` commands were applied since the last snapshot *and* the
raw entries applied since then add up to ``_COMPACT_RATIO`` times that
snapshot's size. Snapshot work then stays proportional to the bytes logged,
whatever the size of a batch, and the log kept between snapshots is bounded
by about one snapshot's size.

The scheduler pass and telemetry flush only run while this node is leader;
a deposed leader's in-flight proposals fail at commit and are harmless.
"""

from __future__ import annotations

import ipaddress
import json
import marshal
import re
import time
import uuid
from typing import Callable

from qonnect.events import EventLog
from qonnect.kb.commands import (
    Batch,
    DeleteApplication,
    KBCommand,
    PutNodeSnapshot,
    RecordHeartbeat,
    RegisterCluster,
    SubmitApplication,
    UpdateQoS,
    decode_command,
)
from qonnect.kb.model import ComponentStatus, Domain
from qonnect.kb.store import Effect, KnowledgeBase, node_from_wire
from qonnect.raft.node import NotLeaderError, RaftNode, Role
from qonnect.rla.config import RlaConfig
from qonnect.rla.validation import HEARTBEAT_STATUSES, parse_qos, validate_bundle
from qonnect.scheduler.loop import SchedulerConfig, scheduler_tick


class ValidationFailed(Exception):
    def __init__(self, errors: list[dict]) -> None:
        super().__init__(f"{len(errors)} validation error(s)")
        self.errors = errors


class NotFoundError(Exception):
    pass


class ConflictError(Exception):
    pass


class UnavailableError(Exception):
    pass


def _default_id_factory() -> str:
    return str(uuid.uuid4())


_PLACEHOLDER_RE = re.compile(r"\{\{QONNECT_([A-Z]+)_IP\}\}")

# Raw entry bytes to log since the last snapshot, as a multiple of its size,
# before the next one (the dissertation's factor).
_COMPACT_RATIO = 1.0


def _placeholder_domains(manifest: dict) -> set[str]:
    return {m.lower() for m in _PLACEHOLDER_RE.findall(json.dumps(manifest))}


def _fingerprint(nodes: list) -> bytes | None:
    """Bytes equal only for reports equal in every value and its type, or None."""
    try:
        return marshal.dumps(nodes)
    except ValueError:  # not plain data
        return None


def _check_report(nodes: list, cluster_id: str, taken_at: float) -> tuple[str, ...]:
    """A node report's flags; ``ValidationFailed`` names each node that would not apply."""
    errors = []
    for i, wire in enumerate(nodes):
        try:  # decode each node as it will apply, before it can reach the log
            node_from_wire(wire, cluster_id, taken_at)
        except ValueError as exc:
            errors.append({"field": f"nodes[{i}]", "error": str(exc)})
    if errors:
        raise ValidationFailed(errors)
    return tuple(
        f"control-plane-node-reported:{n['node_name']}"
        for n in nodes
        if n.get("role") == "control-plane"
    )


class RlaService:
    def __init__(
        self,
        config: RlaConfig,
        node: RaftNode,
        kb: KnowledgeBase | None = None,
        clock: Callable[[], float] = time.time,
        id_factory: Callable[[], str] = _default_id_factory,
        events: EventLog | None = None,
    ) -> None:
        self.config = config
        self.node = node
        self.kb = kb if kb is not None else KnowledgeBase()
        self.clock = clock
        self.id_factory = id_factory
        self.events = events if events is not None else EventLog()
        # Installed by the hosting runtime: propose one log entry (a command
        # or a batch), wait for its commit, and return the apply effects of
        # its commands in order.  Engine and live runtimes provide different
        # implementations, both built on ``await_effects``/``take_effects``.
        self.proposer: Callable[[KBCommand | Batch], list[Effect]] | None = None

        self._source = f"rla-{config.rla_id}"
        self._telemetry: list[KBCommand] = []
        # Cluster -> the fingerprint and flags of its last report that passed.
        self._checked_reports: dict[str, tuple[bytes, tuple[str, ...]]] = {}
        # Log index a local proposer waits on -> (entry term, effects) once
        # applied.  Only awaited indexes are filled, so followers keep nothing.
        self._awaited: dict[int, tuple[int, list[Effect]] | None] = {}
        # Compaction trigger state (see the module docstring): commands and
        # raw entry bytes applied since the last snapshot, and its size.
        self._applied_since_compact = 0
        self._logged_since_compact = 0
        self._snapshot_bytes = 0
        if node.snapshot is not None:
            # A node reloaded from storage resumes after its snapshot; the
            # entries it covers are never applied again, so the KB starts
            # from the snapshot.
            self.restore_from_snapshot(node.snapshot.blob)
        self._next_scheduler_pass = 0.0
        self._next_flush = 0.0
        self._scheduler_config = SchedulerConfig(
            tick_period=config.tick_period,
            grace_period=config.grace_period,
            snapshot_staleness=config.snapshot_staleness,
        )

    # ------------------------------------------------------------------
    # Raft integration
    # ------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.node.role == Role.LEADER

    def apply_committed(self, index: int, raw_command: str) -> None:
        """Apply one committed log entry, a command or a batch, to the KB replica."""
        command = decode_command(raw_command)
        members = command.commands if isinstance(command, Batch) else (command,)
        effects = []
        for member in members:
            effect = self.kb.apply(member)
            effects.append(effect)
            self.events.append(
                self.clock(),
                self._source,
                f"kb-{effect.kind}",
                {**effect.detail, "transitions": effect.transitions},
            )
        if index in self._awaited:
            # The term identifies the entry: a proposer whose entry was
            # overwritten by another leader's entry at this index sees a
            # different term here.
            self._awaited[index] = (self.node.term_at(index), effects)
        self._applied_since_compact += len(members)
        self._logged_since_compact += len(raw_command)
        if (
            self._applied_since_compact >= self.config.compact_every
            and self._logged_since_compact >= _COMPACT_RATIO * self._snapshot_bytes
        ):
            # Compact at this entry, not at ``last_applied``: entries of the
            # same commit that follow it are not in the KB state yet.
            blob = self.kb.snapshot_state()
            self.node.compact(index, blob)
            self.events.append(
                self.clock(),
                self._source,
                "log-compacted",
                {
                    "index": index,
                    "snapshot_bytes": len(blob),
                    "logged_bytes": self._logged_since_compact,
                },
            )
            self._reset_compaction(len(blob))

    def restore_from_snapshot(self, blob: str) -> None:
        self.kb = KnowledgeBase.restore(blob)
        self._reset_compaction(len(blob))

    def _reset_compaction(self, snapshot_bytes: int) -> None:
        self._applied_since_compact = 0
        self._logged_since_compact = 0
        self._snapshot_bytes = snapshot_bytes

    def await_effects(self, index: int) -> None:
        """Keep the effects of the entry at ``index`` for a waiting proposer."""
        self._awaited[index] = None

    def take_effects(self, index: int, term: int) -> list[Effect] | None:
        """Stop waiting on ``index``; the effects if the entry proposed in
        ``term`` was applied there, else None (not yet applied, superseded by
        another leader's entry, or covered by an installed snapshot)."""
        applied = self._awaited.pop(index, None)
        if applied is None or applied[0] != term:
            return None
        return applied[1]

    def _require_leader(self) -> None:
        # Writes validate against local KB state, which is authoritative only
        # on the leader; followers redirect before consulting it.
        if self.node.role != Role.LEADER:
            raise NotLeaderError(self.node.leader_id)

    def _propose(self, command: KBCommand) -> Effect:
        return self._propose_entry(command)[0]

    def _propose_entry(self, entry: KBCommand | Batch) -> list[Effect]:
        if self.proposer is None:
            raise UnavailableError("no proposer wired to this service")
        self._require_leader()
        return self.proposer(entry)

    def leader_address(self) -> str | None:
        return self.config.peer_address(self.node.leader_id)

    # ------------------------------------------------------------------
    # Control API
    # ------------------------------------------------------------------

    def register_cluster(self, external_ip: str, domain_raw: str) -> str:
        try:
            ipaddress.ip_address(external_ip)
        except ValueError:
            raise ValidationFailed(
                [{"field": "external_ip", "error": f"malformed ip: {external_ip!r}"}]
            ) from None
        if domain_raw not in {d.value for d in Domain}:
            raise ValidationFailed(
                [{"field": "domain", "error": f"unknown domain: {domain_raw!r}"}]
            )
        effect = self._propose(
            RegisterCluster(
                external_ip=external_ip,
                domain=Domain(domain_raw),
                registered_at=self.clock(),
            )
        )
        return effect.detail["cluster_id"]

    def cluster_config(self) -> dict[str, str]:
        return self.kb.cluster_config()

    def put_node_snapshot(self, cluster_id: str, nodes: list[dict]) -> dict:
        self._require_leader()
        if cluster_id not in self.kb.clusters:
            raise NotFoundError(f"unknown cluster: {cluster_id}")
        taken_at = self.clock()
        # Most reports repeat the cluster's last one (89% on the scenarios
        # benchmark). A report's check and flags depend on nothing else, so a
        # report identical in every value and type to the last one that
        # passed gets that one's flags without being decoded again.
        fingerprint = _fingerprint(nodes)
        checked, flags = self._checked_reports.get(cluster_id, (None, ()))
        if fingerprint is None or fingerprint != checked:
            flags = _check_report(nodes, cluster_id, taken_at)
            if fingerprint is not None:
                self._checked_reports[cluster_id] = (fingerprint, flags)
        self._telemetry.append(
            PutNodeSnapshot(cluster_id=cluster_id, nodes=tuple(nodes), taken_at=taken_at)
        )
        return {"accepted": len(nodes), "flags": list(flags)}

    def submit_application(self, bundle: dict) -> str:
        parsed, errors = validate_bundle(bundle)
        if parsed is None:
            raise ValidationFailed(errors)
        self._require_leader()
        if self.kb.live_application(parsed.name) is not None:
            raise ConflictError(f"application name in use: {parsed.name}")
        app_id = self.id_factory()
        effect = self._propose(
            SubmitApplication(
                app_id=app_id,
                name=parsed.name,
                labels=parsed.labels,
                qos=parsed.qos,
                components=parsed.components,
                submitted_at=self.clock(),
            )
        )
        if effect.is_noop:  # lost a submit race on the same name
            raise ConflictError(f"application name in use: {parsed.name}")
        return app_id

    def update_qos(self, name: str, qos_raw: object) -> dict:
        try:
            qos = parse_qos(qos_raw)
        except ValueError as exc:
            raise ValidationFailed([{"field": "qos", "error": str(exc)}]) from None
        self._require_leader()
        if self.kb.live_application(name) is None:
            raise NotFoundError(f"unknown application: {name}")
        effect = self._propose(UpdateQoS(name=name, qos=qos, updated_at=self.clock()))
        if effect.is_noop:
            raise NotFoundError(f"unknown application: {name}")
        return {"name": name, "version": effect.detail["version"]}

    def delete_application(self, name: str) -> dict:
        self._require_leader()
        if self.kb.live_application(name) is None:
            raise NotFoundError(f"unknown application: {name}")
        effect = self._propose(DeleteApplication(name=name))
        if effect.is_noop:
            raise NotFoundError(f"unknown application: {name}")
        return {"name": name, "status": "withdrawn"}

    def poll_applications(self, cluster_id: str) -> list[dict]:
        """Scheduled-but-unacknowledged components assigned to this cluster.

        Acknowledgment is implicit: the first heartbeat at the decision's
        version moves the component out of Scheduled, so it stops appearing.
        A payload is withheld while a sibling decision its manifest's
        placeholders depend on is still pending, so every delivered placement
        map is complete enough to resolve the manifest.
        """
        if cluster_id not in self.kb.clusters:
            raise NotFoundError(f"unknown cluster: {cluster_id}")
        payloads: list[dict] = []
        for app in sorted(self.kb.applications.values(), key=lambda a: (a.submitted_at, a.name)):
            if app.withdrawn:
                continue
            app_domains = {c.target_domain.value for c in app.components}
            placement: dict[str, str] = {}
            for comp in app.components:
                if comp.decision is not None:
                    placement.setdefault(comp.target_domain.value, comp.decision.cluster_id)
            for comp in app.components:
                if comp.status != ComponentStatus.SCHEDULED or comp.decision is None:
                    continue
                if comp.decision.cluster_id != cluster_id:
                    continue
                needed = _placeholder_domains(comp.manifest) & app_domains
                if not needed <= placement.keys():
                    continue
                payloads.append(
                    {
                        "app_id": app.app_id,
                        "name": app.name,
                        "version": app.version,
                        "component": comp.name,
                        "manifest": comp.manifest,
                        "target_nodes": list(comp.decision.node_names),
                        "placement": placement,
                    }
                )
        return payloads

    def heartbeat(
        self, app_id: str, component: str, cluster_id: str, version: int, status: str
    ) -> bool:
        """True = recorded; False = unknown/withdrawn/reassigned (drives cleanup)."""
        if status not in HEARTBEAT_STATUSES:
            raise ValidationFailed(
                [{"field": "status", "error": f"unknown status: {status!r}"}]
            )
        self._require_leader()
        app = self.kb.applications.get(app_id)
        if app is None or app.withdrawn:
            return False
        comp = app.component(component)
        if comp is None or version != app.version:
            return False
        if comp.decision is None or comp.decision.cluster_id != cluster_id:
            return False
        self._telemetry.append(
            RecordHeartbeat(
                app_id=app_id,
                component=component,
                cluster_id=cluster_id,
                version=version,
                status=status,
                at=self.clock(),
            )
        )
        return True

    def status(self) -> dict:
        return {
            "node_id": self.config.rla_id,
            "role": self.node.role.value,
            "term": self.node.current_term,
            "leader": self.node.leader_id,
            "leader_address": self.leader_address(),
            "applied_index": self.node.last_applied,
            "clusters": len(self.kb.clusters),
        }

    # ------------------------------------------------------------------
    # Leader loops
    # ------------------------------------------------------------------

    def pump(self, now: float) -> None:
        """Run due leader work: telemetry flush and the scheduler pass."""
        if not self.is_leader:
            self._telemetry.clear()
            return
        if now >= self._next_flush:
            self._next_flush = now + self.config.telemetry_flush
            self._flush_telemetry()
        if now >= self._next_scheduler_pass:
            self._next_scheduler_pass = now + self.config.tick_period
            self._scheduler_pass(now)

    def _flush_telemetry(self) -> None:
        pending, self._telemetry = self._telemetry, []
        if not pending:
            return
        try:
            self._propose_entry(Batch(tuple(pending)))
        except (NotLeaderError, UnavailableError):
            pass  # deposed; agents re-report next period

    def _scheduler_pass(self, now: float) -> None:
        commands = scheduler_tick(
            self.kb, now=now, term=self.node.current_term, config=self._scheduler_config
        )
        if not commands:
            return
        try:
            effects = self._propose_entry(Batch(tuple(commands)))
        except (NotLeaderError, UnavailableError):
            return
        for effect in effects:
            self.events.append(
                now,
                self._source,
                f"scheduler-{effect.kind}",
                dict(effect.detail),
            )
