"""RLA request handling and the leader-side control loops.

One service instance is the state machine of one ``Replica`` (its KB
replica and the compaction rule) plus the control API. Control writes
(registrations, submissions, QoS changes, deletions, placement decisions)
commit through Raft before the request is answered. High-volume telemetry
(node snapshots, heartbeats) is acknowledged from applied state, and what
of it changes the KB is flushed through the log in small batches: each
telemetry flush, like each scheduler pass, commits as one ``Batch`` log
entry. The rest only renews leases (below).

Each replica compacts its log into a KB snapshot on its own, by the
size-relative rule of Ongaro's dissertation (section 5.1.1): once at least
``_COMPACT_EVERY`` commands were applied since the last snapshot *and* the
raw entries applied since then add up to ``_COMPACT_RATIO`` times that
snapshot's size. Snapshot work then stays proportional to the bytes logged,
whatever the size of a batch, and the log kept between snapshots is bounded
by about one snapshot's size.

Every replica applies every committed entry. Followers decode each one
from the log; the leader applies an entry it proposed from the object it
encoded, kept until its proposal returns. Each such command is
built from validated values (exact scalars, enums, tuples of strings,
finite weights, node reports that passed ``_check_report``, manifests as
the canonical text ``validate_bundle`` wrote), so decoding its encoding
gives an equal object, and the leader's KB stays equal to every
follower's.

The scheduler pass and telemetry flush only run while this node is leader;
a deposed leader's in-flight proposals fail at commit and are harmless.

Telemetry works as leases (Gray and Cheriton, "Leases", SOSP 1989;
Kubernetes KEP-589, "Efficient Node Heartbeats"), renewed by their
holders: a component by its heartbeat, a cluster by its node report. The
leader keeps one ``Lease`` record of soft state for its term
(``qonnect.scheduler.loop``), made at its first leader work in the term and
replaced, with the telemetry still queued, at its first leader work in a
later term (nothing reads either in between): when the term's lease began,
the time of each component's last accepted heartbeat, the time of each
cluster's last accepted report, the fingerprint of each cluster's last
checked report, and what the term's last full stall scan found (its
``floor``, the earliest stall reference then, and the KB's ``epoch``, so
passes skip the scan until a component can have stalled). A new term
starts with no scan, and a clock reading earlier than the ``floor`` (live
mode's clock can step back) voids it. Renewing a lease writes nothing to
the log.

A heartbeat is logged only when it changes the replicated status, which
the first beat after a decision always does (a decision sets Scheduled,
which no heartbeat reports). A same-status beat behind a status change
still in the unflushed telemetry is logged too, so a flip and its undoing
both commit. The stall check counts from the latest of the replicated
time, the leader's own last-seen time and its lease start, so a new
leader gives every component one full grace period before it requeues
any, however old the replicated times are. A refused heartbeat changes
no lease. A requeued or re-weighted component keeps its last-seen time,
which its next decision time postdates; only a deleted application's
times are dropped, as nothing reads them again.

A node report is logged only when it differs from the last report of its
cluster that the leader queued or committed in its term, so a leader logs
each cluster's first report, a changed one, and a change and its undoing
alike. A report replaces its cluster's nodes, so the KB holds exactly the
nodes of each cluster's last report and one last-heard time per cluster
covers them all. A node is eligible for placement while the latest of its
replicated report time and its cluster's last-heard time is within the
snapshot staleness. Nothing stands in for the lease start here: a new
leader places only on clusters it has heard from in its term or whose
replicated report is fresh, so a cluster that died around a leader change
gets nothing placed on it.
"""

from __future__ import annotations

import ipaddress
import marshal
import math
import sys
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
    encode_command,
)
from qonnect.kb.model import NODE_METRICS, ApplicationRecord, ComponentStatus, Domain
from qonnect.kb.store import HEARTBEAT_STATUS, Effect, KnowledgeBase, node_from_wire
from qonnect.raft.node import NotLeaderError, RaftNode, Role
from qonnect.rla.config import RlaConfig
from qonnect.rla.validation import VALID_DOMAINS, parse_qos, placeholder_domains, validate_bundle
from qonnect.scheduler.loop import Lease, scheduler_tick


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


# Fewest applied commands between snapshots (a batch counts its members).
_COMPACT_EVERY = 1000
# Raw entry bytes to log since the last snapshot, as a multiple of its size,
# before the next one (the dissertation's factor).
_COMPACT_RATIO = 1.0

# Bound once: see raft.node.
_LEADER, _SCHEDULED = Role.LEADER, ComponentStatus.SCHEDULED
_DOMAIN_VALUE = {domain: domain.value for domain in Domain}


def _poll_plan(app: ApplicationRecord) -> tuple[tuple[str, ...], tuple[frozenset[str], ...]]:
    """Per component of ``app``: its domain's name, and the domains of ``app``
    whose placement its manifest's placeholders need.

    Both depend only on what the submit fixed, so each KB keeps them while
    it holds the application (``KnowledgeBase.derived``).
    """
    domains = tuple(_DOMAIN_VALUE[comp.target_domain] for comp in app.components)
    return domains, tuple(
        frozenset(placeholder_domains(comp.manifest).intersection(domains))
        for comp in app.components
    )


def _fingerprint(nodes: list) -> bytes | None:
    """Bytes equal only for reports equal in every value and its type, or None."""
    try:
        return marshal.dumps(nodes)
    except ValueError:  # not plain data
        return None


def _finite(value: float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _check_report(nodes: list, cluster_id: str, taken_at: float) -> None:
    """``ValidationFailed`` naming each node of a report that would not apply,
    or whose attributes are not all finite.

    ``NodeSnapshot`` itself accepts NaN and infinities, so log entries
    written before this check still decode and replay.
    """
    errors = []
    for i, wire in enumerate(nodes):
        try:  # decode each node as it will apply, before it can reach the log
            node = node_from_wire(wire, cluster_id, taken_at)
        except ValueError as exc:
            errors.append({"field": f"nodes[{i}]", "error": str(exc)})
            continue
        errors.extend(
            {"field": f"nodes[{i}]", "error": f"node attribute {attr} must be finite"}
            for attr in NODE_METRICS
            if not _finite(getattr(node, attr))
        )
    if errors:
        raise ValidationFailed(errors)


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
        # Installed by the hosting runtime: deliver one encoded log entry
        # through this node's ``Replica``, wait for its commit, and return
        # the apply effects of its commands in order, or None when it did
        # not commit.
        self.proposer: Callable[[str], list[Effect] | None] | None = None

        self._source = f"rla-{config.rla_id}"
        self._telemetry: list[KBCommand] = []
        # (app id, component) with a status change in ``_telemetry``: each of
        # its later heartbeats in the window is logged too.
        self._status_queued: set[tuple[str, str]] = set()
        self._lease: Lease | None = None
        # Compaction trigger state (see the module docstring): commands and
        # raw entry bytes applied since the last snapshot, and its size.
        self._applied_since_compact = 0
        self._logged_since_compact = 0
        self._snapshot_bytes = 0
        self._next_scheduler_pass = 0.0
        self._next_flush = 0.0
        # Encoded entry -> the object it encodes, while a proposer of this
        # service waits on it. Only a leader fills it, so followers keep
        # nothing; several proposers may wait at once in live mode.
        self._proposed: dict[str, KBCommand | Batch] = {}

    # ------------------------------------------------------------------
    # State machine, driven by this node's ``Replica``
    # ------------------------------------------------------------------

    def apply_committed(self, index: int, raw_command: str) -> list[Effect]:
        """Apply one committed log entry, a command or a batch, to the KB
        replica; returns the effect of each of its commands.

        An entry this service proposed and still waits on is applied from the
        object it encoded; any other entry (a follower's, another leader's
        at the same index) is decoded from the log.
        """
        command = self._proposed.get(raw_command)
        if command is None:
            command = decode_command(raw_command)
        members = command.commands if isinstance(command, Batch) else (command,)
        effects = []
        for member in members:
            effect = self.kb.apply(member)
            effects.append(effect)
            self.events.append(
                self.clock(),
                self._source,
                sys.intern(f"kb-{effect.kind}"),
                {**effect.detail, "transitions": effect.transitions},
            )
        self._applied_since_compact += len(members)
        self._logged_since_compact += len(raw_command)
        if (
            self._applied_since_compact >= _COMPACT_EVERY
            and self._logged_since_compact >= _COMPACT_RATIO * self._snapshot_bytes
        ):
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
        return effects

    def load_snapshot(self, blob: str) -> KnowledgeBase:
        return KnowledgeBase.restore(blob)

    def install_snapshot(self, kb: KnowledgeBase, blob: str) -> None:
        self.kb = kb
        self._reset_compaction(len(blob))

    def elected(self, term: int) -> None:
        self.events.append(self.clock(), self._source, "leader-elected", {"term": term})

    def _reset_compaction(self, snapshot_bytes: int) -> None:
        self._applied_since_compact = 0
        self._logged_since_compact = 0
        self._snapshot_bytes = snapshot_bytes

    def _require_leader(self) -> None:
        # Writes validate against local KB state, which is authoritative only
        # on the leader; followers redirect before consulting it.
        if self.node.role is not _LEADER:
            raise NotLeaderError(self.node.leader_id)

    def _hold_lease(self, now: float) -> Lease:
        """This term's lease, begun at the first leader work in the term.

        Telemetry is queued only under the current term's lease, so what an
        earlier term left queued is dropped when the next lease begins.
        """
        lease = self._lease
        if lease is None or lease.term != self.node.current_term:
            lease = self._lease = Lease(self.node.current_term, now)
            self._telemetry = []
            self._status_queued = set()
        elif now < lease.floor:
            # The clock stepped back: a heartbeat now could set a stall
            # reference earlier than the last scan's floor.
            lease.floor = -math.inf
        return lease

    def _propose(self, command: KBCommand) -> Effect:
        return self._propose_entry(command)[0]

    def _propose_entry(self, entry: KBCommand | Batch) -> list[Effect]:
        if self.proposer is None:
            raise UnavailableError("no proposer wired to this service")
        self._require_leader()
        raw = encode_command(entry)
        self._proposed[raw] = entry
        try:
            effects = self.proposer(raw)
        finally:
            self._proposed.pop(raw, None)
        if effects is None:
            raise UnavailableError("proposal did not commit")
        return effects

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
        if domain_raw not in VALID_DOMAINS:
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

    def put_node_snapshot(self, cluster_id: str, nodes: list[dict]) -> dict:
        """Accept one cluster's node report; it renews the cluster's lease on
        this leader and reaches the log only when it changed (see the module
        docstring)."""
        self._require_leader()
        if cluster_id not in self.kb.clusters:
            raise NotFoundError(f"unknown cluster: {cluster_id}")
        taken_at = self.clock()
        lease = self._hold_lease(taken_at)
        # A report's check depends on nothing else, so a report identical in
        # every value and type to the cluster's last one is not checked again.
        fingerprint = _fingerprint(nodes)
        if fingerprint is None or fingerprint != lease.reports.get(cluster_id):
            _check_report(nodes, cluster_id, taken_at)
            self._telemetry.append(
                PutNodeSnapshot(cluster_id=cluster_id, nodes=tuple(nodes), taken_at=taken_at)
            )
            lease.reports[cluster_id] = fingerprint
        lease.heard[cluster_id] = taken_at
        flags = [
            f"control-plane-node-reported:{n['node_name']}"
            for n in nodes
            if n.get("role") == "control-plane"
        ]
        return {"accepted": len(nodes), "flags": flags}

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
        if qos_raw is None:  # ``parse_qos`` reads None as no preference
            raise ValidationFailed([{"field": "qos", "error": "qos is required"}])
        try:
            qos = parse_qos(qos_raw)
        except ValueError as exc:
            raise ValidationFailed([{"field": "qos", "error": str(exc)}]) from None
        self._require_leader()
        app = self.kb.live_application(name)
        if app is None:
            raise NotFoundError(f"unknown application: {name}")
        effect = self._propose(UpdateQoS(name=name, qos=qos, updated_at=self.clock()))
        if effect.is_noop:
            raise NotFoundError(f"unknown application: {name}")
        return {"name": name, "version": effect.detail["version"]}

    def delete_application(self, name: str) -> dict:
        self._require_leader()
        app = self.kb.live_application(name)
        if app is None:
            raise NotFoundError(f"unknown application: {name}")
        effect = self._propose(DeleteApplication(name=name))
        if effect.is_noop:
            raise NotFoundError(f"unknown application: {name}")
        if self._lease is not None:  # no heartbeat will renew these again
            for comp in app.components:
                self._lease.seen.pop((app.app_id, comp.name), None)
        return {"name": name, "status": "withdrawn"}

    def poll_applications(self, cluster_id: str) -> list[dict]:
        """Scheduled-but-unacknowledged components assigned to this cluster.

        Acknowledgment is implicit: the first heartbeat at the decision's
        version moves the component out of Scheduled, so it stops appearing.
        A payload is withheld while a sibling decision its manifest's
        placeholders depend on is still pending, so every delivered placement
        map is complete enough to resolve the manifest.

        A poll costs O(the payloads it returns): the KB indexes the Scheduled
        components per cluster, and each component's placeholder domains are
        computed once per application (``_poll_plan``), not on every poll.
        A payload's manifest is the KB's own text, which the agent
        substitutes in; no poll encodes one.
        """
        if cluster_id not in self.kb.clusters:
            raise NotFoundError(f"unknown cluster: {cluster_id}")
        payloads: list[dict] = []
        for app in self.kb.scheduled_applications(cluster_id):
            domains, needs = self.kb.derived(app, _poll_plan)
            placement: dict[str, str] = {}
            for comp, domain in zip(app.components, domains):
                if comp.decision is not None and domain not in placement:
                    placement[domain] = comp.decision.cluster_id
            for comp, needed in zip(app.components, needs):
                decision = comp.decision
                if (
                    comp.status is not _SCHEDULED
                    or decision is None
                    or decision.cluster_id != cluster_id
                    or not needed <= placement.keys()
                ):
                    continue
                payloads.append(
                    {
                        "app_id": app.app_id,
                        "name": app.name,
                        "version": app.version,
                        "component": comp.name,
                        "manifest": comp.manifest,
                        "target_nodes": list(decision.node_names),
                        "placement": placement,
                    }
                )
        return payloads

    def heartbeat(
        self, app_id: str, component: str, cluster_id: str, version: int, status: str
    ) -> bool:
        """True = accepted; False = unknown or reassigned (drives cleanup).

        An accepted heartbeat renews the component's lease on this leader; it
        reaches the log only when it changes the replicated status (see the
        module docstring).
        """
        if status not in HEARTBEAT_STATUS:
            raise ValidationFailed(
                [{"field": "status", "error": f"unknown status: {status!r}"}]
            )
        self._require_leader()
        at = self.clock()
        lease = self._hold_lease(at)
        key = (app_id, component)
        app = self.kb.applications.get(app_id)
        comp = None if app is None else app.component(component)
        if (
            comp is None
            or version != app.version
            or comp.decision is None
            or comp.decision.cluster_id != cluster_id
        ):
            return False
        lease.seen[key] = at
        if HEARTBEAT_STATUS[status] == comp.status and key not in self._status_queued:
            return True
        self._status_queued.add(key)
        self._telemetry.append(
            RecordHeartbeat(
                app_id=app_id,
                component=component,
                cluster_id=cluster_id,
                version=version,
                status=status,
                at=at,
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
        if self.node.role is not _LEADER:
            return
        lease = self._hold_lease(now)
        if now >= self._next_flush:
            self._next_flush = now + self.config.telemetry_flush
            self._flush_telemetry()
        if now >= self._next_scheduler_pass:
            self._next_scheduler_pass = now + self.config.tick_period
            self._scheduler_pass(now, lease)

    def _flush_telemetry(self) -> None:
        pending, self._telemetry = self._telemetry, []
        self._status_queued = set()
        if not pending:
            return
        try:
            self._propose_entry(Batch(tuple(pending)))
        except (NotLeaderError, UnavailableError):
            # Deposed or stalled; agents re-report next period, and each
            # cluster's next report is logged whatever it repeats.
            if self._lease is not None:
                self._lease.reports.clear()

    def _scheduler_pass(self, now: float, lease: Lease) -> None:
        commands = scheduler_tick(
            self.kb,
            now=now,
            term=self.node.current_term,
            grace_period=self.config.grace_period,
            snapshot_staleness=self.config.snapshot_staleness,
            lease=lease,
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
                sys.intern(f"scheduler-{effect.kind}"),
                dict(effect.detail),
            )
