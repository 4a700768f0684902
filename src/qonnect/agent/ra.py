"""The per-cluster Resource Agent.

Stateless by design: everything the agent needs across restarts (its
cluster id, the cluster config cache, and the applications record) lives in
the cluster's persisted config stores, so a fresh agent instance over the
same backend resumes identically.

Each tick runs the four duties in order: ship a node snapshot, refresh the
cluster config cache, poll and reconcile scheduled applications, and report
per-component heartbeats. A heartbeat answered not-found means the workload
was withdrawn or reassigned, and triggers local cleanup. A component whose
namespace, applied objects or Deployment workload a heartbeat round finds
gone is applied again from the record (level-triggered, as a controller
reconciles desired against actual state); a crash loop or a rollout timeout
is left alone.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Protocol

from qonnect import codec
from qonnect.agent.client import RlaClient, RlaClientError
from qonnect.events import EventLog
from qonnect.rla.validation import PLACEHOLDER_RE

SELF_STORE = "self"
CONFIG_STORE = "cluster-config"
APPS_STORE = "applications"

# Seconds between registration attempts while the RLAs cannot be reached.
REGISTRATION_BACKOFF = 1.0
# Seconds a component may stay rolling after its apply before it reports failed.
ROLLOUT_TIMEOUT = 120.0


class ClusterBackend(Protocol):
    """The narrow cluster-API surface the agent drives."""

    def external_ip(self) -> str: ...

    def list_nodes(self) -> list:
        """The cluster's nodes, each a dataclass record whose codec form is
        its wire node report: the fields of ``NodeSnapshot`` less
        ``cluster_id`` and ``taken_at``. The agent reads ``role`` alone, to
        leave out the control-plane node, and sends every other record as
        ``codec.encoder`` writes it."""

    def read_store(self, store: str) -> dict | None: ...

    def write_store(self, store: str, data: dict) -> None: ...

    def ensure_namespace(self, namespace: str) -> None: ...

    def namespace_exists(self, namespace: str) -> bool: ...

    def delete_namespace(self, namespace: str) -> None: ...

    def apply_objects(
        self, namespace: str, objects: list[dict], pinned_nodes: tuple[str, ...]
    ) -> list[str]: ...

    def delete_objects(self, namespace: str, object_ids: list[str]) -> None: ...

    def namespace_state(self, namespace: str) -> tuple[dict, dict] | None: ...


@dataclass
class RaConfig:
    domain: str
    snapshot_period: float = 5.0
    poll_period: float = 5.0
    heartbeat_period: float = 10.0


class PlaceholderError(Exception):
    pass


def substitute_placeholders(text: str, placement: dict[str, str], config: dict[str, str]) -> str:
    """``text``, a manifest's JSON text, with every {{QONNECT_<DOMAIN>_IP}}
    token replaced by the concrete ingress ip, in keys and values alike.

    A token holds no character JSON escapes, so every token of a decoded
    string is one in its text, in the same order. An ip goes in JSON-escaped:
    an IPv6 scope id may hold any character but ``%``, quotes and
    backslashes included, and the decoded value must be the ip as registered.
    """
    def replace(match: re.Match) -> str:
        domain = match.group(1).lower()
        cluster_id = placement.get(domain)
        if cluster_id is None:
            raise PlaceholderError(f"no placement for domain {domain!r}")
        ip = config.get(cluster_id)
        if ip is None:
            raise PlaceholderError(f"no ingress ip cached for cluster {cluster_id}")
        return json.dumps(ip)[1:-1]

    return PLACEHOLDER_RE.sub(replace, text)


def record_by_namespace(record: dict) -> dict[str, dict[str, dict]]:
    """The entries of an applications record by namespace, then by app id,
    in record order."""
    index: dict[str, dict[str, dict]] = {}
    for app_id, entry in record.items():
        index.setdefault(entry["name"], {})[app_id] = entry
    return index


class ResourceAgent:
    def __init__(
        self,
        backend: ClusterBackend,
        client: RlaClient,
        config: RaConfig,
        events: EventLog | None = None,
        name: str = "ra",
    ) -> None:
        self.backend = backend
        self.client = client
        self.config = config
        self.events = events if events is not None else EventLog()
        self.name = name
        self.cluster_id: str | None = None
        self._next_register = 0.0
        self._next_snapshot = 0.0
        self._next_poll = 0.0
        self._next_heartbeat = 0.0

    def _log(self, now: float, kind: str, detail: dict | None = None) -> None:
        self.events.append(now, self.name, kind, detail or {})

    # ------------------------------------------------------------------
    # Duty loop
    # ------------------------------------------------------------------

    @property
    def next_due(self) -> float:
        """The earliest time ``run_due`` has work: the next registration
        attempt while unregistered, else the earliest duty deadline. Only
        ``run_due`` moves it, so the ``Members`` round may skip this one until
        then. A path that brings an agent back (a future revive) must lower
        the due time ``Members`` recorded, or the agent waits for the
        others' next duty."""
        if self.cluster_id is None:
            return self._next_register
        return min(self._next_snapshot, self._next_poll, self._next_heartbeat)

    def run_due(self, now: float) -> None:
        """Run whichever duties are due; duties are sequential within a tick."""
        if self.cluster_id is None:
            if now < self._next_register:
                return
            try:
                self.ensure_registered(now)
            except RlaClientError as exc:
                self._next_register = now + REGISTRATION_BACKOFF
                self._log(now, "registration-retry", {"error": str(exc)})
                return
        if now >= self._next_snapshot:
            self._next_snapshot = now + self.config.snapshot_period
            self._guarded(now, "node-snapshot", self.send_node_snapshot)
        if now >= self._next_poll:
            self._next_poll = now + self.config.poll_period
            self._guarded(now, "config-poll", self.poll_cluster_config)
            self._guarded(now, "application-poll", self.poll_and_reconcile)
        if now >= self._next_heartbeat:
            self._next_heartbeat = now + self.config.heartbeat_period
            self._guarded(now, "heartbeat", self.report_heartbeats)

    def _guarded(self, now: float, duty: str, fn) -> None:
        # Transient control-plane failures skip the duty; the next period retries.
        try:
            fn(now)
        except RlaClientError as exc:
            self._log(now, f"{duty}-skipped", {"error": str(exc)})

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def ensure_registered(self, now: float) -> str:
        record = self.backend.read_store(SELF_STORE)
        if record and record.get("cluster_id"):
            self.cluster_id = record["cluster_id"]
        else:
            ip = self.backend.external_ip()
            cluster_id = self.client.register(ip, self.config.domain)
            self.backend.write_store(
                SELF_STORE,
                {"cluster_id": cluster_id, "domain": self.config.domain, "role": "workload"},
            )
            self.cluster_id = cluster_id
            self._log(now, "registered", {"cluster_id": cluster_id})
        # Verify the auxiliary stores exist for later duties.
        if self.backend.read_store(CONFIG_STORE) is None:
            self.backend.write_store(CONFIG_STORE, {})
        if self.backend.read_store(APPS_STORE) is None:
            self.backend.write_store(APPS_STORE, {})
        return self.cluster_id

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def send_node_snapshot(self, now: float) -> dict:
        """Report every node whose role is not control-plane, each in its
        record's codec form (see ``ClusterBackend.list_nodes``)."""
        nodes = [n for n in self.backend.list_nodes() if n.role != "control-plane"]
        encoders = {cls: codec.encoder(cls) for cls in set(map(type, nodes))}
        return self.client.put_nodes(self.cluster_id, [encoders[type(n)](n) for n in nodes])

    def poll_cluster_config(self, now: float) -> None:
        self.backend.write_store(CONFIG_STORE, self.client.cluster_config())

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------

    def poll_and_reconcile(self, now: float) -> None:
        payloads = self.client.poll_applications(self.cluster_id)
        if not payloads:
            return
        record = self.backend.read_store(APPS_STORE) or {}
        for payload in payloads:
            self.reconcile_payload(payload, record, now)
        self.backend.write_store(APPS_STORE, record)

    def reconcile_payload(self, payload: dict, record: dict, now: float) -> bool:
        app_id = payload["app_id"]
        component = payload["component"]
        entry = record.get(app_id)
        existing = (entry or {}).get("components", {}).get(component)
        if existing and existing.get("version") == payload["version"]:
            return True  # already applied at this version
        return self._apply(app_id, payload["name"], component, payload, record, now, "applied")

    def _apply(
        self, app_id: str, namespace: str, component: str, spec: dict, record: dict,
        now: float, kind: str,
    ) -> bool:
        """Apply ``spec`` (its version, manifest text, placement and target
        nodes) and record it, keeping what a later reapply needs."""
        config_cache = self.backend.read_store(CONFIG_STORE) or {}
        try:
            text = substitute_placeholders(
                spec["manifest"], spec.get("placement", {}), config_cache
            )
        except PlaceholderError as exc:
            self._log(now, "failed-to-apply", {
                "app": namespace, "component": component, "error": str(exc),
            })
            return False
        objects = json.loads(text).get("objects", [])

        created = not self.backend.namespace_exists(namespace)
        self.backend.ensure_namespace(namespace)
        try:
            applied = self.backend.apply_objects(
                namespace, objects, tuple(spec.get("target_nodes", []))
            )
        except Exception as exc:
            # Keep the record<->namespace bijection: a namespace created for
            # a failed first apply is rolled back.
            if created and app_id not in record:
                self.backend.delete_namespace(namespace)
            self._log(now, "failed-to-apply", {
                "app": namespace, "component": component, "error": str(exc),
            })
            return False
        entry = record.setdefault(app_id, {"name": namespace, "components": {}})
        entry["components"][component] = {
            "version": spec["version"],
            "objects": applied,
            "deployed_at": now,
            # What a reapply needs: the payload's own values, not copies.
            "manifest": spec["manifest"],
            "placement": spec.get("placement", {}),
            "target_nodes": spec.get("target_nodes", []),
        }
        self._log(now, kind, {
            "app": namespace, "component": component, "version": spec["version"],
            "objects": applied,
        })
        return True

    # ------------------------------------------------------------------
    # Heartbeats and cleanup
    # ------------------------------------------------------------------

    def component_status(self, namespace: str, comp_record: dict, now: float) -> str:
        """The component's heartbeat status, or "missing" when its namespace,
        an applied object or a Deployment's workload is gone (drift, which
        the heartbeat reports as failed)."""
        state = self.backend.namespace_state(namespace)
        if state is None:
            return "missing"
        objects, workloads = state
        found = []
        for obj_id in comp_record.get("objects", []):
            if obj_id not in objects:
                return "missing"
            kind, _, obj_name = obj_id.partition("/")
            if kind == "Deployment":
                workload = workloads.get(obj_name)
                if workload is None:
                    return "missing"
                found.append(workload)
        rolling = False
        for workload in found:
            if workload.phase == "CrashLoop":
                return "failed"
            if workload.ready != workload.desired:
                rolling = True
        if not rolling:
            return "healthy"
        if now - comp_record.get("deployed_at", 0.0) <= ROLLOUT_TIMEOUT:
            return "progressing"
        return "failed"

    def report_heartbeats(self, now: float) -> None:
        record = self.backend.read_store(APPS_STORE) or {}
        if not record:
            return
        changed = False
        by_namespace = None  # built at the round's first cleanup
        try:
            for app_id in list(record):
                entry = record[app_id]
                namespace = entry["name"]
                for component in list(entry.get("components", {})):
                    comp_record = entry["components"][component]
                    status = self.component_status(namespace, comp_record, now)
                    alive = self.client.heartbeat(
                        app_id=app_id,
                        component=component,
                        cluster_id=self.cluster_id,
                        version=comp_record["version"],
                        status="failed" if status == "missing" else status,
                    )
                    if not alive:
                        if by_namespace is None:
                            by_namespace = record_by_namespace(record)
                        self._cleanup_component(record, by_namespace, app_id, component, now)
                        changed = True
                    elif status == "missing":
                        # Drift: the RLA still places the component here.
                        self._apply(app_id, namespace, component, comp_record, record, now,
                                    "reapplied")
                        changed = True
        finally:
            # A heartbeat that raises (no leader, say) ends the round after a
            # cleanup or reapply may have changed entries that the store
            # shares with ``record``, so what the round changed is written.
            if changed:
                self.backend.write_store(APPS_STORE, record)

    def _cleanup_component(
        self, record: dict, by_namespace: dict, app_id: str, component: str, now: float
    ) -> None:
        """Remove ``component`` of ``app_id`` from the cluster and from
        ``record``; ``by_namespace`` is ``record_by_namespace(record)``, kept
        in step with it."""
        entry = record.get(app_id)
        if entry is None:
            return
        namespace = entry["name"]
        # Another app id may share the namespace: an app deleted and submitted
        # again applies under its new id before the old one is cleaned up.
        sharing = by_namespace[namespace]
        comp_record = entry["components"].pop(component, None)
        if not entry["components"]:
            record.pop(app_id)
            sharing.pop(app_id)
        if comp_record is not None:
            held = {o for e in sharing.values()
                    for c in e["components"].values() for o in c["objects"]}
            self.backend.delete_objects(
                namespace, [o for o in comp_record.get("objects", []) if o not in held]
            )
        if not sharing:
            self.backend.delete_namespace(namespace)
        self._log(now, "cleanup", {"app_id": app_id, "component": component})
