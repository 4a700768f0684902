"""Full-scan reference versions of the simulator step, the agent poll, REST
dispatch and the scheduler's two KB scans.

``SimCluster.step`` visits only namespaces that hold a Rolling or CrashLoop
workload, ``RlaService.poll_applications`` only applications with a
component Scheduled on the polled cluster and reuses each application's
placeholder domains, ``RestApi.dispatch`` only the routes of the request's
method and segment count, ``KnowledgeBase.pending_components`` only its
pending index, and a leader's scheduler tick skips the stall scan while its
lease's ``floor`` and ``epoch`` show nothing can have stalled. The functions
here are those paths as they were before: they walk every workload, every
application and every route, sort every application and its components,
and compute everything again on every call. They serve as the oracles the equivalence
tests compare against.
"""

from __future__ import annotations

from typing import Mapping

from qonnect.kb.model import ApplicationRecord, ComponentRecord, ComponentStatus
from qonnect.kb.store import KnowledgeBase
from qonnect.rla.rest import RestApi
from qonnect.rla.service import NotFoundError
from qonnect.rla.validation import placeholder_domains
from qonnect.sim.cluster import SimCluster, WorkloadPhase


def oracle_step(cluster: SimCluster, now: float) -> None:
    """Advance ``cluster`` to ``now`` (never back), visiting every workload
    and logging to its event log."""
    cluster.now = max(cluster.now, now)
    for namespace, workloads in cluster.workloads.items():
        for workload in workloads.values():
            if workload.phase == WorkloadPhase.ROLLING:
                elapsed = cluster.now - workload.rollout_started
                if elapsed >= cluster.rollout_latency:
                    workload.ready = workload.desired
                    workload.phase = WorkloadPhase.READY
                    cluster.events.append(
                        cluster.now,
                        cluster.name,
                        "workload-ready",
                        {"namespace": namespace, "workload": workload.name},
                    )
                else:
                    fraction = elapsed / cluster.rollout_latency
                    workload.ready = min(workload.desired, int(workload.desired * fraction))
            elif workload.phase == WorkloadPhase.CRASH_LOOP:
                flap = int(cluster.now) % 2
                new_ready = 0 if flap == 0 else max(0, workload.desired - 1)
                key = (namespace, workload.name)
                if cluster._crash_state.get(key) != flap:
                    cluster._crash_state[key] = flap
                    cluster.events.append(
                        cluster.now,
                        cluster.name,
                        "crashloop-restart",
                        {"namespace": namespace, "workload": workload.name},
                    )
                workload.ready = new_ready


def oracle_live_application(kb: KnowledgeBase, name: str) -> ApplicationRecord | None:
    """The first application called ``name``, by a scan of every record."""
    for app in kb.applications.values():
        if app.name == name:
            return app
    return None


def _apps_in_order(kb: KnowledgeBase) -> list[ApplicationRecord]:
    return sorted(kb.applications.values(), key=lambda a: (a.submitted_at, a.name))


def oracle_pending(kb: KnowledgeBase) -> list[tuple[ApplicationRecord, ComponentRecord]]:
    """Every Pending component, sorting every application and its components."""
    out = []
    for app in _apps_in_order(kb):
        for comp in sorted(app.components, key=lambda c: c.name):
            if comp.status == ComponentStatus.PENDING:
                out.append((app, comp))
    return out


def oracle_stalled(
    kb: KnowledgeBase,
    now: float,
    grace: float,
    seen: Mapping[tuple[str, str], float] | None = None,
    lease_start: float | None = None,
) -> list[tuple[ApplicationRecord, ComponentRecord]]:
    """The active components more than ``grace`` past their stall reference,
    sorting every application and its components."""
    active = (ComponentStatus.SCHEDULED, ComponentStatus.HEALTHY, ComponentStatus.PROGRESSING)
    out = []
    for app in _apps_in_order(kb):
        for comp in sorted(app.components, key=lambda c: c.name):
            if comp.status not in active or comp.decision is None:
                continue
            reference = comp.last_heartbeat
            if reference is None:
                reference = comp.decision.decided_at
            if seen:
                reference = max(reference, seen.get((app.app_id, comp.name), reference))
            if lease_start is not None:
                reference = max(reference, lease_start)
            if now - reference > grace:
                out.append((app, comp))
    return out


def oracle_poll(kb: KnowledgeBase, cluster_id: str) -> list[dict]:
    """The poll payloads for ``cluster_id``, sorting and walking every application."""
    if cluster_id not in kb.clusters:
        raise NotFoundError(f"unknown cluster: {cluster_id}")
    payloads: list[dict] = []
    for app in _apps_in_order(kb):
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
            needed = placeholder_domains(comp.manifest) & app_domains
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


def oracle_dispatch(api: RestApi, method: str, path: str, body: object = None) -> tuple[int, dict]:
    """``api.dispatch``, by a scan of the whole route table in order."""
    segments = [s for s in path.split("/") if s]
    method = method.upper()
    for route_method, pattern, handler in api._routes:
        if route_method != method or len(pattern) != len(segments):
            continue
        params: dict[str, str] = {}
        for (name, literal), actual in zip(pattern, segments):
            if name is not None:
                params[name] = actual
            elif literal != actual:
                break
        else:
            return api._invoke(handler, params, {} if body is None else body)
    return 404, {"error": "no-such-route", "path": path}
