"""A simulated cluster: the actuation target for resource agents.

Holds namespaces of applied objects, Deployment-like workloads with replica
rollout dynamics, a node set with status flags, and persisted key/value
config stores (the moral equivalent of ConfigMaps, which is what keeps the
agents stateless). All mutations are serialized through this object. Its
clock is its driver's: ``step(now)`` takes the driver's time, and the
cluster writes its own events (rollouts, crash-loop restarts, faults) to
the event log it is given, as the agents and RLAs do. Identical inputs
replay identically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Union

from qonnect.events import EventLog
from qonnect.kb.model import NODE_METRICS, Domain
from qonnect.sim.profiles import PROFILES


class WorkloadPhase(str, Enum):
    ROLLING = "Rolling"
    READY = "Ready"
    CRASH_LOOP = "CrashLoop"


_ROLLING, _READY, _CRASH_LOOP = WorkloadPhase  # bound once: see raft.node
# How far below a rollout's end its namespace falls due: far more than float
# rounding at any simulated time, so the exact test in ``step`` decides.
_DUE_SLACK = 1e-6


@dataclass(slots=True)
class SimNode:
    """A node of the cluster, which is also its report's wire record: the
    fields of ``NodeSnapshot`` less ``cluster_id`` and ``taken_at``."""

    node_name: str
    role: str  # control-plane | worker
    ready: bool = True
    schedulable: bool = True
    pressured: bool = False
    energy: float = 0.0
    pricing: float = 0.0
    cpu: float = 0.0
    memory: float = 0.0
    bandwidth: float = 0.0
    storage: float = 0.0


@dataclass(slots=True)
class SimWorkload:
    name: str
    desired: int
    ready: int = 0
    pinned_nodes: tuple[str, ...] = ()
    phase: WorkloadPhase = WorkloadPhase.ROLLING
    rollout_started: float = 0.0
    labels: dict[str, str] = field(default_factory=dict)
    env: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class KillRa:
    pass


@dataclass(frozen=True)
class NodeNotReady:
    node_name: str


@dataclass(frozen=True)
class NodePressure:
    node_name: str


@dataclass(frozen=True)
class DeleteNamespace:
    namespace: str


@dataclass(frozen=True)
class CrashLoop:
    namespace: str
    workload: str


Fault = Union[KillRa, NodeNotReady, NodePressure, DeleteNamespace, CrashLoop]


class SimClusterError(Exception):
    pass


class SimCluster:
    def __init__(
        self,
        name: str,
        domain: Domain,
        profile: str,
        ingress_ip: str,
        nodes: list[SimNode],
        rollout_latency: float = 2.0,
        events: EventLog | None = None,
    ) -> None:
        if sum(1 for n in nodes if n.role == "control-plane") != 1:
            raise SimClusterError("a cluster has exactly one control-plane node")
        self.name = name
        self.domain = domain
        self.profile = profile
        self.ingress_ip = ingress_ip
        self.nodes = nodes
        self.rollout_latency = rollout_latency
        self.events = events if events is not None else EventLog()
        self.now = 0.0
        self.ra_alive = True
        self.namespaces: dict[str, dict[str, dict]] = {}
        self.workloads: dict[str, dict[str, SimWorkload]] = {}
        self.config_stores: dict[str, dict] = {}
        self._crash_state: dict[tuple[str, str], int] = {}
        # Namespaces holding a Rolling or CrashLoop workload: the only ones
        # ``step`` has work in. A namespace leaves once all its workloads are
        # Ready. While it is empty, ``step`` only sets ``now``.
        self.unsettled: set[str] = set()
        # Each namespace's creation number: ``step`` visits in creation order.
        self._created: dict[str, int] = {}
        self._creations = count()
        # (due time, creation number, namespace): an unsettled namespace
        # cannot change before the due time of its entry (``_due_time``), so
        # ``step`` visits only the due ones. A namespace may have several
        # entries; a stale one costs at most a visit that changes nothing.
        self._due: list[tuple[float, int, str]] = []

    # ------------------------------------------------------------------
    # Node and store access (the agent-facing backend surface)
    # ------------------------------------------------------------------

    def external_ip(self) -> str:
        return self.ingress_ip

    def list_nodes(self) -> list[SimNode]:
        return list(self.nodes)

    def _node(self, name: str) -> SimNode:
        for node in self.nodes:
            if node.node_name == name:
                return node
        raise SimClusterError(f"unknown node: {name}")

    def read_store(self, store: str) -> dict | None:
        value = self.config_stores.get(store)
        return dict(value) if value is not None else None

    def write_store(self, store: str, data: dict) -> None:
        self.config_stores[store] = dict(data)

    # ------------------------------------------------------------------
    # Namespaces and objects
    # ------------------------------------------------------------------

    def ensure_namespace(self, namespace: str) -> None:
        self.namespaces.setdefault(namespace, {})
        self.workloads.setdefault(namespace, {})
        self._created.setdefault(namespace, next(self._creations))

    def namespace_exists(self, namespace: str) -> bool:
        return namespace in self.namespaces

    def delete_namespace(self, namespace: str) -> None:
        """Remove exactly this namespace's objects; absent is a no-op."""
        self.namespaces.pop(namespace, None)
        self.workloads.pop(namespace, None)
        self._created.pop(namespace, None)
        self.unsettled.discard(namespace)

    def apply_objects(
        self, namespace: str, objects: list[dict], pinned_nodes: tuple[str, ...]
    ) -> list[str]:
        if namespace not in self.namespaces:
            raise SimClusterError(f"namespace does not exist: {namespace}")
        workers = {n.node_name for n in self.nodes if n.role == "worker" and n.schedulable}
        for pin in pinned_nodes:
            if pin not in workers:
                raise SimClusterError(f"cannot pin to unknown or unschedulable node: {pin}")
        applied: list[str] = []
        for obj in objects:
            kind = obj.get("kind")
            name = obj.get("name")
            if not kind or not name:
                raise SimClusterError(f"object needs kind and name: {obj!r}")
            obj_id = f"{kind}/{name}"
            existing = self.namespaces[namespace].get(obj_id)
            merged_labels = dict(existing.get("labels", {})) if existing else {}
            merged_labels.update(obj.get("labels", {}))
            stored = dict(obj)
            stored["labels"] = merged_labels
            self.namespaces[namespace][obj_id] = stored
            if kind == "Deployment":
                self._apply_workload(namespace, name, stored, pinned_nodes)
            applied.append(obj_id)
        return applied

    def _apply_workload(
        self, namespace: str, name: str, obj: dict, pinned_nodes: tuple[str, ...]
    ) -> None:
        desired = int(obj.get("replicas", 1))
        env = dict(obj.get("env", {}))
        labels = dict(obj.get("labels", {}))
        current = self.workloads[namespace].get(name)
        if (
            current is not None
            and current.desired == desired
            and current.env == env
            and current.labels == labels
            and current.pinned_nodes == tuple(pinned_nodes)
            and current.phase is not _CRASH_LOOP
        ):
            return  # unchanged spec: no second rollout
        self.workloads[namespace][name] = SimWorkload(
            name=name,
            desired=desired,
            ready=0,
            pinned_nodes=tuple(pinned_nodes),
            phase=_ROLLING,
            rollout_started=self.now,
            labels=labels,
            env=env,
        )
        self.unsettled.add(namespace)
        self._queue(namespace, self._due_time(self.workloads[namespace][name]))

    def delete_objects(self, namespace: str, object_ids: list[str]) -> None:
        ns = self.namespaces.get(namespace)
        if ns is None:
            return
        for obj_id in object_ids:
            ns.pop(obj_id, None)
            kind, _, name = obj_id.partition("/")
            if kind == "Deployment":
                self.workloads.get(namespace, {}).pop(name, None)
                if namespace in self.unsettled:  # it may have settled
                    self._queue(namespace, -math.inf)

    def namespace_state(self, namespace: str) -> tuple[dict, dict] | None:
        """The namespace's applied objects by id and its ``SimWorkload``s by
        name, or None when the namespace does not exist. These are the
        cluster's own maps: a caller reads them and changes nothing."""
        objects = self.namespaces.get(namespace)
        if objects is None:
            return None
        return objects, self.workloads[namespace]

    def workload_state(self, namespace: str, name: str) -> SimWorkload | None:
        return self.workloads.get(namespace, {}).get(name)

    # ------------------------------------------------------------------
    # Dynamics and faults
    # ------------------------------------------------------------------

    def _log(self, kind: str, **detail: str) -> None:
        self.events.append(self.now, self.name, kind, detail)

    def _due_time(self, workload: SimWorkload) -> float:
        """When an unsettled ``workload`` may next change: a Rolling one of
        at most one replica keeps ``ready`` at 0 until its rollout ends;
        any other may change at every step."""
        if workload.phase is _ROLLING and 0 <= workload.desired <= 1:
            return workload.rollout_started + self.rollout_latency - _DUE_SLACK
        return -math.inf

    def _queue(self, namespace: str, due: float) -> None:
        heapq.heappush(self._due, (due, self._created[namespace], namespace))

    def step(self, now: float) -> None:
        """Advance to the driver's time ``now``. An earlier ``now`` (a wall
        clock stepped back) leaves the clock where it is."""
        self.now = max(self.now, now)
        queue = self._due
        if not queue or queue[0][0] > self.now:
            return
        visiting = set()
        while queue and queue[0][0] <= self.now:
            visiting.add(heapq.heappop(queue)[2])
        # Creation order, as a full scan of ``workloads`` would visit them,
        # keeps events in order.
        for namespace in sorted(visiting & self.unsettled, key=self._created.__getitem__):
            due = math.inf
            for workload in self.workloads[namespace].values():
                if workload.phase is _ROLLING:
                    elapsed = self.now - workload.rollout_started
                    if elapsed >= self.rollout_latency:
                        workload.ready = workload.desired
                        workload.phase = _READY
                        self._log("workload-ready", namespace=namespace, workload=workload.name)
                    else:
                        due = min(due, self._due_time(workload))
                        fraction = elapsed / self.rollout_latency
                        workload.ready = min(
                            workload.desired, int(workload.desired * fraction)
                        )
                elif workload.phase is _CRASH_LOOP:
                    due = -math.inf
                    # Replicas flap between 0 and desired-1; never all ready.
                    flap = int(self.now) % 2
                    new_ready = 0 if flap == 0 else max(0, workload.desired - 1)
                    key = (namespace, workload.name)
                    if self._crash_state.get(key) != flap:
                        self._crash_state[key] = flap
                        self._log("crashloop-restart", namespace=namespace, workload=workload.name)
                    workload.ready = new_ready
            if due == math.inf:
                self.unsettled.discard(namespace)
            else:
                self._queue(namespace, due)

    def inject_fault(self, fault: Fault) -> None:
        """Apply ``fault`` and log it at the cluster's clock."""
        if isinstance(fault, KillRa):
            self.ra_alive = False
            detail = {}
        elif isinstance(fault, NodeNotReady):
            self._node(fault.node_name).ready = False
            detail = {"node": fault.node_name}
        elif isinstance(fault, NodePressure):
            self._node(fault.node_name).pressured = True
            detail = {"node": fault.node_name}
        elif isinstance(fault, DeleteNamespace):
            if fault.namespace not in self.namespaces:
                raise SimClusterError(f"unknown namespace: {fault.namespace}")
            self.delete_namespace(fault.namespace)
            detail = {"namespace": fault.namespace}
        elif isinstance(fault, CrashLoop):
            workload = self.workload_state(fault.namespace, fault.workload)
            if workload is None:
                raise SimClusterError(
                    f"unknown workload: {fault.namespace}/{fault.workload}"
                )
            workload.phase = _CRASH_LOOP
            self.unsettled.add(fault.namespace)
            self._queue(fault.namespace, -math.inf)
            detail = {"namespace": fault.namespace, "workload": fault.workload}
        else:
            raise SimClusterError(f"unknown fault: {fault!r}")
        self._log(f"fault-{type(fault).__name__.lower()}", **detail)


def make_cluster(
    name: str,
    domain: Domain,
    profile: str,
    ingress_ip: str,
    workers: int = 2,
    rollout_latency: float = 2.0,
    events: EventLog | None = None,
) -> SimCluster:
    """Build a cluster whose workers carry the profile's parameter row."""
    spec = PROFILES[profile]
    metrics = {metric: getattr(spec, metric) for metric in NODE_METRICS}
    nodes = [SimNode(f"{name}-control-plane", "control-plane")]
    nodes.extend(SimNode(f"{name}-worker-{i}", "worker", **metrics) for i in range(workers))
    return SimCluster(
        name=name,
        domain=domain,
        profile=profile,
        ingress_ip=ingress_ip,
        nodes=nodes,
        rollout_latency=rollout_latency,
        events=events,
    )
