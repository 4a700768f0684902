"""Simulated cluster: rollouts, idempotent applies, faults, its driver's
clock, the events it logs, determinism."""

from __future__ import annotations

import pytest

from qonnect.events import EventLog
from qonnect.kb.model import Domain
from qonnect.sim.cluster import (
    CrashLoop,
    DeleteNamespace,
    KillRa,
    NodePressure,
    SimCluster,
    SimClusterError,
    WorkloadPhase,
    make_cluster,
)
from qonnect.sim.profiles import PROFILES


def cluster(profile: str = "performance") -> SimCluster:
    return make_cluster("edge-perf", Domain.EDGE, profile, "10.3.2.1", events=EventLog())


def deployment(name: str = "web", replicas: int = 1, **extra) -> dict:
    return {"kind": "Deployment", "name": name, "replicas": replicas, **extra}


def test_profile_attributes_match_parameter_table():
    c = cluster("cost")
    workers = [n for n in c.list_nodes() if n.role == "worker"]
    assert len(workers) == 2
    assert all(n.pricing == 0.0042 for n in workers)
    assert all(n.energy == 0.0025689 for n in workers)
    assert all(n.bandwidth == 5.0 for n in workers)
    assert PROFILES["energy"].pricing == 16.3884
    assert PROFILES["performance"].bandwidth == 100.0


def test_rollout_reaches_ready_after_latency():
    c = cluster()
    c.ensure_namespace("app")
    c.apply_objects("app", [deployment()], pinned_nodes=("edge-perf-worker-0",))
    workload = c.workload_state("app", "web")
    assert workload.phase == WorkloadPhase.ROLLING and workload.ready == 0
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        c.step(t)
    assert workload.phase == WorkloadPhase.READY and workload.ready == 1
    ready = [e for e in c.events.events if e.kind == "workload-ready"]
    assert [(e.at, e.source, e.detail) for e in ready] == [
        (2.0, "edge-perf", {"namespace": "app", "workload": "web"})
    ]


def test_reapply_same_objects_is_idempotent():
    c = cluster()
    c.ensure_namespace("app")
    objs = [deployment()]
    c.apply_objects("app", objs, pinned_nodes=())
    c.step(3.0)
    assert c.workload_state("app", "web").phase == WorkloadPhase.READY
    c.apply_objects("app", objs, pinned_nodes=())
    assert c.workload_state("app", "web").phase == WorkloadPhase.READY  # no second rollout


def test_label_merge_incoming_wins():
    c = cluster()
    c.ensure_namespace("app")
    c.apply_objects("app", [{"kind": "Service", "name": "svc", "labels": {"tier": "web"}}], ())
    c.apply_objects("app", [{"kind": "Service", "name": "svc", "labels": {"app": "x"}}], ())
    stored = c.namespaces["app"]["Service/svc"]
    assert stored["labels"] == {"tier": "web", "app": "x"}


def test_pin_to_unknown_node_rejected():
    c = cluster()
    c.ensure_namespace("app")
    with pytest.raises(SimClusterError):
        c.apply_objects("app", [deployment()], pinned_nodes=("nope",))
    # Control-plane nodes are not valid pin targets either.
    with pytest.raises(SimClusterError):
        c.apply_objects("app", [deployment()], pinned_nodes=("edge-perf-control-plane",))


def test_a_step_takes_the_drivers_time_and_an_earlier_one_leaves_the_clock():
    c = cluster()
    c.ensure_namespace("app")
    c.apply_objects("app", [deployment(replicas=4)], ())
    c.step(1.0)
    assert c.now == 1.0 and c.workload_state("app", "web").ready == 2
    # A wall clock that stepped back: no raise, and nothing moves back.
    for earlier in (0.5, 0.0, -3.0):
        c.step(earlier)
        assert c.now == 1.0 and c.workload_state("app", "web").ready == 2
    c.step(1.0)  # the same time again
    assert c.now == 1.0 and c.events.events == []
    c.step(2.5)
    assert c.now == 2.5 and [e.kind for e in c.events.events] == ["workload-ready"]


def test_crashloop_never_reaches_ready():
    c = cluster()
    c.ensure_namespace("app")
    c.apply_objects("app", [deployment(replicas=2)], ())
    c.step(3.0)
    c.inject_fault(CrashLoop("app", "web"))
    ready_values = set()
    for i in range(1, 11):
        c.step(3.0 + 0.5 * i)
        workload = c.workload_state("app", "web")
        ready_values.add(workload.ready)
        assert workload.phase == WorkloadPhase.CRASH_LOOP
        assert workload.ready < workload.desired
    assert len(ready_values) > 1  # oscillates


def test_fault_flags_and_namespace_conservation():
    c = cluster()
    c.step(4.0)
    assert c.inject_fault(KillRa()) is None
    assert not c.ra_alive
    c.inject_fault(NodePressure("edge-perf-worker-1"))
    assert c._node("edge-perf-worker-1").pressured

    c.ensure_namespace("a")
    c.ensure_namespace("b")
    c.apply_objects("a", [deployment("wa")], ())
    c.apply_objects("b", [deployment("wb")], ())
    c.inject_fault(DeleteNamespace("a"))
    assert not c.namespace_exists("a")
    assert "Deployment/wb" in c.namespace_state("b")[0]  # untouched
    with pytest.raises(SimClusterError):
        c.inject_fault(DeleteNamespace("missing"))
    # Each fault that took effect is logged once, at the cluster's clock.
    faults = [(e.at, e.source, e.kind, e.detail) for e in c.events.events]
    assert faults == [
        (4.0, "edge-perf", "fault-killra", {}),
        (4.0, "edge-perf", "fault-nodepressure", {"node": "edge-perf-worker-1"}),
        (4.0, "edge-perf", "fault-deletenamespace", {"namespace": "a"}),
    ]


def test_identical_inputs_replay_identical_event_logs():
    def run() -> list:
        c = cluster()
        c.ensure_namespace("app")
        c.apply_objects("app", [deployment(replicas=3)], ())
        for i in range(8):
            if i == 4:
                c.inject_fault(CrashLoop("app", "web"))
            c.step(0.7 * (i + 1))
        return [e.to_line() for e in c.events.events]

    assert run() == run()
