"""An engine step does only the work that is due.

``Deployment.step`` steps only clusters with a Rolling or CrashLoop
workload, and pumps every live RLA, whose pump runs a telemetry flush or a
scheduler pass only when one is due. Work-count guards on settled
federations of 9 and 297 clusters, a check that a pump with nothing due
changes nothing, and an equivalence check against
``support.visit_everything_step`` over seeded schedules of submits, QoS
updates, deletes, agent and RLA kills, forced elections and cluster
faults, and over a deposed leader that leads again.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import qonnect.rla.service as service_module
from qonnect.agent.client import RlaClientError
from qonnect.agent.ra import CONFIG_STORE
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec, default_clusters
from qonnect.kb.model import ComponentStatus
from qonnect.kb.store import KnowledgeBase
from qonnect.rla.service import RlaService
from qonnect.scheduler.loop import Lease
from qonnect.sim.cluster import CrashLoop, DeleteNamespace, NodeNotReady, NodePressure, SimCluster
from support import cluster_id_of, visit_everything_step
from test_engine_integration import GOOD_NODE
from test_idle_raft_rounds import counting

# ---------------------------------------------------------------------------
# Work count on a settled federation
# ---------------------------------------------------------------------------


def federation(copies: int, workers: int) -> Deployment:
    """Every (domain, profile) cluster ``copies`` times, booted, with one
    bookinfo Healthy and every rollout past."""
    clusters = [
        replace(c, name=f"{c.name}-{k}", ingress_ip=f"{c.ingress_ip[:-1]}{k + 1}", workers=workers)
        for c in default_clusters()
        for k in range(copies)
    ]
    dep = Deployment(TestbedSpec(clusters=clusters, seed=7))
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("bookinfo"))
    assert dep.run_until(
        lambda: all(
            c.status == ComponentStatus.HEALTHY
            for c in dep.kb().live_application("bookinfo").components
        ),
        60.0,
    )
    dep.run(dep.spec.rollout_latency)
    return dep


@pytest.mark.parametrize(("copies", "workers"), [(1, 2), (33, 3)])
def test_quiet_steps_step_no_cluster_and_pump_only_when_due(
    monkeypatch, copies, workers
):
    dep = federation(copies, workers)
    assert len(dep.clusters) == 9 * copies
    calls: Counter = Counter()
    counting(monkeypatch, calls, SimCluster, "step", "step")
    counting(monkeypatch, calls, RlaService, "_flush_telemetry", "flush")
    counting(monkeypatch, calls, service_module, "scheduler_tick", "pass")
    leader = dep.leader_service()
    pumped = 0
    for _ in range(300):  # 15 simulated seconds: agent rounds, flushes, passes
        now = dep.now + dep.DT  # the step's clock, summed as the step sums it
        flush, scheduler_pass = now >= leader._next_flush, now >= leader._next_scheduler_pass
        calls.clear()
        dep.step()
        assert calls["step"] == 0
        assert (calls["flush"], calls["pass"]) == (flush, scheduler_pass)
        pumped += flush or scheduler_pass
    assert dep.leader_service() is leader
    assert 15 <= pumped <= 20  # a flush each second, a pass each 5 s


def test_a_config_poll_with_no_registration_since_the_last_builds_nothing(monkeypatch):
    dep = federation(1, 2)
    served = []
    cluster_config = KnowledgeBase.cluster_config

    def spy(kb):
        served.append((kb, cluster_config(kb)))
        return served[-1][1]

    monkeypatch.setattr(KnowledgeBase, "cluster_config", spy)
    dep.run(15.0)  # three config polls per agent
    assert len(served) >= 9 * 3
    for kb, config in served:
        assert config is cluster_config(kb)  # the KB's own mapping, built at registration
        assert config == {cid: rec.external_ip for cid, rec in kb.clusters.items()}
    config = dep.kb().cluster_config()
    for cluster in dep.clusters.values():  # an agent keeps a copy of its own
        assert cluster.config_stores[CONFIG_STORE] == config
        assert cluster.config_stores[CONFIG_STORE] is not config


def test_a_pump_with_nothing_due_changes_nothing():
    dep = Deployment(TestbedSpec(seed=7))
    dep.boot()
    leader = dep.leader_service()
    now = dep.now
    # A lease of this term, no voided floor, and no flush or pass due.
    leader._next_flush = leader._next_scheduler_pass = now + 1.0
    lease = leader._lease
    assert lease.term == leader.node.current_term

    def state() -> list:
        return [
            (s._lease, None if s._lease is None else s._lease.floor,
             s._next_flush, s._next_scheduler_pass, s.node.last_log_index)
            for s in dep.services.values()
        ]

    before = state()
    for service in dep.services.values():  # followers' pumps too
        service.pump(now)
    after = state()
    assert after == before and all(a[0] is b[0] for a, b in zip(after, before))
    # A lease of an earlier term is replaced at the first leader work.
    leader._lease = Lease(lease.term - 1, start=0.0)
    leader.pump(now)
    assert (leader._lease.term, leader._lease.start) == (lease.term, now)
    # A clock earlier than the floor voids it.
    leader._lease.floor = now + 0.5
    leader.pump(now)
    assert leader._lease.floor == -math.inf
    # A flush comes due on the flush timer.
    leader.pump(now + 1.0)
    assert leader._next_flush == now + 1.0 + leader.config.telemetry_flush


# ---------------------------------------------------------------------------
# Equivalence with the step that visits everything
# ---------------------------------------------------------------------------

STEPS = 500  # 25 simulated seconds after boot


def workload_states(dep: Deployment) -> dict:
    return {
        (cluster.name, ns, name): (w.ready, w.phase, w.rollout_started)
        for cluster in dep.clusters.values()
        for ns, workloads in cluster.workloads.items()
        for name, w in workloads.items()
    }


def pick_op(rng: random.Random, dep: Deployment, apps: list[str]) -> tuple:
    """One random operation, chosen from ``dep``'s state."""
    kind = rng.choice(
        ("submit",) * 3 + ("qos", "delete", "kill_ra", "node", "crash", "crash", "drop", "elect")
    )
    names = sorted(dep.clusters)
    if kind == "elect":
        # A live follower stands for election and wins: the leader it
        # deposes may hold queued telemetry, and may lead again later.
        live = [i for i in dep.services if i not in dep.group.stopped and i != dep.leader_id()]
        return ("elect", rng.choice(live))
    if kind == "submit":
        return ("submit", f"app{len(apps)}")
    if kind in ("qos", "delete"):
        return (kind, rng.choice(apps)) if apps else ("none",)
    if kind == "kill_ra":
        alive = [name for name in names if dep.clusters[name].ra_alive]
        # Keep most agents, so that placements still deploy.
        return ("kill_ra", rng.choice(alive)) if len(alive) > 6 else ("none",)
    if kind == "node":
        cluster = dep.clusters[rng.choice(names)]
        node = rng.choice([n.node_name for n in cluster.nodes if n.role == "worker"])
        return ("fault", cluster.name, rng.choice((NodeNotReady, NodePressure))(node))
    workloads = sorted(
        (not cluster.unsettled, cluster.name, ns, name)
        for cluster in dep.clusters.values()
        for ns, by_name in cluster.workloads.items()
        for name in by_name
    )
    if not workloads:
        return ("none",)
    # Half the picks prefer a workload on a settled cluster, if there is one.
    if rng.random() < 0.5 and workloads[-1][0]:
        workloads = [w for w in workloads if w[0]]
    _, cluster, ns, name = rng.choice(workloads)
    fault = CrashLoop(ns, name) if kind == "crash" else DeleteNamespace(ns)
    return ("fault", cluster, fault)


def run_op(dep: Deployment, op: tuple) -> str:
    """Apply ``op`` to ``dep``; what the client answered, or the error."""
    client = dep.client()
    try:
        if op[0] == "submit":
            return client.submit_application(bookinfo_bundle(op[1]))
        if op[0] == "qos":
            return repr(client.update_qos(op[1], {"energy": 1.0, "pricing": 2.0}))
        if op[0] == "delete":
            return repr(client.delete_application(op[1]))
    except RlaClientError as exc:
        return repr(exc)
    if op[0] == "kill_ra":
        dep.kill_ra(op[1])
    elif op[0] == "kill_rla" and dep.leader_id() is not None:
        dep.kill_rla(dep.leader_id())
    elif op[0] == "fault":
        dep.inject_fault(op[1], op[2])
    elif op[0] == "elect":
        dep.group.pump(dep.group.replicas[op[1]].node._start_election())
    return ""


def boot_both(dep: Deployment, ref: Deployment) -> int:
    while not dep.booted():
        dep.step()
        visit_everything_step(ref)
    assert ref.booted() and dep.events.events == ref.events.events
    return len(dep.events.events)


def step_both(dep: Deployment, ref: Deployment, seen: int) -> int:
    """Step ``dep`` and ``ref`` once each and check that they agree; the
    length of the event log, whose first ``seen`` events were checked."""
    dep.step()
    visit_everything_step(ref)
    events = dep.events.events
    assert len(events) == len(ref.events.events)
    assert events[seen:] == ref.events.events[seen:]
    for rla_id, service in dep.services.items():
        if rla_id not in dep.group.stopped:
            assert service.kb.snapshot_state() == ref.services[rla_id].kb.snapshot_state()
    assert workload_states(dep) == workload_states(ref)
    return len(events)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_due_steps_match_the_step_that_visits_everything(seed):
    dep, ref = Deployment(TestbedSpec(seed=seed)), Deployment(TestbedSpec(seed=seed))
    seen = boot_both(dep, ref)
    rng = random.Random(seed)
    apps: list[str] = []
    kill_rla_at = rng.randrange(STEPS // 3, STEPS)
    for i in range(STEPS):
        if i == kill_rla_at:
            op = ("kill_rla",)
        elif rng.random() < 0.08:
            op = pick_op(rng, dep, apps)
        else:
            op = ("none",)
        assert run_op(dep, op) == run_op(ref, op), op
        if op[0] == "submit":
            apps.append(op[1])
        seen = step_both(dep, ref, seen)
    kinds = Counter(e.kind for e in dep.events.events)
    # The schedule reached rollouts, crash loops, dropped namespaces and
    # new leaders.
    for kind in ("workload-ready", "crashloop-restart", "fault-deletenamespace", "fault-killrla"):
        assert kinds[kind], kind
    assert kinds["leader-elected"] >= 3


def test_a_cluster_settled_for_many_steps_crash_loops_at_the_engines_whole_seconds():
    dep, ref = Deployment(TestbedSpec(seed=2)), Deployment(TestbedSpec(seed=2))
    seen = boot_both(dep, ref)
    for d in (dep, ref):
        run_op(d, ("submit", "shop"))
    for _ in range(1200):
        seen = step_both(dep, ref, seen)
        app = dep.kb().live_application("shop")
        if not dep.members._unsettled and all(c.status == ComponentStatus.HEALTHY for c in app.components):
            break
    else:
        pytest.fail("bookinfo did not settle")
    name, ns, workload = min(
        (c.name, ns, w) for c in dep.clusters.values() for ns, ws in c.workloads.items() for w in ws
    )
    for d in (dep, ref):
        d.kill_ra(name)  # no agent round sets this cluster's clock from now on
    for _ in range(200):  # 10 s on which no cluster steps
        seen = step_both(dep, ref, seen)
        assert not dep.members._unsettled
    assert dep.clusters[name].now <= dep.now - 10.0  # its clock lags the engine's
    for d in (dep, ref):
        d.inject_fault(name, CrashLoop(ns, workload))
    assert dep.events.events[-1].at == dep.now
    seen = len(dep.events.events)
    times = []
    for _ in range(100):
        seen = step_both(dep, ref, seen)
        times.append(dep.now)
    # A restart on the first step, then on each step whose clock enters
    # another whole second, as the cluster's own clock would show.
    expected = [t for i, t in enumerate(times) if i == 0 or int(t) != int(times[i - 1])]
    restarts = [
        e.at for e in dep.events.matching("crashloop-restart", name) if e.at >= times[0]
    ]
    assert restarts == expected and len(restarts) >= 5


def test_a_deposed_leader_that_leads_again_logs_nothing_it_queued_before():
    dep, ref = Deployment(TestbedSpec(seed=5)), Deployment(TestbedSpec(seed=5))
    seen = boot_both(dep, ref)
    old = dep.leader_id()
    path = f"/clusters/{cluster_id_of(dep, 'edge-energy')}/nodes"
    for d in (dep, ref):
        assert d.send(f"rla-{old}", "POST", path, {"nodes": [GOOD_NODE]})[0] == 200
        assert d.services[old]._telemetry  # queued, not yet flushed
        run_op(d, ("elect", (old + 1) % 3))
    assert dep.leader_id() == ref.leader_id() != old
    seen = step_both(dep, ref, seen)
    for d in (dep, ref):
        run_op(d, ("elect", old))
    assert dep.leader_id() == ref.leader_id() == old
    for _ in range(60):
        seen = step_both(dep, ref, seen)
    # The report queued in the old term never reached the log.
    assert all(name != GOOD_NODE["node_name"] for _, name in dep.kb().nodes)
