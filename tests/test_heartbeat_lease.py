"""Heartbeats and node reports as leases: what the leader logs, when it
requeues, and which nodes it places on.

The property drives ``RlaService`` and the log-every-heartbeat oracle
(``lease_oracles.EveryBeatService``) through the same heartbeat schedule
under one stable leader and compares every requeue. The engine tests kill
the leader: a live component must survive the change, however old its
replicated heartbeat time, and a dead one must still be requeued within
one grace period of the new lease. A settled federation logs nothing at
all, while the leader still knows how fresh each component and node is:
a changed node report reaches every replica, a node no longer reported
leaves every replica, and a new leader places only on clusters it has
heard from.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lease_oracles import EveryBeatService
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import (
    Batch,
    PutNodeSnapshot,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    SubmitApplication,
    decode_command,
)
from qonnect.kb.model import ComponentStatus, Domain, QoSVector
from qonnect.kb.store import HEARTBEAT_STATUS, KnowledgeBase
from qonnect.raft.node import Role
from qonnect.rla.config import RlaConfig
from qonnect.rla.service import RlaService
from qonnect.scheduler.borda import eligibility_filter
from qonnect.sim.cluster import CrashLoop, NodeNotReady, NodePressure
from support import cluster_id_of

GRACE, TICK = 30.0, 5.0
STEPS = 150  # one simulated second each
COMPONENTS = ("a", "b", "c")


class _StableLeader:
    """A Raft node stand-in that leads term 1 for good."""

    role = Role.LEADER
    current_term = 1
    leader_id = 0
    snapshot = None


class _Leader:
    """One leader service over its own KB; every proposal commits at once."""

    def __init__(self, service_class: type[RlaService]) -> None:
        self.now = 0.0
        config = RlaConfig(
            rla_id=0,
            tick_period=TICK,
            grace_period=GRACE,
            snapshot_staleness=1e9,
            telemetry_flush=0.0,  # every pump flushes before it schedules
        )
        self.service = service_class(
            config, node=_StableLeader(), kb=KnowledgeBase(), clock=lambda: self.now
        )
        self.service.proposer = self._commit
        self.requeues: list[tuple[float, RequeueComponent]] = []
        kb = self.service.kb
        self.cluster_id = kb.apply(
            RegisterCluster("10.0.0.1", Domain.EDGE, registered_at=0.0)
        ).detail["cluster_id"]
        node = {
            "node_name": "w0", "ready": True, "schedulable": True, "pressured": False,
            "energy": 1.0, "pricing": 1.0, "cpu": 4.0, "memory": 8.0,
            "bandwidth": 1.0, "storage": 10.0, "role": "worker",
        }
        kb.apply(PutNodeSnapshot(self.cluster_id, (node,), taken_at=0.0))
        kb.apply(
            SubmitApplication(
                app_id="app",
                name="app",
                labels=(),
                qos=QoSVector(1.0, 1.0, 1.0),
                components=tuple((name, Domain.EDGE, '{"objects":[]}') for name in COMPONENTS),
                submitted_at=0.0,
            )
        )

    def _commit(self, raw: str):
        entry = decode_command(raw)
        members = entry.commands if isinstance(entry, Batch) else (entry,)
        self.requeues.extend((self.now, m) for m in members if isinstance(m, RequeueComponent))
        return [self.service.kb.apply(m) for m in members]

    def step(self, now: float, beats: list[tuple[str, str]]) -> list[bool]:
        self.now = now
        accepted = [
            self.service.heartbeat("app", name, self.cluster_id, 1, status)
            for name, status in beats
        ]
        self.service.pump(now)
        return accepted

    def statuses(self) -> list[ComponentStatus]:
        return [c.status for c in self.service.kb.applications["app"].components]


# Per component: gaps in seconds between its heartbeats, each with the status
# it reports. A gap of 0 beats twice in one flush window; a long gap is a
# missed beat; a schedule that ends early is an agent that died.
_schedule = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(sorted(HEARTBEAT_STATUS))), max_size=14
)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(_schedule for _ in COMPONENTS)))
# A flip and its undoing in one flush window: both must reach the log.
@example(([(1, "healthy"), (5, "failed"), (0, "healthy")], [], []))
def test_requeues_under_a_stable_leader_equal_the_log_every_beat_oracle(schedules):
    beats: dict[int, list[tuple[str, str]]] = {}
    for name, schedule in zip(COMPONENTS, schedules):
        at = 0
        for gap, status in schedule:
            at += gap
            beats.setdefault(at, []).append((name, status))
    oracle, leased = _Leader(EveryBeatService), _Leader(RlaService)
    for second in range(STEPS):
        due = beats.get(second, [])
        assert leased.step(float(second), due) == oracle.step(float(second), due)
        assert leased.statuses() == oracle.statuses()
        # A requeued component keeps its last-seen time, which its next
        # decision postdates, so that time decides nothing.
        seen = leased.service._lease.seen
        for comp in leased.service.kb.applications["app"].components:
            if comp.decision is not None and comp.last_heartbeat is None:
                assert seen.get(("app", comp.name), -1.0) < comp.decision.decided_at
    assert leased.requeues == oracle.requeues


# ---------------------------------------------------------------------------
# Leader changes in the engine
# ---------------------------------------------------------------------------


def _healthy_fleet(dep: Deployment, names: list[str]) -> None:
    client = dep.client()
    for name in names:
        client.submit_application(bookinfo_bundle(name))
    assert dep.run_until(
        lambda: all(
            (app := dep.kb().live_application(name)) is not None
            and all(c.status == ComponentStatus.HEALTHY for c in app.components)
            for name in names
        ),
        60.0,
    )


def _components_on(dep: Deployment, cluster_name: str):
    cluster_id = cluster_id_of(dep, cluster_name)
    return [
        comp
        for app in dep.kb().applications.values()
        for comp in app.components
        if comp.decision is not None and comp.decision.cluster_id == cluster_id
    ]


def test_a_leader_change_just_before_a_heartbeat_round_requeues_no_live_component():
    # With 10 s heartbeat rounds and a 25 s grace, only status changes are
    # logged, so a Healthy component's replicated time is that of its first
    # beat and only ages: after the 30 s settle it is more than a grace old. Killing the leader
    # just before a heartbeat round loses that round to the election, so a
    # new leader that read only the replicated time would requeue at once.
    spec = TestbedSpec(grace_period=25.0, seed=31)
    dep = Deployment(spec)
    dep.boot()
    _healthy_fleet(dep, ["leased-a", "leased-b"])
    dep.run(30.0)  # every replicated time is now over a grace old

    def heartbeat_round_next_step() -> bool:
        for name, agent in dep.agents.items():
            due = agent._next_heartbeat
            comps = _components_on(dep, name)
            if (
                comps
                and dep.now < due <= dep.now + 0.05
                and all(due - c.last_heartbeat >= spec.grace_period / 2 for c in comps)
            ):
                return True
        return False

    assert dep.run_until(heartbeat_round_next_step, 30.0)
    old_leader = dep.leader_id()
    dep.kill_rla(old_leader)
    mark = len(dep.events.events)
    dep.run(3 * spec.grace_period)

    assert dep.leader_id() not in (None, old_leader)
    requeued = [e for e in dep.events.events[mark:] if e.kind == "kb-component-requeued"]
    assert requeued == []
    for name in ("leased-a", "leased-b"):
        app = dep.kb().live_application(name)
        assert all(c.status == ComponentStatus.HEALTHY for c in app.components)


def test_a_dead_agents_component_is_requeued_within_a_grace_of_the_new_lease():
    dep = Deployment(TestbedSpec(seed=32))
    dep.boot()
    _healthy_fleet(dep, ["orphaned"])
    dep.run(20.0)
    ratings = dep.kb().live_application("orphaned").component("ratings")
    host = dep.cluster_name_by_id(ratings.decision.cluster_id)
    dep.kill_ra(host)
    dep.run(dep.spec.grace_period - 2.0)  # the old leader's requeue is near
    old_leader = dep.leader_id()
    dep.kill_rla(old_leader)
    mark = len(dep.events.events)

    def elected_at() -> float | None:
        return next(
            (e.at for e in dep.events.events[mark:] if e.kind == "leader-elected"), None
        )

    assert dep.run_until(lambda: elected_at() is not None, 5.0)
    deadline = elected_at() + dep.spec.grace_period + dep.spec.tick_period

    def requeued_at() -> float | None:
        return next(
            (
                e.at
                for e in dep.events.events[mark:]
                if e.kind == "kb-component-requeued" and e.detail["component"] == "ratings"
            ),
            None,
        )

    assert dep.run_until(lambda: requeued_at() is not None, deadline + 1.0 - dep.now)
    assert requeued_at() <= deadline


def _settled_fleet(seed: int) -> Deployment:
    """The default 9-cluster testbed, three Healthy bookinfo apps, settled."""
    dep = Deployment(TestbedSpec(seed=seed))
    dep.boot()
    _healthy_fleet(dep, ["quiet-a", "quiet-b", "quiet-c"])
    dep.run(30.0)
    return dep


def test_a_settled_federation_logs_none_of_its_heartbeats():
    # Every heartbeat of a settled federation repeats its component's
    # replicated status, so each one only renews a lease on the leader.
    dep = _settled_fleet(seed=33)
    # Start half a period after a round, so the window holds whole rounds.
    agent = next(iter(dep.agents.values()))
    assert dep.run_until(
        lambda: agent._next_heartbeat - dep.now >= dep.spec.ra_heartbeat_period - 0.05, 15.0
    )
    dep.run(dep.spec.ra_heartbeat_period / 2)
    counts = {"accepted": 0, "logged": 0}
    for service in dep.services.values():
        service.heartbeat = _counting(service, counts)
    dep.run(100.0)

    assert counts["accepted"] >= 3 * 4 * 10  # every component, every round
    assert counts["logged"] == 0


def _counting(service: RlaService, counts: dict[str, int]):
    inner = service.heartbeat

    def heartbeat(*args, **kwargs) -> bool:
        queued = len(service._telemetry)
        accepted = inner(*args, **kwargs)
        counts["accepted"] += accepted
        counts["logged"] += sum(
            isinstance(c, RecordHeartbeat) for c in service._telemetry[queued:]
        )
        return accepted

    return heartbeat


def test_settled_windows_propose_append_and_compact_nothing():
    # Every heartbeat and every node report of a settled federation repeats
    # what the KB holds, so each one only renews a lease on the leader: two
    # 100 s windows propose no log entry, append no event and compact no log.
    dep = _settled_fleet(seed=35)
    proposals: list[str] = []
    propose = dep.group.propose
    dep.group.propose = lambda i, raw: proposals.append(raw) or propose(i, raw)
    nodes = dep.group.nodes.values()
    for _ in range(2):
        mark = len(dep.events.events)
        before = [(n.commit_index, n.snapshot_index) for n in nodes]
        dep.run(100.0)
        assert proposals == []
        assert dep.events.events[mark:] == []
        assert [(n.commit_index, n.snapshot_index) for n in nodes] == before
    _assert_replicas_equal(dep)


def test_the_leader_knows_each_components_freshness_while_nothing_is_logged():
    # Three 100 s windows. A crash loop at the start of the second changes one
    # component's status, which must still be logged and reach every replica.
    dep = _settled_fleet(seed=36)
    leader_id = dep.leader_id()
    leader = dep.services[leader_id]
    bound = dep.spec.ra_heartbeat_period + dep.DT + 1e-9  # a period and a step
    crashed = ("quiet-b", "reviews")
    for window in range(3):
        if window == 1:
            comp = dep.kb().live_application(crashed[0]).component(crashed[1])
            host = dep.cluster_name_by_id(comp.decision.cluster_id)
            dep.inject_fault(host, CrashLoop(*crashed))
            mark = len(dep.events.events)
        for _ in range(round(100.0 / dep.DT)):
            dep.step()
            for app in leader.kb.applications.values():
                for comp in app.components:
                    if comp.status in (ComponentStatus.HEALTHY, ComponentStatus.PROGRESSING):
                        assert dep.now - leader._lease.seen[(app.app_id, comp.name)] <= bound

    assert dep.leader_id() == leader_id
    failed = [
        e.source
        for e in dep.events.events[mark:]
        if e.kind == "kb-heartbeat-recorded"
        and (e.detail["app"], e.detail["component"]) == crashed
    ]
    assert sorted(failed) == [f"rla-{i}" for i in sorted(dep.services)]  # once per replica
    kbs = [service.kb for service in dep.services.values()]
    for kb in kbs:
        app = kb.live_application(crashed[0])
        assert app.component(crashed[1]).status == ComponentStatus.FAILED
    assert all(kb == kbs[0] for kb in kbs)


def test_a_stale_heartbeat_from_a_former_cluster_leaves_the_live_copy_unrequeued():
    # Only status changes are logged, so after two graces a Healthy
    # component's replicated time is far over a grace old, and only the
    # leader's last-seen time keeps it alive. A heartbeat naming a cluster
    # it has left is refused, and must not cost the live copy that time.
    dep = _settled_fleet(seed=7)
    spec = dep.spec
    dep.run(2 * spec.grace_period)
    app = dep.kb().live_application("quiet-a")
    ratings = app.component("ratings")
    host = dep.cluster_name_by_id(ratings.decision.cluster_id)
    former = next(
        cid
        for cid, rec in dep.kb().clusters.items()
        if rec.domain == ratings.target_domain and cid != ratings.decision.cluster_id
    )
    # Just after the host's heartbeat round, a full period before the next.
    agent = dep.agents[host]
    assert dep.run_until(
        lambda: agent._next_heartbeat - dep.now >= spec.ra_heartbeat_period - dep.DT, 15.0
    )
    assert dep.now - ratings.last_heartbeat > spec.grace_period
    leader = dep.leader_service()
    assert not leader.heartbeat(app.app_id, "ratings", former, app.version, "healthy")
    mark = len(dep.events.events)
    dep.run(spec.grace_period)

    assert dep.leader_service() is leader
    assert [e for e in dep.events.events[mark:] if e.kind == "kb-component-requeued"] == []
    assert ratings.status == ComponentStatus.HEALTHY
    assert dep.cluster_name_by_id(ratings.decision.cluster_id) == host


def test_a_leader_change_after_a_long_stable_term_requeues_only_dead_components():
    # Ten grace periods under one leader leave every replicated heartbeat
    # time ten graces old. The new leader's lease must still spare each live
    # component and requeue those of the agent killed with the old leader.
    dep = Deployment(TestbedSpec(seed=34))
    dep.boot()
    _healthy_fleet(dep, ["long-a", "long-b", "long-c"])
    spec = dep.spec
    old_leader = dep.leader_id()
    dep.run(10 * spec.grace_period)
    assert dep.leader_id() == old_leader
    components = [
        (app.name, comp) for app in dep.kb().applications.values() for comp in app.components
    ]
    assert all(dep.now - c.last_heartbeat >= 10 * spec.grace_period for _, c in components)

    host_id = dep.kb().live_application("long-a").component("ratings").decision.cluster_id
    dead = {(name, c.name) for name, c in components if c.decision.cluster_id == host_id}
    dep.kill_ra(dep.cluster_name_by_id(host_id))
    dep.kill_rla(old_leader)
    mark = len(dep.events.events)
    dep.run(3 * spec.grace_period)

    assert dep.leader_id() not in (None, old_leader)
    elected_at = next(e.at for e in dep.events.events[mark:] if e.kind == "leader-elected")
    requeued: dict[tuple[str, str], float] = {}
    for e in dep.events.events[mark:]:
        if e.kind == "kb-component-requeued":
            requeued.setdefault((e.detail["app"], e.detail["component"]), e.at)
    assert requeued.keys() == dead
    assert max(requeued.values()) <= elected_at + spec.grace_period + spec.tick_period


# ---------------------------------------------------------------------------
# Node reports as leases
# ---------------------------------------------------------------------------


def _assert_replicas_equal(dep: Deployment) -> None:
    """After one round of catch-up, every running replica's KB is ``==``."""
    leader = dep.group.leader()
    if leader is not None:
        dep.group.pump(leader.broadcast_append())
    kbs = _running_kbs(dep)
    assert len(kbs) >= 2 and all(kb == kbs[0] for kb in kbs)


def _running_kbs(dep: Deployment) -> list[KnowledgeBase]:
    return [s.kb for i, s in dep.services.items() if i not in dep.group.stopped]


def _chosen_node(dep: Deployment, app_name: str, component: str) -> tuple[str, str]:
    """(cluster id, node name) placement chose first for ``component``."""
    decision = dep.kb().live_application(app_name).component(component).decision
    return decision.cluster_id, decision.node_names[0]


def _placed(dep: Deployment, name: str) -> bool:
    app = dep.kb().live_application(name)
    return app is not None and all(c.decision is not None for c in app.components)


@pytest.mark.parametrize(
    "fault, field, value", [(NodeNotReady, "ready", False), (NodePressure, "pressured", True)]
)
def test_a_node_that_turns_unfit_reaches_every_replica_and_loses_placements(
    fault, field, value
):
    dep = _settled_fleet(seed=37)
    spec = dep.spec
    cluster_id, node_name = _chosen_node(dep, "quiet-a", "ratings")
    key = (cluster_id, node_name)
    assert all(getattr(kb.nodes[key], field) != value for kb in _running_kbs(dep))
    start = dep.now
    dep.inject_fault(dep.cluster_name_by_id(cluster_id), fault(node_name))

    assert dep.run_until(
        lambda: all(getattr(kb.nodes[key], field) == value for kb in _running_kbs(dep)),
        spec.ra_snapshot_period + spec.telemetry_flush + dep.DT,
    )
    assert dep.now - start <= spec.ra_snapshot_period + spec.telemetry_flush + dep.DT
    # The same QoS class places as before on every node but this one.
    dep.client().submit_application(bookinfo_bundle("after-fault"))
    assert dep.run_until(lambda: _placed(dep, "after-fault"), 2 * spec.tick_period)
    ratings = dep.kb().live_application("after-fault").component("ratings").decision
    assert node_name not in ratings.node_names
    _assert_replicas_equal(dep)


def test_a_node_dropped_from_its_clusters_reports_leaves_every_replica():
    dep = _settled_fleet(seed=38)
    spec = dep.spec
    cluster_id, node_name = _chosen_node(dep, "quiet-a", "ratings")
    key = (cluster_id, node_name)
    cluster = dep.clusters[dep.cluster_name_by_id(cluster_id)]
    leader = dep.leader_service()
    cluster.nodes = [n for n in cluster.nodes if n.node_name != node_name]
    bound = spec.ra_snapshot_period + spec.telemetry_flush + dep.DT
    start = dep.now

    assert dep.run_until(lambda: all(key not in kb.nodes for kb in _running_kbs(dep)), bound)
    assert dep.now - start <= bound
    others = {(cluster_id, n.node_name) for n in cluster.nodes if n.role != "control-plane"}
    for kb in _running_kbs(dep):
        assert {k for k in kb.nodes if k[0] == cluster_id} == others
        restored = KnowledgeBase.restore(kb.snapshot_state())
        assert key not in restored.nodes and restored == kb
    # The cluster keeps reporting the same nodes, so once their replicated
    # report is stale its last-heard time keeps them eligible.
    dep.run(spec.snapshot_staleness + dep.DT)
    domain = leader.kb.clusters[cluster_id].domain
    eligible = eligibility_filter(
        leader.kb.nodes_in_domain(domain), dep.now, spec.snapshot_staleness
    )
    assert not any(n.cluster_id == cluster_id for n in eligible)
    eligible = eligibility_filter(
        leader.kb.nodes_in_domain(domain), dep.now, spec.snapshot_staleness,
        heard=leader._lease.heard,
    )
    assert {(n.cluster_id, n.node_name) for n in eligible if n.cluster_id == cluster_id} == others
    dep.client().submit_application(bookinfo_bundle("after-drop"))
    assert dep.run_until(lambda: _placed(dep, "after-drop"), 2 * spec.tick_period)
    ratings = dep.kb().live_application("after-drop").component("ratings").decision
    assert node_name not in ratings.node_names
    assert dep.leader_service() is leader
    _assert_replicas_equal(dep)


def test_a_new_leader_places_nothing_on_a_cluster_whose_agent_died_before_it():
    # The dead agent's cluster reported within the staleness bound of the old
    # leader's soft state, but its replicated report is old, and the new
    # leader never hears from it.
    dep = _settled_fleet(seed=39)
    spec = dep.spec
    cluster_id, _ = _chosen_node(dep, "quiet-a", "ratings")
    dep.kill_ra(dep.cluster_name_by_id(cluster_id))
    dep.run(dep.DT)
    old_leader = dep.leader_id()
    dep.kill_rla(old_leader)
    mark = len(dep.events.events)
    assert dep.run_until(lambda: dep.leader_id() not in (None, old_leader), 5.0)
    # The other clusters report within a period, and a pass places on them.
    dep.client().submit_application(bookinfo_bundle("after-failover"))
    assert dep.run_until(
        lambda: _placed(dep, "after-failover"),
        spec.ra_snapshot_period + spec.telemetry_flush + 2 * spec.tick_period,
    )
    # The dead cluster's components are requeued after a grace period, and
    # placed again elsewhere.
    dep.run(spec.grace_period + 2 * spec.tick_period)

    decisions = [
        e for e in dep.events.events[mark:] if e.kind == "kb-decision-recorded"
    ]
    assert decisions and all(e.detail["cluster_id"] != cluster_id for e in decisions)
    requeued = {
        (e.detail["app"], e.detail["component"])
        for e in dep.events.events[mark:]
        if e.kind == "kb-component-requeued"
    }
    assert ("quiet-a", "ratings") in requeued
    for name in ("quiet-a", "quiet-b", "quiet-c", "after-failover"):
        app = dep.kb().live_application(name)
        assert all(
            c.decision is not None and c.decision.cluster_id != cluster_id
            for c in app.components
        )
    _assert_replicas_equal(dep)
