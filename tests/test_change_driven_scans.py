"""The simulator step, the agent poll, REST dispatch and the scheduler's
scans visit only what changed, what can match or what is due.

Equivalence properties against the full-scan oracles in ``scan_oracles``, and
work-count guards: a settled cluster's step and a poll of a cluster with
nothing Scheduled touch no workload and no application, repeated polls
compute each manifest's placeholder domains once, and a settled
federation's leader reads no application for pending components and runs a
stall scan on few of its ticks.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonnect import codec
from qonnect.events import EventLog
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec, default_clusters
from qonnect.kb.commands import (
    Batch,
    DeleteApplication,
    PutNodeSnapshot,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    SubmitApplication,
    UpdateQoS,
    decode_command,
)
from qonnect.kb.model import ComponentStatus, Domain, QoSVector
from qonnect.kb.store import KnowledgeBase, cluster_id_for
from qonnect.raft.node import RaftConfig, RaftNode, Role
from qonnect.rla import service as service_module
from qonnect.rla.config import RlaConfig
from qonnect.rla.rest import RestApi
from qonnect.rla.service import NotFoundError, RlaService, UnavailableError
from qonnect.rla.validation import placeholder_domains
from qonnect.sim.cluster import CrashLoop, DeleteNamespace, make_cluster
from scan_oracles import (
    oracle_dispatch,
    oracle_live_application,
    oracle_pending,
    oracle_poll,
    oracle_stalled,
    oracle_step,
)


class CountingDict(dict):
    """A dict that counts the calls that read its entries."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.reads = 0

    def _read(self, method, *args):
        self.reads += 1
        return method(self, *args)

    def __iter__(self):
        return self._read(dict.__iter__)

    def __getitem__(self, key):
        return self._read(dict.__getitem__, key)

    def get(self, key, default=None):
        return self._read(dict.get, key, default)

    def keys(self):
        return self._read(dict.keys)

    def values(self):
        return self._read(dict.values)

    def items(self):
        return self._read(dict.items)


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

NAMESPACES = ("a", "b", "c")
WORKLOADS = ("w1", "w2")
applies = st.tuples(
    st.just("apply"),
    st.sampled_from(NAMESPACES),
    st.sampled_from(WORKLOADS),
    st.integers(1, 3),
    st.sampled_from(("", "v2")),
)
# A step to the cluster's clock plus one of these; a negative one is a wall
# clock that stepped back.
steps = st.tuples(st.just("step"), st.sampled_from((-0.5, 0.25, 0.5, 0.75, 1.0, 2.5)))
# Applies and steps are listed more than once, so that workloads often
# settle before a crash loop, a delete or a re-apply reaches them.
sim_ops = st.lists(
    st.one_of(
        applies,
        applies,
        steps,
        steps,
        steps,
        st.tuples(st.just("crash"), st.sampled_from(NAMESPACES[:2]), st.just("w1")),
        st.tuples(st.just("delete"), st.sampled_from(NAMESPACES), st.sampled_from(WORKLOADS)),
        st.tuples(st.just("drop"), st.sampled_from(NAMESPACES)),
    ),
    min_size=10,
    max_size=50,
)


def sim_cluster():
    return make_cluster("edge-perf", Domain.EDGE, "performance", "10.3.2.1", events=EventLog())


def run_op(cluster, op, step) -> None:
    kind = op[0]
    if kind == "apply":
        _, ns, name, replicas, env = op
        cluster.ensure_namespace(ns)
        deployment = {"kind": "Deployment", "name": name, "replicas": replicas, "env": {"v": env}}
        cluster.apply_objects(ns, [deployment], pinned_nodes=())
    elif kind == "delete":
        cluster.delete_objects(op[1], [f"Deployment/{op[2]}"])
    elif kind == "drop":
        if cluster.namespace_exists(op[1]):
            cluster.inject_fault(DeleteNamespace(op[1]))
        else:
            cluster.delete_namespace(op[1])
    elif kind == "crash":
        if cluster.workload_state(op[1], op[2]) is not None:
            cluster.inject_fault(CrashLoop(op[1], op[2]))
    else:
        step(cluster, cluster.now + op[1])


def workload_states(cluster) -> dict:
    return {
        (ns, name): (w.ready, w.phase)
        for ns, workloads in cluster.workloads.items()
        for name, w in workloads.items()
    }


@settings(max_examples=200, deadline=None)
@given(ops=sim_ops)
def test_step_matches_the_full_scan(ops):
    cluster, oracle = sim_cluster(), sim_cluster()
    for op in ops:
        run_op(cluster, op, lambda c, now: c.step(now))
        run_op(oracle, op, oracle_step)
        assert cluster.events.events == oracle.events.events
        assert workload_states(cluster) == workload_states(oracle)
        assert cluster.now == oracle.now


def settled_cluster():
    cluster = sim_cluster()
    for ns in NAMESPACES:
        cluster.ensure_namespace(ns)
        cluster.apply_objects(ns, [{"kind": "Deployment", "name": "w1"}], pinned_nodes=())
    cluster.step(3.0)  # past the rollout latency: every workload is Ready
    cluster.events.events.clear()
    cluster.workloads = CountingDict(
        {ns: CountingDict(workloads) for ns, workloads in cluster.workloads.items()}
    )
    return cluster


def test_a_settled_cluster_step_visits_no_workload():
    cluster = settled_cluster()
    for i in range(1, 21):
        cluster.step(3.0 + 0.05 * i)
    assert cluster.events.events == [] and cluster.now == 3.0 + 0.05 * 20
    assert cluster.workloads.reads == 0
    assert all(workloads.reads == 0 for workloads in cluster.workloads.values())


def test_a_step_visits_only_unsettled_namespaces():
    cluster = settled_cluster()
    cluster.apply_objects("b", [{"kind": "Deployment", "name": "w1", "replicas": 2}], ())
    inner = {ns: dict.__getitem__(cluster.workloads, ns) for ns in NAMESPACES}
    cluster.step(3.5)
    assert cluster.events.events == [] and inner["b"].reads > 0
    assert inner["a"].reads == inner["c"].reads == 0
    cluster.step(5.5)  # "b" settles and leaves the set
    before = {ns: w.reads for ns, w in inner.items()}
    cluster.workloads.reads = 0
    cluster.step(6.0)
    assert cluster.workloads.reads == 0
    assert {ns: w.reads for ns, w in inner.items()} == before


class VisitCountingDict(dict):
    """A dict that counts the keys read from it, by lookup or by iteration."""

    visits = 0

    def _visit(self, items):
        for item in items:
            self.visits += 1
            yield item

    def __getitem__(self, key):
        self.visits += 1
        return dict.__getitem__(self, key)

    def __iter__(self):
        return self._visit(dict.__iter__(self))

    def keys(self):
        return self._visit(dict.keys(self))

    def values(self):
        return self._visit(dict.values(self))

    def items(self):
        return self._visit(dict.items(self))


def test_a_step_visits_one_namespace_when_one_of_200_is_unsettled():
    cluster = sim_cluster()
    names = [f"ns-{i}" for i in range(200)]
    for ns in names:
        cluster.ensure_namespace(ns)
        cluster.apply_objects(ns, [{"kind": "Deployment", "name": "w1"}], pinned_nodes=())
    cluster.step(3.0)
    cluster.apply_objects("ns-117", [{"kind": "Deployment", "name": "w1", "replicas": 2}], ())
    cluster.workloads = VisitCountingDict(cluster.workloads)
    cluster.step(3.5)
    assert cluster.unsettled == {"ns-117"} and cluster.workloads.visits == 1


def test_a_step_visits_no_namespace_while_200_single_replica_rollouts_run():
    cluster = sim_cluster()  # rollouts take 2 s
    names = [f"ns-{i}" for i in range(200)]
    for ns in names:
        cluster.ensure_namespace(ns)
        cluster.apply_objects(ns, [{"kind": "Deployment", "name": "w1"}], pinned_nodes=())
    cluster.workloads = VisitCountingDict(cluster.workloads)
    now = 0.0
    for _ in range(39):  # up to 1.95 s, summed as the engine sums its steps
        now += 0.05
        cluster.step(now)
    assert cluster.workloads.visits == 0 and cluster.unsettled == set(names)
    assert cluster.events.events == []
    cluster.step(2.0)
    assert cluster.workloads.visits == 200 and cluster.unsettled == set()
    assert len(cluster.events.matching("workload-ready")) == 200


def test_rollouts_end_at_the_step_the_full_scan_ends_them():
    # Rollouts start at times a sum of steps reaches inexactly, so a due
    # time computed as start + latency may round either way.
    cluster, oracle = sim_cluster(), sim_cluster()
    now = 0.0
    for i in range(120):
        now += 0.05
        for c in (cluster, oracle):
            if i % 7 == 0:
                c.ensure_namespace(f"ns-{i}")
                c.apply_objects(f"ns-{i}", [{"kind": "Deployment", "name": "w1"}], ())
        cluster.step(now)
        oracle_step(oracle, now)
        assert cluster.events.events == oracle.events.events
        assert workload_states(cluster) == workload_states(oracle)


# ---------------------------------------------------------------------------
# Knowledge base and poll
# ---------------------------------------------------------------------------

CLUSTER_IPS = (("10.0.0.1", Domain.EDGE), ("10.0.0.2", Domain.EDGE), ("10.0.0.3", Domain.FOG))
CLUSTER_IDS = tuple(cluster_id_for(ip, domain) for ip, domain in CLUSTER_IPS)
APP_IDS = ("a1", "a2", "a3")
NAMES = ("n1", "n2")
COMPONENTS = {
    "x": (Domain.EDGE, codec.dumps({"kind": "Deployment", "name": "x"})),
    "y": (Domain.FOG, codec.dumps({"kind": "Deployment", "name": "y"})),
    # Withheld from polls until the fog sibling is placed.
    "z": (Domain.EDGE, codec.dumps({"kind": "Deployment", "env": {"PEER": "{{QONNECT_FOG_IP}}"}})),
}
# What a submit that reuses an app id sends: the same component names, other
# placeholders. A poll that kept the replaced record's placeholder domains
# would withhold or deliver the wrong components.
REUSED = {
    "x": (Domain.EDGE, codec.dumps({"kind": "Deployment", "env": {"PEER": "{{QONNECT_FOG_IP}}"}})),
    "y": (Domain.FOG, codec.dumps({"kind": "Deployment", "env": {"PEER": "{{QONNECT_EDGE_IP}}"}})),
    "z": (Domain.EDGE, codec.dumps({"kind": "Deployment", "name": "z"})),
}
REUSE_NAMES = ("r1", "r2")

# Ops that name components by position among those a command can act on
# now, so most of them apply. A ``rarely`` of 1 sends the previous app version
# (or, for a heartbeat, another cluster). Ops listed twice are drawn more often.
picks = st.integers(0, 11)
rarely = st.sampled_from((0, 0, 0, 1))
submits = st.tuples(
    st.just("submit"),
    st.sampled_from(APP_IDS),
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(sorted(COMPONENTS)), min_size=1, max_size=3, unique=True),
    st.sampled_from((0.0, 1.0)),
)
kb_ops = st.one_of(
    submits,
    submits,
    st.tuples(
        st.just("reuse"),
        st.sampled_from(APP_IDS),
        st.sampled_from(REUSE_NAMES),
        st.lists(st.sampled_from(sorted(REUSED)), min_size=1, max_size=3, unique=True),
    ),
    st.tuples(st.just("qos"), st.sampled_from(NAMES), st.integers(0, 2)),
    st.tuples(st.just("delete"), st.sampled_from(NAMES)),
    st.tuples(st.just("drop"), picks),
    *[st.tuples(st.just("decide"), picks, picks, rarely)] * 3,
    *[st.tuples(st.just("beat"), picks, st.sampled_from(("healthy", "failed")), rarely)] * 2,
    st.tuples(st.just("requeue"), picks, rarely),
)


def command_for(kb: KnowledgeBase, op: tuple):
    """The KB command ``op`` stands for in the state of ``kb``."""
    kind = op[0]
    if kind == "submit":
        _, app_id, name, comps, at = op
        components = tuple((c, *COMPONENTS[c]) for c in comps)
        return SubmitApplication(app_id, name, (), QoSVector(), components, at)
    if kind == "qos":
        return UpdateQoS(op[1], QoSVector(energy=op[2]), 2.0)
    if kind == "delete":
        return DeleteApplication(op[1])
    if kind == "reuse":  # other manifests under an app id that may be in use
        _, app_id, name, comps = op
        components = tuple((c, *REUSED[c]) for c in comps)
        return SubmitApplication(app_id, name, (), QoSVector(), components, 1.5)
    if kind == "drop":  # delete a live application, whatever its name
        apps = list(kb.applications.values())
        return DeleteApplication(apps[op[1] % len(apps)].name if apps else "nobody")
    comps = [(app, comp) for app in kb.applications.values() for comp in app.components]
    if kind == "decide":
        _, pick, cluster_pick, stale = op
        pending = [(a, c) for a, c in comps if c.status == ComponentStatus.PENDING] or comps
        if not pending:
            return DeleteApplication("nobody")
        app, comp = pending[pick % len(pending)]
        cids = [cid for cid, rec in kb.clusters.items() if rec.domain == comp.target_domain]
        cid = cids[cluster_pick % len(cids)]
        return RecordDecision(app.app_id, comp.name, cid, ("w1",), 3.0, 1, app.version - stale)
    placed = [(a, c) for a, c in comps if c.decision is not None] or comps
    if not placed:
        return DeleteApplication("nobody")
    app, comp = placed[op[1] % len(placed)]
    if kind == "beat":
        _, _, status, elsewhere = op
        cid = comp.decision.cluster_id if comp.decision and not elsewhere else CLUSTER_IDS[0]
        return RecordHeartbeat(app.app_id, comp.name, cid, app.version, status, 4.0)
    return RequeueComponent(app.app_id, comp.name, app.version - op[2], "stalled")


def poll_service(kb: KnowledgeBase) -> RlaService:
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    return RlaService(RlaConfig(rla_id=0), node=node, kb=kb)


def registered_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    for ip, domain in CLUSTER_IPS:
        kb.apply(RegisterCluster(ip, domain, 0.0))
    return kb


def assert_reads_match_the_scans(kb: KnowledgeBase, oracle_kb: KnowledgeBase) -> None:
    service = poll_service(kb)
    for cid in CLUSTER_IDS:
        assert service.poll_applications(cid) == oracle_poll(oracle_kb, cid)
    for name in NAMES + REUSE_NAMES:
        assert kb.live_application(name) == oracle_live_application(oracle_kb, name)
    assert kb.pending_components() == oracle_pending(oracle_kb)
    # Decisions are stamped 3.0 and heartbeats 4.0, so this grace stalls
    # only the components that were never beaten.
    stalled, floor = kb.stalled_components(now=4.5, grace=1.0)
    assert stalled == oracle_stalled(oracle_kb, now=4.5, grace=1.0)
    active = [
        comp.last_heartbeat if comp.last_heartbeat is not None else comp.decision.decided_at
        for app in oracle_kb.applications.values()
        for comp in app.components
        if comp.status in (ComponentStatus.SCHEDULED, ComponentStatus.HEALTHY,
                           ComponentStatus.PROGRESSING)
    ]
    assert floor == min([4.5, *active])


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(kb_ops, min_size=10, max_size=50), split=st.integers(0, 50))
def test_poll_and_lookup_match_the_full_scans_also_after_restore(ops, split):
    kb = registered_kb()
    for op in ops[:split]:
        kb.apply(command_for(kb, op))
        assert_reads_match_the_scans(kb, kb)
    blob = kb.snapshot_state()
    restored = KnowledgeBase.restore(blob)
    assert restored.snapshot_state() == blob
    # The rebuilt indexes equal the kept ones.
    assert restored._scheduled == kb._scheduled and restored._pending == kb._pending
    assert restored._derived == {}  # placeholder domains are computed again
    assert_reads_match_the_scans(restored, kb)
    for op in ops[split:]:
        cmd = command_for(kb, op)
        assert kb.apply(cmd) == restored.apply(cmd)
        assert_reads_match_the_scans(kb, kb)
        assert_reads_match_the_scans(restored, kb)
    assert restored == kb and restored._scheduled == kb._scheduled
    assert restored._pending == kb._pending


def test_a_poll_of_a_cluster_with_nothing_scheduled_visits_no_application():
    kb = registered_kb()
    edge, _, fog = CLUSTER_IDS
    for i in range(20):
        kb.apply(
            SubmitApplication(
                f"id{i}", f"app{i}", (), QoSVector(), (("x", *COMPONENTS["x"]),), float(i)
            )
        )
        kb.apply(RecordDecision(f"id{i}", "x", edge, ("w1",), 3.0, 1, 1))
    kb.applications = CountingDict(kb.applications)
    service = poll_service(kb)
    assert service.poll_applications(fog) == []
    assert kb.applications.reads == 0
    assert len(service.poll_applications(edge)) == 20
    # Heartbeats move every component out of Scheduled: polls read nothing again.
    for i in range(20):
        kb.apply(RecordHeartbeat(f"id{i}", "x", edge, 1, "healthy", 4.0))
    kb.applications.reads = 0
    assert service.poll_applications(edge) == service.poll_applications(fog) == []
    assert kb.applications.reads == 0


def test_polls_compute_each_placeholder_set_once_and_encode_nothing(monkeypatch):
    kb = registered_kb()
    edge, _, fog = CLUSTER_IDS
    n, k = 20, 5
    for i in range(n):
        kb.apply(
            SubmitApplication(
                f"id{i}", f"app{i}", (), QoSVector(), (("x", *COMPONENTS["x"]),), float(i)
            )
        )
        kb.apply(RecordDecision(f"id{i}", "x", edge, ("w1",), 3.0, 1, 1))
    computed = []

    def counted(manifest):
        computed.append(manifest)
        return placeholder_domains(manifest)

    monkeypatch.setattr(service_module, "placeholder_domains", counted)
    service = poll_service(kb)
    for _ in range(k):
        assert len(service.poll_applications(edge)) == n
    assert len(computed) == n

    assert service.poll_applications(edge) == oracle_poll(kb, edge)
    dumps, real_dumps = [], json.dumps

    def counted_dumps(*args, **kwargs):
        dumps.append(args)
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted_dumps)
    assert len(service.poll_applications(edge)) == n
    assert dumps == []

    # A reused app id and a delete drop what was computed for the record.
    kb.apply(SubmitApplication("id0", "again", (), QoSVector(), (("x", *REUSED["x"]),), 0.5))
    kb.apply(DeleteApplication("app1"))
    assert set(kb._derived) == {f"id{i}" for i in range(2, n)}
    kb.apply(RecordDecision("id0", "x", edge, ("w1",), 3.0, 1, 1))
    computed.clear()
    assert service.poll_applications(edge) == oracle_poll(kb, edge)
    assert len(computed) == 1

    # An app with components on two clusters: across both clusters' polls,
    # each component's set is computed once.
    pair = (("x", *COMPONENTS["x"]), ("y", *COMPONENTS["y"]))
    kb.apply(SubmitApplication("pair", "pair", (), QoSVector(), pair, 9.0))
    kb.apply(RecordDecision("pair", "x", edge, ("w1",), 9.0, 1, 1))
    kb.apply(RecordDecision("pair", "y", fog, ("w1",), 9.0, 1, 1))
    computed.clear()
    for _ in range(k):
        for cluster_id in (edge, fog):
            assert service.poll_applications(cluster_id) == oracle_poll(kb, cluster_id)
    assert computed == [manifest for _, _, manifest in pair]


# ---------------------------------------------------------------------------
# Scheduler tick
# ---------------------------------------------------------------------------

GRACE, TICK = 30.0, 5.0


class _Node:
    """A Raft node stand-in whose role and term the test sets."""

    def __init__(self) -> None:
        self.role = Role.LEADER
        self.current_term = 1
        self.leader_id = 0
        self.snapshot = None


class _TickLeader:
    """A leader service over its own KB. A proposal commits at once, unless
    held: then it fails, and ``release`` commits every held entry later, as
    when a deposed leader's entries commit under its successor."""

    def __init__(self) -> None:
        self.now = 0.0
        self.node = _Node()
        config = RlaConfig(
            rla_id=0,
            tick_period=TICK,
            grace_period=GRACE,
            snapshot_staleness=1e9,
            telemetry_flush=0.0,  # every pump flushes before it schedules
        )
        self.kb = registered_kb()
        self.service = RlaService(config, node=self.node, kb=self.kb, clock=lambda: self.now)
        self.service.proposer = self._propose
        self.held: list[str] | None = None
        self.apps = 0
        for cid in CLUSTER_IDS:
            node = {
                "node_name": "w1", "ready": True, "schedulable": True, "pressured": False,
                "energy": 1.0, "pricing": 1.0, "cpu": 4.0, "memory": 8.0,
                "bandwidth": 1.0, "storage": 10.0, "role": "worker",
            }
            self.kb.apply(PutNodeSnapshot(cid, (node,), taken_at=0.0))
        for _ in range(2):
            self.submit()

    def _propose(self, raw: str):
        if self.held is not None:
            self.held.append(raw)
            return None
        return self._commit(raw)

    def _commit(self, raw: str):
        entry = decode_command(raw)
        members = entry.commands if isinstance(entry, Batch) else (entry,)
        return [self.kb.apply(m) for m in members]

    def submit(self) -> None:
        self.apps += 1
        components = tuple((c, *COMPONENTS[c]) for c in ("x", "y"))
        self.kb.apply(
            SubmitApplication(
                f"id{self.apps}", f"app{self.apps}", (), QoSVector(), components, self.now
            )
        )

    def placed(self):
        return [
            (app, comp)
            for app in self.kb.applications.values()
            for comp in app.components
            if comp.decision is not None
        ]

    def run(self, op: tuple) -> None:
        kind = op[0]
        if kind in ("wait", "advance"):  # a negative step is a clock stepping back
            self.now += op[1]
            if kind == "advance":
                self.service.pump(self.now)
        elif kind == "beat":
            placed = self.placed()
            if placed:
                app, comp = placed[op[1] % len(placed)]
                self.service.heartbeat(
                    app.app_id, comp.name, comp.decision.cluster_id, app.version, op[2]
                )
        elif kind == "beat-all":
            for app, comp in self.placed():
                self.service.heartbeat(
                    app.app_id, comp.name, comp.decision.cluster_id, app.version, "healthy"
                )
        elif kind == "submit":
            self.submit()
        elif kind == "qos":
            apps = list(self.kb.applications.values())
            try:
                self.service.update_qos(apps[op[1] % len(apps)].name, {"energy": 1.0})
            except UnavailableError:
                pass
        elif kind == "hold":
            self.held = self.held or []
        elif kind == "release":
            held, self.held = self.held or [], None
            for raw in held:
                self._commit(raw)
        elif kind == "term":  # a new term: this node leads again
            self.node.current_term += 1
        elif kind == "depose":  # a pump as follower, then leading a new term
            self.node.role = Role.FOLLOWER
            self.service.pump(self.now)
            self.node.role = Role.LEADER
            self.node.current_term += 1


tick_ops = st.lists(
    st.one_of(
        *[st.tuples(st.just("advance"), st.sampled_from((1.0, 2.0, 3.0, 5.0, 7.0, 12.0)))] * 4,
        st.tuples(st.just("advance"), st.sampled_from((-0.5, -3.0, -20.0, -60.0))),
        st.tuples(st.just("wait"), st.sampled_from((0.5, 4.0, -3.0))),
        *[st.tuples(st.just("beat"), picks, st.sampled_from(("healthy", "progressing",
                                                              "failed")))] * 2,
        *[st.tuples(st.just("beat-all"))] * 2,
        st.tuples(st.just("submit")),
        st.tuples(st.just("qos"), picks),
        st.tuples(st.just("hold")),
        st.tuples(st.just("release")),
        st.tuples(st.just("term")),
        st.tuples(st.just("depose")),
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=tick_ops)
# A decision of the previous term commits after the new lease's first scan:
# its reference is the lease start, earlier than that scan's floor.
@example([
    ("advance", 5.0), ("beat-all",), ("submit",), ("hold",), ("advance", 5.0),
    ("term",), ("advance", 1.0), ("wait", 4.0), ("beat-all",), ("advance", 0.0),
    ("release",), *[("advance", 5.0)] * 7,
])
# Components beaten every 10 s; then the clock steps back below the last
# scan's floor, and a beat there sets a reference earlier than that floor.
@example([
    ("advance", 5.0), ("beat-all",), *[("advance", 5.0), ("advance", 5.0), ("beat-all",)] * 10,
    ("advance", -60.0), ("beat", 0, "healthy"), *[("advance", 5.0)] * 14,
])
# As above, but the stepped-back beat is a status change that commits only
# after the next scan, moving the replicated time back under that scan.
@example([
    ("advance", 5.0), ("beat-all",), *[("advance", 5.0), ("advance", 5.0), ("beat-all",)] * 10,
    ("beat", 0, "progressing"), ("advance", 0.0), ("hold",), ("advance", -60.0),
    ("beat", 0, "healthy"), ("advance", 0.0), *[("advance", 5.0)] * 13, ("release",),
    *[("advance", 5.0)] * 2,
])
def test_a_leaders_requeues_at_every_tick_equal_the_full_scans(ops):
    leader = _TickLeader()
    ticks = []
    tick = service_module.scheduler_tick

    def checked_tick(kb, **kwargs):
        now, lease = kwargs["now"], kwargs["lease"]
        seen, start = lease.seen, lease.start
        stalled = oracle_stalled(kb, now, kwargs["grace_period"], seen, start)
        pending = oracle_pending(kb)
        commands = tick(kb, **kwargs)
        ticks.append(
            (
                [(c.app_id, c.component) for c in commands if isinstance(c, RequeueComponent)],
                [(c.app_id, c.component) for c in commands if isinstance(c, RecordDecision)],
                [(app.app_id, comp.name) for app, comp in stalled],
                [(app.app_id, comp.name) for app, comp in pending],
            )
        )
        return commands

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "scheduler_tick", checked_tick)
        for op in ops:
            leader.run(op)
    for requeued, decided, stalled, pending in ticks:
        assert requeued == stalled
        assert decided == pending  # every domain has an eligible node


# The ``steady`` fleet: 300 bookinfo apps on the default testbed with 30
# workers per cluster, under telemetry only.
STEADY_APPS, STEADY_WORKERS, WINDOW = 300, 30, 100.0


def test_a_settled_federations_ticks_read_no_application_and_rarely_scan(monkeypatch):
    spec = TestbedSpec(
        clusters=[replace(c, workers=STEADY_WORKERS) for c in default_clusters()], seed=7
    )
    dep = Deployment(spec)
    dep.boot()
    client = dep.client()
    names = [f"app-{i}" for i in range(STEADY_APPS)]
    for name in names:
        client.submit_application(bookinfo_bundle(name))
    assert dep.run_until(
        lambda: all(
            c.status == ComponentStatus.HEALTHY
            for name in names
            for c in dep.kb().live_application(name).components
        ),
        60.0,
    )
    dep.run(spec.ra_heartbeat_period / 2)
    leader = dep.leader_service()
    kb = leader.kb
    kb.applications = CountingDict(kb.applications)
    counts = {"ticks": 0, "stall scans": 0, "pending reads": 0}
    tick, stalled, pending = (
        service_module.scheduler_tick,
        KnowledgeBase.stalled_components,
        KnowledgeBase.pending_components,
    )

    def counted_tick(*args, **kwargs):
        counts["ticks"] += 1
        return tick(*args, **kwargs)

    def counted_stalled(self, *args, **kwargs):
        counts["stall scans"] += self is kb
        return stalled(self, *args, **kwargs)

    def counted_pending(self):
        reads = kb.applications.reads
        out = pending(self)
        counts["pending reads"] += kb.applications.reads - reads
        return out

    monkeypatch.setattr(service_module, "scheduler_tick", counted_tick)
    monkeypatch.setattr(KnowledgeBase, "stalled_components", counted_stalled)
    monkeypatch.setattr(KnowledgeBase, "pending_components", counted_pending)
    bound = math.ceil(WINDOW / (spec.grace_period - spec.ra_heartbeat_period)) + 1
    for _ in range(2):
        counts.update({"ticks": 0, "stall scans": 0})
        dep.run(WINDOW)
        assert dep.leader_service() is leader
        assert counts["ticks"] == WINDOW / spec.tick_period
        assert counts["stall scans"] <= bound
    assert counts["pending reads"] == 0
    assert not any(e.kind == "kb-component-requeued" for e in dep.events.events)


# ---------------------------------------------------------------------------
# REST dispatch
# ---------------------------------------------------------------------------


class EchoService:
    """Refuses every call with its name and arguments, so that a reply
    names the route a request reached and the parameters it parsed. Its
    ``kb`` is itself, so a route that reads the KB is refused alike."""

    @property
    def kb(self):
        return self

    def __getattr__(self, name):
        def call(*args, **kwargs):
            raise NotFoundError(repr((name, args, sorted(kwargs.items()))))

        return call


# Every route's method, in any letter case, and arbitrary text.
any_case = st.sampled_from(sorted({m for m, _, _ in RestApi._routes} | {"PATCH"})).flatmap(
    lambda m: st.tuples(*[st.sampled_from((c, c.lower())) for c in m]).map("".join)
)
segment_text = st.text(st.characters(blacklist_characters="/"), min_size=1, max_size=8)
separators = st.sampled_from(("/", "/", "/", "//"))


@st.composite
def route_paths(draw) -> str:
    """A route's shape with random segments, or random segments, maybe behind
    an unknown prefix, joined by single or doubled slashes, with or without
    a leading and a trailing slash; or a path of slashes only."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(("", "/", "//", "///")))
    if draw(st.booleans()):
        _, pattern, _ = draw(st.sampled_from(RestApi._routes))
        segments = [
            draw(segment_text) if name is not None or not draw(st.integers(0, 4)) else literal
            for name, literal in pattern
        ]
    else:
        segments = draw(st.lists(st.sampled_from(("clusters", "applications")) | segment_text,
                                 max_size=6))
    if draw(st.integers(0, 4)) == 0:
        segments = draw(st.lists(segment_text, min_size=1, max_size=2)) + segments
    path = "".join(draw(separators) + s for s in segments)
    if draw(st.integers(0, 4)) == 0:
        path = path[1:]  # no leading slash
    if draw(st.integers(0, 4)) == 0:
        path += draw(separators)
    return path


request_bodies = st.sampled_from(
    (None, {}, [1], {"version": 2, "cluster_id": "c", "status": "healthy"}, {"nodes": []},
     {"qos": {"energy": 1.0}}, {"external_ip": "10.0.0.9", "domain": "fog"})
)


@settings(max_examples=500, deadline=None)
@given(method=any_case | st.text(max_size=6), path=route_paths(), body=request_bodies)
def test_dispatch_matches_the_route_table_scan(method, path, body):
    api = RestApi(EchoService())
    assert api.dispatch(method, path, body) == oracle_dispatch(api, method, path, body)
