"""Heartbeats as leases: what the leader logs, and when it requeues.

The property drives ``RlaService`` and the log-every-heartbeat oracle
(``lease_oracles.EveryBeatService``) through the same heartbeat schedule
under one stable leader and compares every requeue. The engine tests kill
the leader: a live component must survive the change, and a dead one must
still be requeued within one grace period of the new lease.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lease_oracles import EveryBeatService
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb import (
    Batch,
    KnowledgeBase,
    PutNodeSnapshot,
    QoSVector,
    RegisterCluster,
    SubmitApplication,
)
from qonnect.kb.commands import RecordHeartbeat, RequeueComponent, decode_command
from qonnect.kb.model import ComponentStatus, Domain
from qonnect.kb.store import HEARTBEAT_STATUS
from qonnect.raft.node import Role
from qonnect.rla import RlaConfig, RlaService

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
                components=tuple((name, Domain.EDGE, {"objects": []}) for name in COMPONENTS),
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
        for comp in leased.service.kb.applications["app"].components:
            if comp.status == ComponentStatus.PENDING:
                assert ("app", comp.name) not in leased.service._seen
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
    cluster_id = dep.cluster_id_of(cluster_name)
    return [
        comp
        for app in dep.kb().applications.values()
        for comp in app.components
        if comp.decision is not None and comp.decision.cluster_id == cluster_id
    ]


def test_a_leader_change_just_before_a_refresh_round_requeues_no_live_component():
    # With 10 s heartbeat rounds and a 25 s grace, the leader logs every
    # second round (a refresh is due from 12.5 s), so the replicated time is
    # up to 20 s old. Killing the leader just before a refresh round loses
    # that round to the election, and the next one lands 30 s after the
    # replicated time: a new leader that read only that time would requeue.
    spec = TestbedSpec(grace_period=25.0, seed=31)
    dep = Deployment(spec)
    dep.boot()
    _healthy_fleet(dep, ["leased-a", "leased-b"])
    dep.run(30.0)  # settle into refresh-every-second-round

    def refresh_round_next_step() -> bool:
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

    assert dep.run_until(refresh_round_next_step, 30.0)
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
    dep = Deployment(seed=32)
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


def test_a_settled_federation_logs_at_most_half_of_its_heartbeats():
    dep = Deployment(seed=33)  # the default 9-cluster testbed
    dep.boot()
    _healthy_fleet(dep, ["quiet-a", "quiet-b", "quiet-c"])
    dep.run(30.0)
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
    assert 2 * counts["logged"] <= counts["accepted"]


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
