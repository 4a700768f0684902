"""Cross-component invariants checked on whole-engine runs."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from qonnect.agent.client import RlaClientError
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.scenarios import run_all, run_scenario
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import Batch, RegisterCluster, decode_command, encode_command
from qonnect.kb.model import NODE_METRICS, ComponentStatus, Domain
from qonnect.rla import service as service_module
from qonnect.sim.cluster import DeleteNamespace, NodePressure, WorkloadPhase
from support import cluster_id_of

# Legal component status transitions (None = first appearance).
ALLOWED_TRANSITIONS = {
    (None, "Pending"),
    ("Pending", "Scheduled"),
    ("Scheduled", "Healthy"),
    ("Scheduled", "Progressing"),
    ("Scheduled", "Failed"),
    ("Healthy", "Progressing"),
    ("Healthy", "Failed"),
    ("Progressing", "Healthy"),
    ("Progressing", "Failed"),
    ("Failed", "Healthy"),
    ("Failed", "Progressing"),
    # Requeue (stall or QoS bump) returns active components to Pending.
    ("Scheduled", "Pending"),
    ("Healthy", "Pending"),
    ("Progressing", "Pending"),
    ("Failed", "Pending"),
    # Withdrawal is terminal and allowed from anywhere.
    ("Pending", "Withdrawn"),
    ("Scheduled", "Withdrawn"),
    ("Healthy", "Withdrawn"),
    ("Progressing", "Withdrawn"),
    ("Failed", "Withdrawn"),
}


def test_all_four_scenarios_pass_back_to_back_on_one_deployment():
    dep = Deployment(TestbedSpec(seed=20))
    reports = run_all(dep)
    assert [r.verdict for r in reports] == ["pass"] * 4
    assert not dep.events.matching("agent-error")


def test_a_stopped_rla_is_unreachable_and_clients_reach_the_next_leader():
    dep = Deployment(TestbedSpec(seed=3))
    dep.boot()
    old = dep.leader_id()
    dep.kill_rla(old)
    with pytest.raises(RlaClientError, match=f"^RLA unreachable: rla-{old}$"):
        dep.send(f"rla-{old}", "GET", "/status", None)
    assert dep.run_until(lambda: dep.leader_id() not in (None, old), 10.0)
    app_id = dep.client().submit_application(bookinfo_bundle("after-stop"))
    assert dep.kb().applications[app_id].name == "after-stop"


@pytest.mark.parametrize("rla_id", [3, 7, -1, None])
def test_killing_an_rla_id_that_names_no_rla_raises_and_stops_nothing(rla_id):
    dep = Deployment(TestbedSpec(seed=1))
    dep.boot()
    logged = list(dep.events.events)
    with pytest.raises(KeyError):
        dep.kill_rla(rla_id)
    assert dep.events.events == logged
    assert not dep.group.stopped and len(dep.apis) == len(dep.services) == 3


def test_killing_a_stopped_rla_again_logs_and_stops_nothing():
    dep = Deployment(TestbedSpec(seed=1))
    dep.boot()
    leader = dep.leader_id()
    dep.kill_rla(leader)
    logged, apis = list(dep.events.events), dict(dep.apis)
    dep.kill_rla(leader)
    assert dep.events.events == logged
    assert dep.group.stopped == {leader} and dep.apis == apis


def test_an_agent_that_raises_is_logged_and_the_round_goes_on():
    dep = Deployment(TestbedSpec(seed=1))
    broken, *after = dep.agents.values()
    error = RuntimeError("agent fault")

    def raising(now: float) -> None:
        raise error

    broken.run_due = raising
    dep.step()
    errors = dep.events.matching("agent-error")
    assert [(e.source, e.detail) for e in errors] == [(broken.name, {"error": repr(error)})]
    # No RLA leads yet, so each agent after it tried to register and was refused.
    for agent in after:
        assert dep.events.matching("registration-retry", agent.name)
        assert agent.next_due > dep.now


def test_component_status_transitions_follow_the_machine():
    # Replay every effect log transition from a full back-to-back run.
    dep = Deployment(TestbedSpec(seed=21))
    run_all(dep)
    observed = set()
    for event in dep.events.events:
        if not event.kind.startswith("kb-"):
            continue
        for transition in event.detail.get("transitions", []):
            observed.add((transition["from"], transition["to"]))
    assert observed, "expected transitions to be recorded"
    assert observed <= ALLOWED_TRANSITIONS, observed - ALLOWED_TRANSITIONS


def assert_replicas_converge(dep: Deployment) -> None:
    def caught_up() -> bool:
        nodes = [n for i, n in dep.group.nodes.items() if i not in dep.group.stopped]
        applied = {n.last_applied for n in nodes}
        commits = {n.commit_index for n in nodes}
        return len(applied) == 1 and applied == commits

    assert dep.run_until(caught_up, timeout=10.0)
    blobs = {
        i: service.kb.snapshot_state()
        for i, service in dep.services.items()
        if i not in dep.group.stopped
    }
    assert len(set(blobs.values())) == 1, "replica KBs diverged"


def test_replicas_converge_to_identical_kb_state():
    dep = Deployment(TestbedSpec(seed=22))
    run_scenario(dep, 1)
    assert_replicas_converge(dep)


def test_empty_kb_serves_empty_cluster_config():
    dep = Deployment(TestbedSpec(seed=23))  # not booted; nothing registered anywhere
    status, body = dep.apis["rla-0"].dispatch("GET", "/clusters/config")
    assert status == 200 and body["clusters"] == {}


def test_log_compaction_keeps_the_control_plane_running(monkeypatch):
    dep = Deployment(TestbedSpec(seed=24))
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 10)  # force frequent snapshots
    monkeypatch.setattr(service_module, "_COMPACT_RATIO", 0)
    run_scenario(dep, 1)
    assert any(e.kind == "log-compacted" for e in dep.events.events)
    # Still serving and consistent after compaction.
    dep.client().submit_application(bookinfo_bundle("post-compact", {"energy": 1.0}))
    assert dep.run_until(
        lambda: (app := dep.kb().live_application("post-compact")) is not None
        and all(c.decision is not None for c in app.components),
        60.0,
    )


def test_compaction_waits_until_a_snapshot_worth_of_bytes_was_logged(monkeypatch):
    dep = Deployment(TestbedSpec(seed=27))
    logged = dict.fromkeys(dep.services, 0)
    # A low count floor leaves the byte rule to decide when to compact.
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 10)
    for rla_id, service in dep.services.items():
        def apply(index: int, raw: str, rla_id: int = rla_id, service=service) -> list:
            logged[rla_id] += len(raw)
            return service.apply_committed(index, raw)

        dep.group.replicas[rla_id].machine = SimpleNamespace(
            apply_committed=apply,
            load_snapshot=service.load_snapshot,
            install_snapshot=service.install_snapshot,
        )
    dep.boot()
    for n in range(4):
        dep.client().submit_application(bookinfo_bundle(f"sized{n}"))
    dep.run(120.0)  # twelve agent heartbeat periods

    for rla_id in dep.services:
        compactions = dep.events.matching("log-compacted", source=f"rla-{rla_id}")
        assert len(compactions) >= 2
        smallest = min(e.detail["snapshot_bytes"] for e in compactions)
        assert len(compactions) <= logged[rla_id] // smallest + 1
        for previous, current in zip(compactions, compactions[1:]):
            assert current.detail["logged_bytes"] >= previous.detail["snapshot_bytes"]
            assert current.detail["index"] > previous.detail["index"]
    assert_replicas_converge(dep)


def test_one_telemetry_flush_commits_as_one_log_entry():
    dep = Deployment(TestbedSpec(seed=25))
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("flushed"))
    # Stop as soon as every component is placed and none has been beaten:
    # the first heartbeat after a decision is always logged.
    assert dep.run_until(
        lambda: (app := dep.kb().live_application("flushed")) is not None
        and all(c.status == ComponentStatus.SCHEDULED for c in app.components),
        60.0,
    )
    leader_id = dep.leader_id()
    service, leader = dep.services[leader_id], dep.group.nodes[leader_id]
    service._flush_telemetry()  # start from an empty queue, every replica caught up
    dep.group.pump(leader.broadcast_append())
    # A node report is logged only when it changed: change one node per cluster.
    for name, cluster in dep.clusters.items():
        worker = next(n for n in cluster.nodes if n.role == "worker")
        dep.inject_fault(name, NodePressure(worker.name))
    for agent in dep.agents.values():
        agent.send_node_snapshot(dep.now)
        agent.poll_cluster_config(dep.now)
        agent.poll_and_reconcile(dep.now)
        agent.report_heartbeats(dep.now)
    pending = list(service._telemetry)
    assert len(pending) == len(dep.agents) + 4  # a report per cluster, a heartbeat per component
    before, mark = leader.last_log_index, len(dep.events.events)

    service._flush_telemetry()

    assert leader.last_log_index == before + 1
    assert decode_command(leader.entry_at(before + 1).command) == Batch(tuple(pending))
    dep.group.pump(leader.broadcast_append())  # followers learn the commit
    assert {node.last_applied for node in dep.group.nodes.values()} == {before + 1}
    for rla_id in dep.services:
        applied = [
            e for e in dep.events.events[mark:]
            if e.source == f"rla-{rla_id}" and e.kind.startswith("kb-")
        ]
        assert len(applied) == len(pending)  # one event per member, on every replica
    blobs = {service.kb.snapshot_state() for service in dep.services.values()}
    assert len(blobs) == 1, "replica KBs diverged"


def test_proposer_gets_its_effects_after_compaction_swallowed_the_entry(monkeypatch):
    dep = Deployment(TestbedSpec(seed=26))
    dep.boot()
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 1)
    monkeypatch.setattr(service_module, "_COMPACT_RATIO", 0)
    leader_id = dep.leader_id()
    replica, leader = dep.group.replicas[leader_id], dep.group.nodes[leader_id]
    awaited = []

    def commit_with_the_next(index: int) -> None:
        # The awaited entry and the one after it commit together; applying
        # the second compacts the log past the first.
        dep.group.propose(
            leader_id, encode_command(RegisterCluster("10.9.9.2", Domain.EDGE, dep.now))
        )
        assert leader.snapshot_index == index + 1 and leader.term_at(index) is None
        awaited.append(index)

    effects = replica.propose(
        encode_command(RegisterCluster("10.9.9.1", Domain.EDGE, dep.now)), commit_with_the_next
    )
    assert [e.kind for e in effects] == ["cluster-registered"]
    assert replica.take_effects(awaited[0], leader.current_term) is None  # handed over once

    # Every control write still answers with its effect.
    app_id = dep.client().submit_application(bookinfo_bundle("compacted"))
    assert dep.kb().live_application("compacted").app_id == app_id


GOOD_NODE = {
    "node_name": "edge-energy-w9",
    "ready": True,
    "schedulable": True,
    "pressured": False,
    "energy": 0.002,
    "pricing": 1.0,
    "cpu": 4.0,
    "memory": 8.0,
    "bandwidth": 52.5,
    "storage": 100.0,
}


def test_malformed_node_telemetry_gets_400_and_never_reaches_the_log():
    dep = Deployment(TestbedSpec(seed=28))
    dep.boot()
    leader_id = dep.leader_id()
    api, service = dep.apis[f"rla-{leader_id}"], dep.services[leader_id]
    path = f"/clusters/{cluster_id_of(dep, 'edge-energy')}/nodes"
    bad_nodes = [
        {"bogus": 1},
        {**GOOD_NODE, "energy": -1},
        {**GOOD_NODE, "cpu": "4"},
        {**GOOD_NODE, "taken_at": 1.0},
        "edge-energy-w9",
    ]
    for bad in bad_nodes:
        status, body = api.dispatch("POST", path, {"nodes": [GOOD_NODE, bad]})
        assert status == 400, bad
        assert [e["field"] for e in body["errors"]] == ["nodes[1]"]
    assert service._telemetry == []  # not even the good node was queued

    dep.run(3 * dep.spec.telemetry_flush)  # flushes would apply anything queued
    assert_replicas_converge(dep)
    assert all(name != "edge-energy-w9" for _cid, name in dep.kb().nodes)
    status, _ = api.dispatch("POST", path, {"nodes": [GOOD_NODE]})
    assert status == 200
    # Every report is checked alike: an accepted one before it changes nothing.
    status, _ = api.dispatch("POST", path, {"nodes": [{**GOOD_NODE, "ready": 1}]})
    assert status == 400
    status, _ = api.dispatch("POST", path, {"nodes": [{**GOOD_NODE, "cpu": 4}]})
    assert status == 200
    assert [cmd.nodes for cmd in service._telemetry] == [(GOOD_NODE,), ({**GOOD_NODE, "cpu": 4},)]
    assert type(service._telemetry[-1].nodes[0]["cpu"]) is int  # logged as sent


def test_the_leader_decodes_none_of_its_proposals_and_every_replica_kb_is_equal(monkeypatch):
    dep = Deployment(TestbedSpec(seed=29))
    applied = {i: [] for i in dep.services}  # raw entries each replica applied
    decoded = {i: [] for i in dep.services}  # raw entries each replica decoded
    applying = []  # the replica inside ``apply_committed``
    decode = service_module.decode_command

    def spy(raw: str):
        decoded[applying[-1]].append(raw)
        return decode(raw)

    monkeypatch.setattr(service_module, "decode_command", spy)
    for rla_id, service in dep.services.items():
        def apply(index: int, raw: str, rla_id=rla_id, apply=service.apply_committed) -> list:
            applied[rla_id].append(raw)
            applying.append(rla_id)
            try:
                return apply(index, raw)
            finally:
                applying.pop()

        monkeypatch.setattr(service, "apply_committed", apply)

    dep.boot()
    client = dep.client()
    client.submit_application(bookinfo_bundle("guarded"))

    def running(status: ComponentStatus) -> bool:
        app = dep.kb().live_application("guarded")
        return app is not None and all(c.status == status for c in app.components)

    assert dep.run_until(lambda: running(ComponentStatus.HEALTHY), 90.0)
    client.update_qos("guarded", {"energy": 1.0, "pricing": 0.0, "performance": 0.0})
    assert dep.run_until(lambda: running(ComponentStatus.HEALTHY), 90.0)
    ratings = dep.kb().live_application("guarded").component("ratings")
    dep.kill_ra(dep.cluster_name_by_id(ratings.decision.cluster_id))
    assert dep.run_until(lambda: dep.events.matching("scheduler-component-requeued"), 90.0)
    client.delete_application("guarded")
    assert_replicas_converge(dep)

    leader = dep.leader_id()
    assert len(dep.events.matching("leader-elected")) == 1  # one leader proposed everything
    entries = [decode_command(raw) for raw in applied[leader]]
    kinds = {
        member.kind
        for entry in entries
        for member in (entry.commands if isinstance(entry, Batch) else (entry,))
    }
    assert kinds == {
        "register-cluster", "put-node-snapshot", "record-heartbeat", "submit-application",
        "update-qos", "delete-application", "record-decision", "requeue-component",
    }
    assert decoded[leader] == []
    for follower in set(dep.services) - {leader}:
        assert decoded[follower] == applied[follower] == applied[leader]
        # Objects, not snapshot bytes: those would hide a tuple that is a list.
        assert dep.services[follower].kb == dep.services[leader].kb


def test_node_attributes_that_are_not_finite_get_400():
    dep = Deployment(TestbedSpec(seed=28))
    dep.boot()
    leader_id = dep.leader_id()
    service = dep.services[leader_id]
    path = f"/clusters/{cluster_id_of(dep, 'edge-energy')}/nodes"
    service._telemetry.clear()
    for attr in NODE_METRICS:
        for value in (float("nan"), float("inf"), float("-inf"), 10**400):
            body = {"nodes": [GOOD_NODE, {**GOOD_NODE, attr: value}]}
            status, answer = dep.send(f"rla-{leader_id}", "POST", path, body)
            assert status == 400, (attr, value)
            # -inf is refused as negative, before it is tested for finiteness.
            rule = "non-negative" if value == float("-inf") else "finite"
            assert answer["errors"] == [
                {"field": "nodes[1]", "error": f"node attribute {attr} must be {rule}"}
            ]
    assert service._telemetry == []


def _running(dep: Deployment, name: str) -> bool:
    """Every component of ``name`` Healthy in the KB and Ready on its host."""
    app = dep.kb().live_application(name)
    if app is None:
        return False
    for comp in app.components:
        if comp.status != ComponentStatus.HEALTHY or comp.decision is None:
            return False
        host = dep.clusters[dep.cluster_name_by_id(comp.decision.cluster_id)]
        workload = host.workload_state(name, comp.name)
        if workload is None or workload.phase != WorkloadPhase.READY:
            return False
    return True


def test_an_app_deleted_and_submitted_again_at_once_runs_and_keeps_running():
    # The new app id applies into the namespace its old id still records on
    # each host; the old id's heartbeat-404 cleanup must not take it away.
    dep = Deployment(TestbedSpec(seed=7))
    dep.boot()
    client = dep.client()
    client.submit_application(bookinfo_bundle("shop"))
    assert dep.run_until(lambda: _running(dep, "shop"), 60.0)
    client.delete_application("shop")
    client.submit_application(bookinfo_bundle("shop"))
    dep.run(60.0)
    assert _running(dep, "shop")
    dep.run(240.0)
    assert _running(dep, "shop")


def test_a_deleted_namespace_is_applied_again_on_the_same_cluster_without_a_requeue():
    dep = Deployment(TestbedSpec(seed=7))
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("shop"))
    assert dep.run_until(lambda: _running(dep, "shop"), 60.0)
    ratings = dep.kb().live_application("shop").component("ratings").decision
    host = dep.cluster_name_by_id(ratings.cluster_id)
    hosted = sorted(
        c.name for c in dep.kb().live_application("shop").components
        if c.decision.cluster_id == ratings.cluster_id
    )
    seen = len(dep.events.events)
    deleted_at = dep.now
    dep.inject_fault(host, DeleteNamespace("shop"))

    def ratings_ready() -> bool:
        workload = dep.clusters[host].workload_state("shop", "ratings")
        return workload is not None and workload.phase == WorkloadPhase.READY

    period, rollout = dep.spec.ra_heartbeat_period, dep.spec.rollout_latency
    # One engine step of slack: duties and rollouts land on step boundaries.
    assert dep.run_until(ratings_ready, period + rollout + dep.DT)
    assert dep.run_until(
        lambda: _running(dep, "shop"), 2 * period + rollout + dep.DT - (dep.now - deleted_at)
    )
    app = dep.kb().live_application("shop")
    assert app.component("ratings").decision == ratings
    fresh = dep.events.events[seen:]
    assert sorted(e.detail["component"] for e in fresh if e.kind == "reapplied") == hosted
    assert all(e.source == f"ra-{host}" for e in fresh if e.kind == "reapplied")
    assert not [e for e in fresh if e.kind == "scheduler-component-requeued"]
