"""Cross-component invariants checked on whole-engine runs."""

from __future__ import annotations

from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.scenarios import run_all, run_scenario
from qonnect.kb import (
    Batch,
    ComponentStatus,
    Domain,
    RegisterCluster,
    decode_command,
    encode_command,
)
from qonnect.rla import service as service_module

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
    dep = Deployment(seed=20)
    reports = run_all(dep)
    assert [r.verdict for r in reports] == ["pass"] * 4


def test_component_status_transitions_follow_the_machine():
    # Replay every effect log transition from a full back-to-back run.
    dep = Deployment(seed=21)
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
    dep = Deployment(seed=22)
    run_scenario(dep, 1)
    assert_replicas_converge(dep)


def test_empty_kb_serves_empty_cluster_config():
    dep = Deployment(seed=23)  # not booted; nothing registered anywhere
    status, body = dep.apis["rla-0"].dispatch("GET", "/clusters/config")
    assert status == 200 and body["clusters"] == {}


def test_log_compaction_keeps_the_control_plane_running(monkeypatch):
    dep = Deployment(seed=24)
    for service in dep.services.values():
        service.config.compact_every = 40  # force frequent snapshots
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


def test_compaction_waits_until_a_snapshot_worth_of_bytes_was_logged():
    dep = Deployment(seed=27)
    logged = dict.fromkeys(dep.services, 0)
    for rla_id, service in dep.services.items():
        # A low count floor leaves the byte rule to decide when to compact.
        service.config.compact_every = 10

        def apply(index: int, raw: str, rla_id: int = rla_id, service=service) -> None:
            logged[rla_id] += len(raw)
            service.apply_committed(index, raw)

        dep.group.apply_fns[rla_id] = apply
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
    dep = Deployment(seed=25)
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("flushed"))
    assert dep.run_until(
        lambda: (app := dep.kb().live_application("flushed")) is not None
        and all(c.status == ComponentStatus.HEALTHY for c in app.components),
        60.0,
    )
    leader_id = dep.leader_id()
    service, leader = dep.services[leader_id], dep.group.nodes[leader_id]
    service._flush_telemetry()  # start from an empty queue, every replica caught up
    dep.group.pump(leader.broadcast_append())
    for agent in dep.agents.values():
        agent.send_node_snapshot(dep.now)
        agent.report_heartbeats(dep.now)
    pending = list(service._telemetry)
    assert len(pending) == len(dep.agents) + 4  # a snapshot per cluster, a heartbeat per component
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
    dep = Deployment(seed=26)
    dep.boot()
    for service in dep.services.values():
        service.config.compact_every = 1
    monkeypatch.setattr(service_module, "_COMPACT_RATIO", 0)
    leader_id = dep.leader_id()
    service, leader = dep.services[leader_id], dep.group.nodes[leader_id]
    # The awaited entry and the one after it commit together; applying the
    # second compacts the log past the first.
    index = leader.propose(encode_command(RegisterCluster("10.9.9.1", Domain.EDGE, dep.now)))
    service.await_effects(index)
    dep.group.propose(
        leader_id, encode_command(RegisterCluster("10.9.9.2", Domain.EDGE, dep.now))
    )
    assert leader.snapshot_index == index + 1 and leader.term_at(index) is None
    effects = service.take_effects(index, leader.current_term)
    assert [e.kind for e in effects] == ["cluster-registered"]
    assert service.take_effects(index, leader.current_term) is None  # handed over once

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
    dep = Deployment(seed=28)
    dep.boot()
    leader_id = dep.leader_id()
    api, service = dep.apis[f"rla-{leader_id}"], dep.services[leader_id]
    path = f"/clusters/{dep.cluster_id_of('edge-energy')}/nodes"
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
