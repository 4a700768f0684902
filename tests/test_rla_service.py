"""RLA REST behavior: routing, validation, redirects, poll/heartbeat protocol."""

from __future__ import annotations

import json

import pytest

from qonnect import codec
from qonnect.agent.ra import substitute_placeholders
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import KBCommand, RegisterCluster, decode_command, encode_command
from qonnect.kb.model import ComponentStatus, Domain
from qonnect.kb.store import KnowledgeBase
from qonnect.raft.messages import AppendRequest, LogEntry, SnapshotRequest, VoteResponse
from qonnect.raft.node import RaftConfig, RaftNode, Role
from qonnect.raft.replica import Replica
from qonnect.raft.simulation import SyncRaftGroup
from qonnect.raft.storage import FileStorage, MemoryStorage, RaftStorage
from qonnect.rla import service as service_module
from qonnect.rla.config import RlaConfig
from qonnect.rla.service import RlaService, UnavailableError
from qonnect.rla.validation import MAX_MANIFEST_DEPTH
from support import cluster_id_of


@pytest.fixture()
def dep() -> Deployment:
    deployment = Deployment(TestbedSpec(seed=5))
    deployment.boot()
    return deployment


def leader_api(dep: Deployment):
    return dep.apis[f"rla-{dep.leader_id()}"]


def follower_api(dep: Deployment):
    follower = next(
        i for i, n in dep.group.nodes.items()
        if n.role != Role.LEADER and i not in dep.group.stopped
    )
    return dep.apis[f"rla-{follower}"]


def test_register_is_idempotent_and_validates_ip(dep):
    api = leader_api(dep)
    status, first = api.dispatch(
        "POST", "/clusters/register", {"external_ip": "10.9.0.1", "domain": "edge"}
    )
    assert status == 200
    status, second = api.dispatch(
        "POST", "/clusters/register", {"external_ip": "10.9.0.1", "domain": "edge"}
    )
    assert status == 200 and second["cluster_id"] == first["cluster_id"]

    status, body = api.dispatch(
        "POST", "/clusters/register", {"external_ip": "not-an-ip", "domain": "edge"}
    )
    assert status == 400 and body["errors"][0]["field"] == "external_ip"
    status, body = api.dispatch(
        "POST", "/clusters/register", {"external_ip": "10.9.0.2", "domain": "space"}
    )
    assert status == 400


def test_a_scoped_ipv6_ip_is_served_as_registered_and_substituted_as_one_value(dep):
    """A scope id may hold quotes and backslashes; an agent's substitution
    must still give the ip as registered, as one JSON string value."""
    api = leader_api(dep)
    hostile = 'fe80::1%","replicas":99,"x":"\\'
    status, body = api.dispatch(
        "POST", "/clusters/register", {"external_ip": hostile, "domain": "edge"}
    )
    assert status == 200
    cid = body["cluster_id"]
    status, body = api.dispatch("GET", "/clusters/config")
    assert status == 200 and body["clusters"][cid] == hostile

    text = codec.dumps({"objects": [{"env": {"URL": "http://{{QONNECT_EDGE_IP}}/x"}}]})
    resolved = substitute_placeholders(text, {"edge": cid}, body["clusters"])
    assert json.loads(resolved) == {"objects": [{"env": {"URL": f"http://{hostile}/x"}}]}


def test_writes_on_follower_redirect_with_leader_hint(dep):
    api = follower_api(dep)
    status, body = api.dispatch(
        "POST", "/clusters/register", {"external_ip": "10.9.0.3", "domain": "fog"}
    )
    assert status == 307
    assert body["leader"] == dep.leader_id()
    assert body["leader_address"] == f"rla-{dep.leader_id()}"


def test_no_leader_yields_503():
    fresh = Deployment(TestbedSpec(seed=11))  # not booted: no leader yet
    status, body = fresh.apis["rla-0"].dispatch(
        "POST", "/clusters/register", {"external_ip": "10.9.0.4", "domain": "fog"}
    )
    assert status == 503 and body["error"] == "no-leader"


def test_cluster_config_has_all_clusters_and_followers_serve_reads(dep):
    status, body = leader_api(dep).dispatch("GET", "/clusters/config")
    assert status == 200 and len(body["clusters"]) == 9
    dep.run(0.5)  # let follower apply indexes catch up
    status, follower_body = follower_api(dep).dispatch("GET", "/clusters/config")
    assert status == 200 and follower_body["clusters"] == body["clusters"]


def test_node_snapshot_unknown_cluster_404_and_control_plane_flagged(dep):
    api = leader_api(dep)
    status, _ = api.dispatch(
        "POST", "/clusters/00000000-0000-0000-0000-000000000000/nodes", {"nodes": []}
    )
    assert status == 404

    cid = cluster_id_of(dep, "cloud-energy")
    node = {
        "node_name": "sneaky-control-plane", "ready": True, "schedulable": True,
        "pressured": False, "energy": 0.1, "pricing": 0.1, "cpu": 1, "memory": 1,
        "bandwidth": 1, "storage": 1, "role": "control-plane",
    }
    status, ack = api.dispatch("POST", f"/clusters/{cid}/nodes", {"nodes": [node]})
    assert status == 200
    assert any("control-plane-node-reported" in f for f in ack["flags"])
    dep.run(1.5)  # telemetry flush
    assert (cid, "sneaky-control-plane") in dep.kb().nodes


def test_a_repeated_node_report_gets_the_same_answer_and_is_queued_once(dep, monkeypatch):
    api, service = leader_api(dep), dep.services[dep.leader_id()]
    checked = []
    check = service_module._check_report
    monkeypatch.setattr(
        service_module, "_check_report", lambda *args: checked.append(1) or check(*args)
    )
    cid = cluster_id_of(dep, "cloud-energy")
    node = {
        "node_name": "cp", "ready": True, "schedulable": True, "pressured": False,
        "energy": 0.1, "pricing": 1.0, "cpu": 1.0, "memory": 1.0, "bandwidth": 1.0,
        "storage": 1.0, "role": "control-plane",
    }
    service._telemetry.clear()
    path = f"/clusters/{cid}/nodes"
    sent = [{"nodes": [dict(node)]} for _ in "ab"]
    answers = [api.dispatch("POST", path, body) for body in sent]
    flags = ["control-plane-node-reported:cp"]
    assert answers[0] == answers[1] == (200, {"accepted": 1, "flags": flags})
    assert len(checked) == 1  # the identical second report is not decoded again
    assert [cmd.nodes for cmd in service._telemetry] == [(node,)]  # nor queued
    assert service._telemetry[0].nodes[0] is sent[0]["nodes"][0]
    # Equal values of other types are different reports, checked and queued
    # on their own, and so is the report that undoes such a change.
    for changes, status in (({"pricing": True}, 400), ({"pricing": 1}, 200), ({}, 200)):
        assert api.dispatch("POST", path, {"nodes": [{**node, **changes}]})[0] == status
    assert len(checked) == 4
    assert [type(cmd.nodes[0]["pricing"]) for cmd in service._telemetry] == [float, int, float]


def test_submit_validation_errors_are_field_level(dep):
    api = leader_api(dep)
    bundle = bookinfo_bundle("bookinfo")
    bundle["components"][0]["objects"][2]["path"] = "/wrongname/productpage"
    status, body = api.dispatch("POST", "/applications", bundle)
    assert status == 400
    assert any("ingress path" in e["error"] for e in body["errors"])

    for domain in ("space", ["fog"], {"fog": 1}):  # a list or an object is no domain either
        bundle = bookinfo_bundle("bookinfo")
        bundle["components"][1]["domain"] = domain
        status, body = api.dispatch("POST", "/applications", bundle)
        assert status == 400
        assert any("unknown domain" in e["error"] for e in body["errors"])

    status, body = api.dispatch("POST", "/applications", {"components": []})
    assert status == 400


def test_a_refused_component_still_counts_as_its_domains_target(dep):
    # Reviews' manifest names the cloud domain, which only productpage
    # targets; productpage's bad path is the bundle's one error.
    bundle = bookinfo_bundle("shop")
    bundle["components"][0]["objects"][2]["path"] = "/wrong/x"
    status, body = leader_api(dep).dispatch("POST", "/applications", bundle)
    assert status == 400
    assert [e["field"] for e in body["errors"]] == ["components[0].objects"]
    assert "ingress path" in body["errors"][0]["error"]


NOT_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "1e400": 10**400}


def test_qos_weights_that_are_not_finite_are_400_on_submit_and_update(dep):
    leader = f"rla-{dep.leader_id()}"
    status, _ = dep.send(leader, "POST", "/applications", bookinfo_bundle("bookinfo"))
    assert status == 201
    for weight in ("energy", "pricing", "performance"):
        for i, (label, value) in enumerate(NOT_FINITE.items()):
            bundle = bookinfo_bundle(f"app-{weight}-{i}")
            bundle["application"]["qos"] = {weight: value}
            status, body = dep.send(leader, "POST", "/applications", bundle)
            assert status == 400, (weight, label)
            assert [e["field"] for e in body["errors"]] == ["application.qos"]

            status, body = dep.send(
                leader, "PUT", "/applications/bookinfo/qos", {"qos": {weight: value}}
            )
            assert status == 400, (weight, label)
            assert [e["field"] for e in body["errors"]] == ["qos"]
    assert [app.name for app in dep.kb().applications.values()] == ["bookinfo"]
    assert dep.kb().live_application("bookinfo").version == 1


def one_component_bundle(name: str, domain: str, env: dict) -> dict:
    return {
        "application": {"name": name},
        "components": [
            {
                "component": "web",
                "domain": domain,
                "objects": [
                    {"kind": "Deployment", "name": "web", "env": env},
                    {"kind": "Ingress", "name": "web", "path": f"/{name}/web"},
                ],
            }
        ],
    }


def test_a_placeholder_no_component_can_resolve_is_400_on_submit(dep):
    # No edge component: no agent could ever substitute the edge address.
    leader = f"rla-{dep.leader_id()}"
    for i, token in enumerate(("{{QONNECT_EDGE_IP}}", "{{QONNECT_MARS_IP}}")):
        bundle = one_component_bundle(f"lone-{i}", "cloud", {"PEER": f"http://{token}/x"})
        status, body = dep.send(leader, "POST", "/applications", bundle)
        assert status == 400, token
        assert [e["field"] for e in body["errors"]] == ["components[0].objects"]
        assert token in body["errors"][0]["error"]
    # An in-process body is not encoded before submit: objects the log cannot
    # hold as they are (a set, keys that are not strings, a number JSON has no
    # value for) are a 400 too, not an exception out of the proposal.
    # Keys that are not strings are refused too, as no JSON body holds them.
    unencodable = (
        {"PORTS": {80, 443}},
        {1: "a", "b": "c"},
        {-1: None, -2: None},
        {"ids": {9: 1, 10: 2}},
        {"RATIO": float("nan")},
    )
    for env in unencodable:
        bundle = one_component_bundle("unencodable", "cloud", env)
        status, body = dep.send(leader, "POST", "/applications", bundle)
        assert status == 400, env
        assert [e["field"] for e in body["errors"]] == ["components[0].objects"]
    # A placeholder naming its own or a sibling's domain is accepted.
    bundle = one_component_bundle("own", "cloud", {"SELF": "{{QONNECT_CLOUD_IP}}"})
    assert dep.send(leader, "POST", "/applications", bundle)[0] == 201
    assert dep.send(leader, "POST", "/applications", bookinfo_bundle("shop"))[0] == 201
    assert sorted(app.name for app in dep.kb().applications.values()) == ["own", "shop"]


def nested(levels: int) -> list:
    """An array nested ``levels`` levels deep, the innermost one empty."""
    value: list = []
    for _ in range(levels - 1):
        value = [value]
    return value


def test_a_manifest_nested_past_the_limit_is_400_and_one_at_it_commits_everywhere(dep):
    # In ``{"objects": [{"env": {"X": ...}}]}`` the value of X starts at
    # the fifth level.
    leader = f"rla-{dep.leader_id()}"
    at_limit = one_component_bundle("deep", "cloud", {"X": nested(MAX_MANIFEST_DEPTH - 4)})
    # One level over the limit; about 975 levels committed an entry no
    # replica could decode, and about 985 raised out of the request.
    for levels in (MAX_MANIFEST_DEPTH + 1, 975, 985, 5000):
        bundle = one_component_bundle("deep", "cloud", {"X": nested(levels - 4)})
        status, body = dep.send(leader, "POST", "/applications", bundle)
        assert status == 400, levels
        assert body["errors"] == [
            {
                "field": "components[0].objects",
                "error": f"the manifest of web nests deeper than {MAX_MANIFEST_DEPTH} levels",
            }
        ]
    assert dep.kb().live_application("deep") is None

    assert dep.send(leader, "POST", "/applications", at_limit)[0] == 201
    index = dep.group.nodes[dep.leader_id()].last_log_index
    dep.run(0.5)  # followers learn the commit and apply it
    manifest = codec.dumps({"objects": at_limit["components"][0]["objects"]})
    for node in dep.group.nodes.values():
        entry = decode_command(node.entry_at(index).command)
        assert entry.components[0][2] == manifest
    kbs = [service.kb for service in dep.services.values()]
    assert all(kb.live_application("deep") is not None for kb in kbs)
    assert all(kb == kbs[0] for kb in kbs)


def test_duplicate_live_name_is_conflict(dep):
    api = leader_api(dep)
    status, _ = api.dispatch("POST", "/applications", bookinfo_bundle("bookinfo"))
    assert status == 201
    status, body = api.dispatch("POST", "/applications", bookinfo_bundle("bookinfo"))
    assert status == 409


def submit_and_place(dep: Deployment, name: str = "bookinfo") -> dict:
    status, body = leader_api(dep).dispatch(
        "POST", "/applications", bookinfo_bundle(name)
    )
    assert status == 201
    assert dep.run_until(
        lambda: dep.kb().live_application(name) is not None
        and all(c.status == ComponentStatus.HEALTHY
                for c in dep.kb().live_application(name).components),
        60.0,
    )
    return body


def test_poll_payload_carries_placement_map_and_ack_semantics(dep):
    leader_api(dep).dispatch("POST", "/applications", bookinfo_bundle("bookinfo"))
    assert dep.run_until(
        lambda: all(
            c.decision is not None
            for c in (dep.kb().live_application("bookinfo") or type("x", (), {"components": []})).components
        ) and dep.kb().live_application("bookinfo") is not None,
        60.0,
    )
    cloud_perf = cluster_id_of(dep, "cloud-performance")
    status, body = leader_api(dep).dispatch(
        "GET", f"/clusters/{cloud_perf}/applications"
    )
    assert status == 200
    payloads = body["applications"]
    if payloads:  # agent may already have acknowledged via heartbeat
        payload = next(p for p in payloads if p["component"] == "productpage")
        assert set(payload["placement"]) == {"cloud", "fog", "edge"}
        assert payload["target_nodes"]
        assert payload["version"] == 1

    # Unknown cluster 404; unassigned cluster polls empty.
    status, _ = leader_api(dep).dispatch("GET", "/clusters/bogus/applications")
    assert status == 404
    cloud_cost = cluster_id_of(dep, "cloud-cost")
    status, body = leader_api(dep).dispatch("GET", f"/clusters/{cloud_cost}/applications")
    assert status == 200 and body["applications"] == []

    # Once healthy (heartbeat at this version recorded), the payload stops
    # appearing: acknowledgment is implicit.
    assert dep.run_until(
        lambda: all(
            c.status == ComponentStatus.HEALTHY
            for c in dep.kb().live_application("bookinfo").components
        ),
        60.0,
    )
    status, body = leader_api(dep).dispatch(
        "GET", f"/clusters/{cloud_perf}/applications"
    )
    assert body["applications"] == []


def test_qos_update_resets_components_and_heartbeats_404_after_delete(dep):
    submit_and_place(dep)
    app = dep.kb().live_application("bookinfo")
    status, body = leader_api(dep).dispatch(
        "PUT", "/applications/bookinfo/qos", {"qos": {"energy": 1.0}}
    )
    assert status == 200 and body["version"] == 2
    refreshed = dep.kb().live_application("bookinfo")
    assert all(c.status == ComponentStatus.PENDING for c in refreshed.components)

    status, _ = leader_api(dep).dispatch(
        "PUT", "/applications/ghost/qos", {"qos": {"energy": 1.0}}
    )
    assert status == 404

    # After delete, any heartbeat gets 404 (driving agent cleanup).
    assert dep.run_until(
        lambda: all(
            c.status == ComponentStatus.HEALTHY
            for c in dep.kb().live_application("bookinfo").components
        ),
        90.0,
    )
    status, _ = leader_api(dep).dispatch("DELETE", "/applications/bookinfo")
    assert status == 200
    comp = app.component("ratings")
    status, body = leader_api(dep).dispatch(
        "POST",
        f"/applications/{app.app_id}/components/ratings/heartbeat",
        {"cluster_id": "whatever", "version": 2, "status": "healthy"},
    )
    assert status == 404

    status, _ = leader_api(dep).dispatch("DELETE", "/applications/bookinfo")
    assert status == 404  # already withdrawn


def test_heartbeat_paths_ok_stale_and_failed(dep):
    submit_and_place(dep)
    app = dep.kb().live_application("bookinfo")
    ratings = app.component("ratings")
    cluster_id = ratings.decision.cluster_id

    status, body = leader_api(dep).dispatch(
        "POST",
        f"/applications/{app.app_id}/components/ratings/heartbeat",
        {"cluster_id": cluster_id, "version": app.version, "status": "healthy"},
    )
    assert status == 200 and body["status"] == "ok"

    # Wrong cluster (pre-migration host) gets 404.
    status, _ = leader_api(dep).dispatch(
        "POST",
        f"/applications/{app.app_id}/components/ratings/heartbeat",
        {"cluster_id": cluster_id_of(dep, "edge-cost"), "version": app.version,
         "status": "healthy"},
    )
    assert status == 404

    # Failed status is accepted (ok) and marks the component Failed.
    status, _ = leader_api(dep).dispatch(
        "POST",
        f"/applications/{app.app_id}/components/ratings/heartbeat",
        {"cluster_id": cluster_id, "version": app.version, "status": "failed"},
    )
    assert status == 200
    dep.run(1.5)  # flush telemetry
    assert dep.kb().live_application("bookinfo").component("ratings").status == ComponentStatus.FAILED

    status, _ = leader_api(dep).dispatch(
        "POST",
        f"/applications/{app.app_id}/components/ratings/heartbeat",
        {"cluster_id": cluster_id, "version": app.version, "status": "exploded"},
    )
    assert status == 400


def test_non_integer_heartbeat_version_is_400(dep):
    api = leader_api(dep)
    path = "/applications/some-app/components/ratings/heartbeat"
    for version in ("abc", [1], {"n": 1}, 1e999, 1.9, "1", True):
        status, body = api.dispatch(
            "POST", path, {"cluster_id": "c", "version": version, "status": "healthy"}
        )
        assert status == 400 and body["errors"][0]["field"] == "version", version
    status, body = api.dispatch("POST", path, {"cluster_id": "c", "status": "healthy"})
    assert status == 400 and body["errors"][0]["field"] == "version"


def test_a_heartbeat_whose_cluster_id_or_status_is_not_a_string_is_400(dep):
    """Not 404, which tells an agent its component was withdrawn."""
    submit_and_place(dep)
    app = dep.kb().live_application("bookinfo")
    path = f"/applications/{app.app_id}/components/ratings/heartbeat"
    good = {
        "cluster_id": app.component("ratings").decision.cluster_id,
        "version": app.version,
        "status": "healthy",
    }
    api = leader_api(dep)
    assert api.dispatch("POST", path, good) == (200, {"status": "ok"})
    for field in ("cluster_id", "status"):
        missing = {k: v for k, v in good.items() if k != field}
        for body in (missing, {**good, field: None}, {**good, field: 7}):
            status, reply = api.dispatch("POST", path, body)
            assert status == 400 and [e["field"] for e in reply["errors"]] == [field], body


def test_a_qos_update_without_weights_is_400_and_proposes_nothing(dep, monkeypatch):
    submit_and_place(dep)
    proposed = []
    propose = SyncRaftGroup.propose

    def recorded(group, node_id, command):
        proposed.append(command)
        return propose(group, node_id, command)

    monkeypatch.setattr(SyncRaftGroup, "propose", recorded)
    for body in ({}, {"qos": None}):
        status, reply = leader_api(dep).dispatch("PUT", "/applications/bookinfo/qos", body)
        assert status == 400 and reply["errors"] == [{"field": "qos", "error": "qos is required"}]
    app = dep.kb().live_application("bookinfo")
    assert app.version == 1 and proposed == []
    assert all(c.status == ComponentStatus.HEALTHY for c in app.components)


def test_body_that_is_not_a_json_object_is_400(dep):
    api = leader_api(dep)
    for body in ([1, 2], [], "bookinfo", 7, False):
        status, reply = api.dispatch("POST", "/applications", body)
        assert status == 400 and reply["errors"][0]["field"] == "body", body
    status, _ = api.dispatch("PUT", "/applications/bookinfo/qos", ["energy"])
    assert status == 400


def test_unknown_route_is_404(dep):
    status, body = leader_api(dep).dispatch("GET", "/nope")
    assert status == 404 and body["error"] == "no-such-route"


def test_poll_withholds_payload_until_placeholder_domains_are_placed():
    # Read-path behavior, driven directly against one replica's KB view.
    from qonnect.kb.commands import RecordDecision, SubmitApplication
    from qonnect.kb.model import QoSVector

    kb = KnowledgeBase()
    cloud = kb.apply(RegisterCluster("10.0.0.1", Domain.CLOUD, 0.0)).detail["cluster_id"]
    fog = kb.apply(RegisterCluster("10.1.0.1", Domain.FOG, 0.0)).detail["cluster_id"]
    kb.apply(
        SubmitApplication(
            app_id="a1",
            name="web",
            labels=(),
            qos=QoSVector(),
            components=(
                ("front", Domain.CLOUD, codec.dumps({"objects": [
                    {"kind": "Deployment", "name": "front",
                     "env": {"API": "http://{{QONNECT_FOG_IP}}/web/api"}},
                    {"kind": "Ingress", "name": "i", "path": "/web/front"},
                ]})),
                ("api", Domain.FOG, codec.dumps({"objects": [
                    {"kind": "Deployment", "name": "api"},
                    {"kind": "Ingress", "name": "i", "path": "/web/api"},
                ]})),
            ),
            submitted_at=0.0,
        )
    )
    kb.apply(RecordDecision("a1", "front", cloud, ("w1",), 1.0, 2, version=1))

    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    service = RlaService(
        RlaConfig(rla_id=0, peers={0: "a", 1: "b", 2: "c"}), node=node, kb=kb
    )
    # front depends on the fog placement, which does not exist yet.
    assert service.poll_applications(cloud) == []
    kb.apply(RecordDecision("a1", "api", fog, ("w2",), 2.0, 2, version=1))
    payloads = service.poll_applications(cloud)
    assert len(payloads) == 1
    assert payloads[0]["component"] == "front"
    assert payloads[0]["placement"]["fog"] == fog


# ---------------------------------------------------------------------------
# Log compaction on one replica, driven by a leader's messages
# ---------------------------------------------------------------------------


def follower_replica(storage: RaftStorage) -> Replica:
    """Node 0 over ``storage`` with an ``RlaService`` as its machine; the
    replica restores a node reloaded from storage to its snapshot."""
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)), storage=storage)
    return Replica(node, RlaService(RlaConfig(rla_id=0), node=node))


def replicate(replica: Replica, commands: list[KBCommand]) -> None:
    """Deliver ``commands`` from leader 1 as committed entries."""
    node = replica.node
    start = node.last_log_index
    entries = tuple(
        LogEntry(start + i, 1, encode_command(c)) for i, c in enumerate(commands, start=1)
    )
    replica.handle(
        AppendRequest(
            src=1,
            dst=0,
            term=1,
            prev_log_index=start,
            prev_log_term=node.last_log_term,
            entries=entries,
            leader_commit=start + len(entries),
        )
    )


def install(replica: Replica, index: int, blob: str) -> None:
    replica.handle(
        SnapshotRequest(
            src=1, dst=0, term=1, last_included_index=index, last_included_term=1, state_blob=blob
        )
    )


def test_restarted_replica_serves_the_kb_its_snapshot_holds(tmp_path, monkeypatch):
    storage = FileStorage(tmp_path)
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 1)
    monkeypatch.setattr(service_module, "_COMPACT_RATIO", 0)  # compact at every entry
    replica = follower_replica(storage)
    service = replica.machine
    replicate(
        replica,
        [RegisterCluster("10.0.0.1", Domain.EDGE, 1.0), RegisterCluster("10.0.0.2", Domain.FOG, 2.0)],
    )
    assert service.node.snapshot_index == 2 and len(service.kb.clusters) == 2
    before = service.kb.snapshot_state()
    storage.close()

    reopened = FileStorage(tmp_path)
    restarted = follower_replica(reopened).machine
    reopened.close()
    # The snapshot covers every applied entry, so none is applied again.
    assert restarted.node.last_applied == 2
    assert restarted.kb.snapshot_state() == before


def test_snapshot_install_restarts_the_compaction_trigger(monkeypatch):
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 1)
    replica = follower_replica(MemoryStorage())
    service = replica.machine
    source = KnowledgeBase()
    for i in range(8):
        source.apply(RegisterCluster(f"10.0.1.{i}", Domain.EDGE, float(i)))
    blob = source.snapshot_state()
    command = RegisterCluster("10.0.0.9", Domain.CLOUD, 9.0)
    below = (len(blob) - 1) // len(encode_command(command))  # entries logging < one blob
    assert below >= 2

    install(replica, 3, blob)
    replicate(replica, [command] * below)
    assert service.node.snapshot_index == 3  # the installed blob sets the bar

    newer = service.node.last_log_index + 1
    install(replica, newer, blob)  # a leader's newer snapshot
    replicate(replica, [command] * below)
    assert service.node.snapshot_index == newer  # bytes logged before it do not count
    replicate(replica, [command])
    assert service.node.snapshot_index == newer + below + 1
    compacted = service.events.matching("log-compacted")[-1].detail
    assert compacted["index"] == newer + below + 1
    assert compacted["logged_bytes"] >= len(blob)
    assert compacted["snapshot_bytes"] == len(service.kb.snapshot_state())


def test_apply_path_calls_the_names_the_benchmark_tracer_wraps(monkeypatch):
    # benchmark/tracing.py times decoding by wrapping ``decode_command`` in
    # ``qonnect.rla.service``'s namespace and snapshots by wrapping
    # ``KnowledgeBase.snapshot_state``; a rename would silently drop both spans.
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(
        service_module, "decode_command", spy("decode", service_module.decode_command)
    )
    monkeypatch.setattr(
        KnowledgeBase, "snapshot_state", spy("snapshot", KnowledgeBase.snapshot_state)
    )
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 1)
    monkeypatch.setattr(service_module, "_COMPACT_RATIO", 0)  # compact at every entry
    replicate(follower_replica(MemoryStorage()), [RegisterCluster("10.0.0.1", Domain.EDGE, 1.0)])
    assert calls == ["decode", "snapshot"]


def test_an_entry_another_leader_wrote_at_the_proposed_index_is_applied_as_written(monkeypatch):
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    service = RlaService(RlaConfig(rla_id=0), node=node)
    replica = Replica(node, service)
    node.tick(1.0)  # past any election timeout
    term = node.current_term
    replica.handle(VoteResponse(src=1, dst=0, term=term, granted=True))
    assert node.role == Role.LEADER
    decoded = []
    decode = service_module.decode_command
    monkeypatch.setattr(
        service_module, "decode_command", lambda raw: decoded.append(raw) or decode(raw)
    )
    winner = encode_command(RegisterCluster("10.0.0.2", Domain.FOG, 2.0))

    def overwritten(index: int) -> None:
        # Node 1 leads the next term and commits its own entry at the index.
        replica.handle(
            AppendRequest(
                src=1,
                dst=0,
                term=term + 1,
                prev_log_index=index - 1,
                prev_log_term=term,
                entries=(LogEntry(index, term + 1, winner),),
                leader_commit=index,
            )
        )

    service.proposer = lambda raw: replica.propose(raw, overwritten)
    with pytest.raises(UnavailableError):
        service.register_cluster("10.0.0.1", "edge")
    assert decoded == [winner]
    assert [(c.external_ip, c.domain) for c in service.kb.clusters.values()] == [
        ("10.0.0.2", Domain.FOG)
    ]
    assert service._proposed == {}  # dropped when the proposer returned
