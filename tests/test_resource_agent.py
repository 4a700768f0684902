"""Resource agent duties: registration, snapshots, reconcile, heartbeats, cleanup."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from placeholder_oracle import substitute_in_values

from qonnect import codec
from qonnect.agent.client import RlaClientError
from qonnect.agent.ra import (
    APPS_STORE,
    CONFIG_STORE,
    SELF_STORE,
    PlaceholderError,
    RaConfig,
    ResourceAgent,
    record_by_namespace,
    substitute_placeholders,
)
from qonnect.kb.model import Domain, NodeSnapshot
from qonnect.sim.cluster import CrashLoop, DeleteNamespace, NodePressure, SimNode, make_cluster


class ScriptedClient:
    """Hand-scripted RLA responses for driving the agent in isolation."""

    def __init__(self) -> None:
        self.cluster_id = "cid-1"
        self.register_calls: list[tuple[str, str]] = []
        self.snapshots: list[list[dict]] = []
        self.heartbeats: list[tuple[str, str, str, int, str]] = []
        self.config: dict[str, str] = {}
        self.payloads: list[dict] = []
        self.heartbeat_ok = True
        self.fail_register = False

    def register(self, external_ip: str, domain: str) -> str:
        if self.fail_register:
            raise RlaClientError("unreachable")
        self.register_calls.append((external_ip, domain))
        return self.cluster_id

    def cluster_config(self) -> dict[str, str]:
        return dict(self.config)

    def put_nodes(self, cluster_id: str, nodes: list[dict]) -> dict:
        self.snapshots.append(nodes)
        return {"accepted": len(nodes), "flags": []}

    def poll_applications(self, cluster_id: str) -> list[dict]:
        return [dict(p) for p in self.payloads]

    def heartbeat(self, app_id, component, cluster_id, version, status) -> bool:
        self.heartbeats.append((app_id, component, cluster_id, version, status))
        return self.heartbeat_ok


def make_agent(client: ScriptedClient | None = None):
    backend = make_cluster("edge-perf", Domain.EDGE, "performance", "10.2.2.1")
    client = client or ScriptedClient()
    agent = ResourceAgent(
        backend=backend,
        client=client,
        config=RaConfig(domain="edge"),
        name="ra-test",
    )
    return agent, backend, client


def applied_objects(backend, namespace: str) -> dict:
    """The objects applied in ``namespace``, by id."""
    objects, _ = backend.namespace_state(namespace)
    return objects


def payload_for(app: str = "shop", component: str = "web", version: int = 1, env=None) -> dict:
    return {
        "app_id": f"{app}-id",
        "name": app,
        "version": version,
        "component": component,
        "manifest": codec.dumps({
            "objects": [
                {"kind": "Deployment", "name": component, "replicas": 1, "env": env or {}},
                {"kind": "Ingress", "name": f"{component}-ing", "path": f"/{app}/{component}"},
            ]
        }),
        "target_nodes": ["edge-perf-worker-0"],
        "placement": {"edge": "cid-1"},
    }


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def test_fresh_cluster_registers_and_persists_uuid():
    agent, backend, client = make_agent()
    agent.ensure_registered(now=0.0)
    assert client.register_calls == [("10.2.2.1", "edge")]
    assert backend.read_store(SELF_STORE)["cluster_id"] == "cid-1"
    assert backend.read_store(CONFIG_STORE) == {}
    assert backend.read_store(APPS_STORE) == {}


def test_restarted_agent_reuses_persisted_uuid():
    agent, backend, client = make_agent()
    agent.ensure_registered(now=0.0)
    # A brand-new agent instance over the same backend: no re-registration.
    again = ResourceAgent(backend=backend, client=client, config=RaConfig(domain="edge"))
    again.ensure_registered(now=1.0)
    assert len(client.register_calls) == 1
    assert again.cluster_id == "cid-1"


def test_registration_retries_after_backoff_without_crashing():
    agent, backend, client = make_agent()
    client.fail_register = True
    agent.run_due(0.0)
    assert agent.cluster_id is None
    agent.run_due(0.5)  # within backoff: no new attempt
    client.fail_register = False
    agent.run_due(0.5)
    assert agent.cluster_id is None
    agent.run_due(1.1)  # past backoff: succeeds
    assert agent.cluster_id == "cid-1"


# ---------------------------------------------------------------------------
# Node snapshots
# ---------------------------------------------------------------------------


def test_snapshot_filters_control_plane_and_carries_flags():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    backend.inject_fault(NodePressure("edge-perf-worker-1"))
    agent.send_node_snapshot(1.0)
    assert len(client.snapshots) == 1
    names = {n["node_name"] for n in client.snapshots[0]}
    assert names == {"edge-perf-worker-0", "edge-perf-worker-1"}
    flagged = next(n for n in client.snapshots[0] if n["node_name"] == "edge-perf-worker-1")
    assert flagged["pressured"] is True


def test_a_simulated_node_holds_exactly_the_fields_of_a_node_report():
    reported = {f.name for f in dataclasses.fields(NodeSnapshot)} - {"cluster_id", "taken_at"}
    assert {f.name for f in dataclasses.fields(SimNode)} == reported


def test_each_worker_is_reported_as_the_dict_its_fields_spell_out():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    backend.inject_fault(NodePressure("edge-perf-worker-1"))
    agent.send_node_snapshot(1.0)
    spelled_out = [
        {
            "node_name": n.node_name,
            "ready": n.ready,
            "schedulable": n.schedulable,
            "pressured": n.pressured,
            "energy": n.energy,
            "pricing": n.pricing,
            "cpu": n.cpu,
            "memory": n.memory,
            "bandwidth": n.bandwidth,
            "storage": n.storage,
            "role": "worker",
        }
        for n in backend.nodes
        if n.role != "control-plane"
    ]
    (report,) = client.snapshots
    assert report == spelled_out
    types = [{key: type(value) for key, value in node.items()} for node in report]
    assert types == [{key: type(value) for key, value in node.items()} for node in spelled_out]


def test_a_report_mixing_two_record_classes_encodes_each_node_by_its_own_class():
    @dataclasses.dataclass(slots=True)
    class RackedNode(SimNode):
        rack: str = "r1"

    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    backend.nodes.insert(1, RackedNode("edge-perf-racked-0", "worker", energy=0.5))
    backend.nodes.append(RackedNode("edge-perf-racked-1", "worker", rack="r2"))
    agent.send_node_snapshot(1.0)
    (report,) = client.snapshots
    workers = [n for n in backend.nodes if n.role != "control-plane"]
    assert report == [codec.encoder(type(n))(n) for n in workers]
    assert [node.get("rack") for node in report] == ["r1", None, None, "r2"]


# ---------------------------------------------------------------------------
# Reconcile
# ---------------------------------------------------------------------------


def test_reconcile_replaces_placeholders_with_config_ips():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    backend.write_store(CONFIG_STORE, {"fog-cid": "10.1.0.1", "cid-1": "10.2.2.1"})
    payload = payload_for(env={"DETAILS_URL": "http://{{QONNECT_FOG_IP}}/shop/details"})
    payload["placement"]["fog"] = "fog-cid"
    record = {}
    assert agent.reconcile_payload(payload, record, now=1.0)
    workload = backend.workload_state("shop", "web")
    assert workload.env["DETAILS_URL"] == "http://10.1.0.1/shop/details"
    assert record["shop-id"]["components"]["web"]["version"] == 1


def test_reconcile_is_idempotent_per_version():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = {}
    agent.reconcile_payload(payload_for(), record, now=1.0)
    backend.step(3.0)  # roll out fully
    assert backend.workload_state("shop", "web").phase == "Ready"
    agent.reconcile_payload(payload_for(), record, now=4.0)
    assert backend.workload_state("shop", "web").phase == "Ready"  # no new rollout


def test_reconcile_unresolvable_placeholder_reports_failure():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    payload = payload_for(env={"URL": "http://{{QONNECT_CLOUD_IP}}/shop/x"})
    record = {}
    assert not agent.reconcile_payload(payload, record, now=1.0)
    assert record == {}
    assert not backend.namespace_exists("shop")
    assert any(e.kind == "failed-to-apply" for e in agent.events.events)


def test_reconcile_unknown_pinned_node_rolls_back_namespace():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    payload = payload_for()
    payload["target_nodes"] = ["ghost-node"]
    record = {}
    assert not agent.reconcile_payload(payload, record, now=1.0)
    assert record == {} and not backend.namespace_exists("shop")


def test_substitute_placeholders_walks_nested_structures():
    objects = [{"env": {"A": "{{QONNECT_FOG_IP}}"}, "args": ["{{QONNECT_EDGE_IP}}:80"]}]
    resolved = json.loads(substitute_placeholders(
        codec.dumps(objects), {"fog": "f", "edge": "e"}, {"f": "1.1.1.1", "e": "2.2.2.2"}
    ))
    assert resolved[0]["env"]["A"] == "1.1.1.1"
    assert resolved[0]["args"][0] == "2.2.2.2:80"
    with pytest.raises(PlaceholderError):
        substitute_placeholders('"{{QONNECT_CLOUD_IP}}"', {}, {})


# Placeholders and the text around them; a domain the placement leaves out,
# or a cluster the config leaves out, does not resolve.
PLACEMENT = {"cloud": "c-1", "fog": "c-2", "edge": "c-3"}
CONFIG = {"c-1": "10.0.0.1", "c-2": "fd00::2"}
# An IPv6 scope id may hold any character but "%": these pass ipaddress.
SCOPED_CONFIG = {"c-1": 'fe80::1%","replicas":99,"x":"', "c-2": "fe80::2%\\", "c-3": 'fe80::3%\\"é\n'}
tokens = st.sampled_from(["CLOUD", "FOG", "EDGE", "SPACE"]).map(
    lambda domain: f"{{{{QONNECT_{domain}_IP}}}}"
)
pieces = st.sampled_from(["", "http://", ":9080", "/", "é", '"', "\\", "\n", "{{", "}}"])
strings = st.lists(tokens | pieces | st.text(max_size=3), max_size=5).map("".join)
leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | strings
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(manifest=st.dictionaries(st.text(max_size=4), values, max_size=4),
       placement=st.sampled_from([PLACEMENT, {"fog": "c-2"}, {}]),
       config=st.sampled_from([CONFIG, SCOPED_CONFIG]))
def test_text_substitution_gives_the_recursive_walks_objects_and_first_error(
    manifest, placement, config
):
    """Through the canonical text, as an agent gets it from the KB."""
    text = codec.dumps(manifest)
    try:
        expected = substitute_in_values(json.loads(text), placement, config)
    except PlaceholderError as exc:
        with pytest.raises(PlaceholderError) as raised:
            substitute_placeholders(text, placement, config)
        assert str(raised.value) == str(exc)
    else:
        assert json.loads(substitute_placeholders(text, placement, config)) == expected


def test_a_scoped_ip_with_quotes_and_backslashes_is_applied_as_one_value():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    hostile = SCOPED_CONFIG["c-1"]
    backend.write_store(CONFIG_STORE, {"cid-1": hostile})
    env = {"URL": "http://{{QONNECT_EDGE_IP}}/shop/x", "RAW": "{{QONNECT_EDGE_IP}}"}
    assert agent.reconcile_payload(payload_for(env=env), {}, now=1.0)
    workload = backend.workload_state("shop", "web")
    assert workload.env == {"URL": f"http://{hostile}/shop/x", "RAW": hostile}
    assert workload.desired == 1


def test_a_placeholder_in_an_object_key_is_substituted_too():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    backend.write_store(CONFIG_STORE, {"fog-cid": "10.1.0.1", "cid-1": "10.2.2.1"})
    env = {"{{QONNECT_FOG_IP}}": "http://{{QONNECT_EDGE_IP}}/shop/x"}
    payload = payload_for(env=env)
    payload["placement"]["fog"] = "fog-cid"
    assert agent.reconcile_payload(payload, {}, now=1.0)
    assert backend.workload_state("shop", "web").env == {"10.1.0.1": "http://10.2.2.1/shop/x"}
    # The recursive walk left keys alone.
    objects = json.loads(payload["manifest"])["objects"]
    walked = substitute_in_values(objects, payload["placement"], backend.read_store(CONFIG_STORE))
    assert walked[0]["env"] == {"{{QONNECT_FOG_IP}}": "http://10.2.2.1/shop/x"}


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------


def deploy(agent, backend, now: float = 1.0) -> dict:
    record = {}
    agent.reconcile_payload(payload_for(), record, now=now)
    backend.write_store(APPS_STORE, record)
    return record


def test_component_status_lifecycle():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = deploy(agent, backend, now=0.0)
    comp = record["shop-id"]["components"]["web"]

    assert agent.component_status("shop", comp, now=10.0) == "progressing"
    backend.step(3.0)  # rollout completes (latency 2s)
    assert agent.component_status("shop", comp, now=10.0) == "healthy"

    # ready != desired past the rollout timeout: failed.
    backend.workload_state("shop", "web").ready = 0
    backend.workload_state("shop", "web").phase = "Rolling"
    assert agent.component_status("shop", comp, now=121.0) == "failed"
    assert agent.component_status("shop", comp, now=100.0) == "progressing"

    backend.inject_fault(CrashLoop("shop", "web"))
    assert agent.component_status("shop", comp, now=10.0) == "failed"

    backend.delete_objects("shop", ["Deployment/web"])
    # A missing object is drift: reported as failed, and applied again.
    assert agent.component_status("shop", comp, now=10.0) == "missing"


def test_heartbeats_report_recorded_components():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    deploy(agent, backend, now=0.0)
    backend.step(3.0)
    agent.report_heartbeats(now=5.0)
    assert client.heartbeats == [("shop-id", "web", "cid-1", 1, "healthy")]


# ---------------------------------------------------------------------------
# Cleanup
# ---------------------------------------------------------------------------


def test_heartbeat_404_triggers_cleanup_and_bijection_holds():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    deploy(agent, backend, now=0.0)
    client.heartbeat_ok = False
    agent.report_heartbeats(now=5.0)
    assert backend.read_store(APPS_STORE) == {}
    assert not backend.namespace_exists("shop")
    # No record entries -> no heartbeats next time.
    client.heartbeats.clear()
    agent.report_heartbeats(now=15.0)
    assert client.heartbeats == []


def test_multi_component_cleanup_keeps_namespace_until_last():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = {}
    agent.reconcile_payload(payload_for(component="web"), record, now=0.0)
    agent.reconcile_payload(payload_for(component="api"), record, now=0.0)
    backend.write_store(APPS_STORE, record)

    agent._cleanup_component(record, record_by_namespace(record), "shop-id", "web", now=1.0)
    assert backend.namespace_exists("shop")
    assert "Deployment/web" not in applied_objects(backend, "shop")
    assert "Deployment/api" in applied_objects(backend, "shop")
    agent._cleanup_component(record, record_by_namespace(record), "shop-id", "api", now=2.0)
    assert not backend.namespace_exists("shop")
    assert record == {}


class CountingRecord(dict):
    """An applications record that counts the entries its traversals visit."""

    visits = 0

    def _counted(self, iterator):
        for item in iterator:
            self.visits += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


def test_a_heartbeat_round_visits_each_record_entry_twice_whatever_it_cleans(monkeypatch):
    """One pass lists the entries to report, and the first cleanup indexes
    them by namespace; a scan of the record per cleanup would visit
    n + n(n-1)/2 of them."""
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = {}
    apps = 30
    for i in range(apps):
        agent.reconcile_payload(payload_for(app=f"shop{i}"), record, now=0.0)
    counted = CountingRecord(record)
    read_store = backend.read_store
    monkeypatch.setattr(
        backend, "read_store", lambda store: counted if store == APPS_STORE else read_store(store)
    )
    agent.report_heartbeats(now=5.0)
    assert counted.visits == apps  # nothing to clean, so no index
    counted.visits = 0
    client.heartbeat_ok = False
    agent.report_heartbeats(now=15.0)
    assert counted == {} and not backend.namespaces
    assert len(agent.events.matching("cleanup")) == apps
    assert counted.visits == 2 * apps


def test_a_heartbeat_round_cleans_shared_namespaces_as_it_did_one_at_a_time():
    """An app submitted again under a new id shares the old id's namespace
    and objects: the round keeps both while the new id holds them."""
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = {}
    for payload in (
        payload_for(component="web"),
        payload_for(component="api"),
        dict(payload_for(component="web"), app_id="shop-new"),
        payload_for(app="cart"),
    ):
        agent.reconcile_payload(payload, record, now=0.0)
    backend.write_store(APPS_STORE, record)
    refused = {("shop-id", "web"), ("shop-id", "api"), ("cart-id", "web")}
    client.heartbeat = lambda app_id, component, **_: (app_id, component) not in refused
    agent.report_heartbeats(now=5.0)
    cleaned = [(e.detail["app_id"], e.detail["component"]) for e in agent.events.events
               if e.kind == "cleanup"]
    assert cleaned == [("shop-id", "web"), ("shop-id", "api"), ("cart-id", "web")]
    assert list(backend.read_store(APPS_STORE)) == ["shop-new"]
    assert "Deployment/web" in applied_objects(backend, "shop")
    assert "Ingress/web-ing" in applied_objects(backend, "shop")
    assert "Deployment/api" not in applied_objects(backend, "shop")
    assert not backend.namespace_exists("cart")


def test_a_round_cut_short_by_a_failed_heartbeat_keeps_its_cleanups():
    """The round's first heartbeat is answered 404 and its component cleaned
    up, then the next one fails (no leader). The store must drop the cleaned
    entry: kept with no components, it would hold the shared namespace after
    the last app id in it is cleaned up."""
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = {}
    for app_id in ("shop-old", "shop-new"):
        agent.reconcile_payload(dict(payload_for(), app_id=app_id), record, now=0.0)
    backend.write_store(APPS_STORE, record)
    answers = iter([False, RlaClientError("heartbeat failed (503): no-leader")])

    def heartbeat(**_) -> bool:
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    client.heartbeat = heartbeat
    with pytest.raises(RlaClientError):
        agent.report_heartbeats(now=5.0)
    assert list(backend.read_store(APPS_STORE)) == ["shop-new"]

    client.heartbeat = lambda **_: False
    agent.report_heartbeats(now=15.0)
    assert backend.read_store(APPS_STORE) == {}
    assert not backend.namespace_exists("shop")


# ---------------------------------------------------------------------------
# Drift: a component's namespace, objects or workload gone from the cluster
# ---------------------------------------------------------------------------


def drift_namespace(backend):
    backend.inject_fault(DeleteNamespace("shop"))


def drift_object(backend):
    backend.delete_objects("shop", ["Ingress/web-ing"])


def drift_workload(backend):
    del backend.workloads["shop"]["web"]


@pytest.mark.parametrize("drift", [drift_namespace, drift_object, drift_workload])
def test_a_drifted_component_is_applied_again_from_the_record(drift):
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    record = deploy(agent, backend, now=0.0)
    backend.step(3.0)
    applied = record["shop-id"]["components"]["web"]["objects"]
    drift(backend)

    agent.report_heartbeats(now=5.0)
    assert client.heartbeats == [("shop-id", "web", "cid-1", 1, "failed")]
    assert all(o in applied_objects(backend, "shop") for o in applied)
    assert backend.workload_state("shop", "web").env == {}
    reapplied = [e for e in agent.events.events if e.kind == "reapplied"]
    assert [(e.at, e.detail) for e in reapplied] == [
        (5.0, {"app": "shop", "component": "web", "version": 1, "objects": applied})
    ]
    comp = backend.read_store(APPS_STORE)["shop-id"]["components"]["web"]
    assert comp["deployed_at"] == 5.0

    backend.step(6.0)  # past the second rollout, applied at the cluster's 3.0
    agent.report_heartbeats(now=15.0)
    assert client.heartbeats[-1] == ("shop-id", "web", "cid-1", 1, "healthy")
    assert len([e for e in agent.events.events if e.kind == "reapplied"]) == 1


def test_a_crash_loop_or_a_rollout_timeout_is_not_drift():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    deploy(agent, backend, now=0.0)
    backend.inject_fault(CrashLoop("shop", "web"))
    agent.report_heartbeats(now=5.0)
    agent.report_heartbeats(now=200.0)  # past the rollout timeout as well
    assert [h[-1] for h in client.heartbeats] == ["failed", "failed"]
    assert not [e for e in agent.events.events if e.kind == "reapplied"]


def test_a_drifted_component_answered_404_is_cleaned_up_not_reapplied():
    agent, backend, client = make_agent()
    agent.ensure_registered(0.0)
    deploy(agent, backend, now=0.0)
    drift_namespace(backend)
    client.heartbeat_ok = False
    agent.report_heartbeats(now=5.0)
    assert backend.read_store(APPS_STORE) == {} and not backend.namespace_exists("shop")
    assert [e.kind for e in agent.events.events if e.kind in ("reapplied", "cleanup")] == [
        "cleanup"
    ]


def test_transient_rla_outage_skips_duty_and_recovers():
    class FlakyClient(ScriptedClient):
        def __init__(self) -> None:
            super().__init__()
            self.fail_snapshots = False

        def put_nodes(self, cluster_id, nodes):
            if self.fail_snapshots:
                raise RlaClientError("connection refused")
            return super().put_nodes(cluster_id, nodes)

    client = FlakyClient()
    agent, backend, _ = make_agent(client)
    agent.run_due(0.0)
    assert len(client.snapshots) == 1

    client.fail_snapshots = True
    agent.run_due(5.0)  # duty raises internally; the agent must not crash
    assert len(client.snapshots) == 1
    assert any(e.kind == "node-snapshot-skipped" for e in agent.events.events)

    client.fail_snapshots = False
    agent.run_due(10.0)
    assert len(client.snapshots) == 2


def test_statelessness_new_agent_resumes_from_stores():
    agent, backend, client = make_agent()
    agent.run_due(0.0)  # registers + first duties
    record = deploy(agent, backend, now=0.0)
    backend.step(3.0)

    fresh = ResourceAgent(
        backend=backend, client=client, config=RaConfig(domain="edge"), name="ra-test-2"
    )
    fresh.run_due(10.0)
    assert fresh.cluster_id == "cid-1"
    assert len(client.register_calls) == 1
    assert ("shop-id", "web", "cid-1", 1, "healthy") in client.heartbeats
