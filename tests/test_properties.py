"""Generated property tests: scoring laws and agent safety invariants."""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonnect import codec
from qonnect.agent.ra import (
    APPS_STORE, CONFIG_STORE, RaConfig, ResourceAgent, record_by_namespace,
)
from qonnect.kb.model import Domain, NodeSnapshot, QoSVector
from qonnect.scheduler.borda import BordaCountStrategy, rank_nodes
from test_resource_agent import ScriptedClient
from qonnect.sim.cluster import make_cluster

# Attribute values on a quarter grid: exactly representable, so positive
# scaling can never create or destroy ties through rounding.
grid_value = st.integers(min_value=0, max_value=400).map(lambda i: i * 0.25)
cluster_ids = st.sampled_from(["cl-a", "cl-b", "cl-c", "cl-d"])


@st.composite
def eligible_nodes(draw, min_size: int = 1, max_size: int = 12):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    nodes = []
    for i in range(count):
        nodes.append(
            NodeSnapshot(
                cluster_id=draw(cluster_ids),
                node_name=f"n{i}",
                ready=True,
                schedulable=True,
                pressured=False,
                energy=draw(grid_value),
                pricing=draw(grid_value),
                cpu=draw(grid_value),
                memory=draw(grid_value),
                bandwidth=draw(grid_value),
                storage=draw(grid_value),
                taken_at=100.0,
            )
        )
    return nodes


qos_vectors = st.builds(
    QoSVector,
    energy=st.integers(0, 8).map(float),
    pricing=st.integers(0, 8).map(float),
    performance=st.integers(0, 8).map(float),
)


@settings(max_examples=150, deadline=None)
@given(nodes=eligible_nodes(), qos=qos_vectors)
def test_threshold_filter_never_empties(nodes, qos):
    scores = rank_nodes(nodes).weighted(qos)
    mean = sum(scores) / len(scores)
    assert any(score >= mean for score in scores)
    result = BordaCountStrategy().place(nodes, qos, now=100.0, staleness=60.0)
    assert result is not None and result.node_names
    score_of = {node.node_name: score for node, score in zip(nodes, scores)}
    assert all(score_of[name] >= mean for name in result.node_names)


@settings(max_examples=150, deadline=None)
@given(nodes=eligible_nodes())
def test_zero_qos_equals_unit_qos(nodes):
    zero, unit = QoSVector(0, 0, 0), QoSVector(1, 1, 1)
    assert rank_nodes(nodes).weighted(zero) == rank_nodes(nodes).weighted(unit)
    placed = [BordaCountStrategy().place(nodes, q, now=100.0, staleness=60.0) for q in (zero, unit)]
    assert placed[0].node_names == placed[1].node_names


@settings(max_examples=150, deadline=None)
@given(
    nodes=eligible_nodes(min_size=2),
    qos=qos_vectors,
    attribute=st.sampled_from(["energy", "pricing", "cpu", "memory", "bandwidth", "storage"]),
    factor=st.sampled_from([0.25, 0.5, 2.0, 3.0, 4.0, 8.0]),
)
def test_positive_scaling_of_one_attribute_changes_nothing(nodes, qos, attribute, factor):
    scaled = [replace(n, **{attribute: getattr(n, attribute) * factor}) for n in nodes]
    base = BordaCountStrategy().place(nodes, qos, now=100.0, staleness=60.0)
    after = BordaCountStrategy().place(scaled, qos, now=100.0, staleness=60.0)
    assert base is not None and after is not None
    assert after == base  # Borda sees order only, so the whole result is stable


# ---------------------------------------------------------------------------
# Agent invariants
# ---------------------------------------------------------------------------

APPS = ("alpha", "beta")
COMPONENTS = ("web", "api")

agent_ops = st.lists(
    st.tuples(
        st.sampled_from(["apply", "apply-bad-pin", "apply-bad-token", "kill"]),
        st.sampled_from(APPS),
        # Two app ids per name: an app deleted and submitted again gets a new
        # id while the old one may still be recorded in the same namespace.
        st.sampled_from(("id", "id2")),
        st.sampled_from(COMPONENTS),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=25,
)


def fresh_agent():
    backend = make_cluster("edge-x", Domain.EDGE, "performance", "10.9.9.1")
    agent = ResourceAgent(
        backend=backend, client=ScriptedClient(), config=RaConfig(domain="edge")
    )
    agent.ensure_registered(0.0)
    backend.write_store(CONFIG_STORE, {"cid-1": "10.9.9.1", "cid-2": "10.8.8.1"})
    return agent, backend


def build_payload(
    app: str, component: str, version: int, bad_pin: bool, bad_token: bool, app_id: str = "id"
):
    env = {"PEER": "http://{{QONNECT_FOG_IP}}/x"} if bad_token else {
        "PEER": "http://{{QONNECT_EDGE_IP}}/x"
    }
    return {
        "app_id": f"{app}-{app_id}",
        "name": app,
        "version": version,
        "component": component,
        "manifest": codec.dumps({
            "objects": [
                {"kind": "Deployment", "name": component, "replicas": 1, "env": env},
                {"kind": "Ingress", "name": f"{component}-ing", "path": f"/{app}/{component}"},
            ]
        }),
        "target_nodes": ["ghost"] if bad_pin else ["edge-x-worker-0"],
        "placement": {"edge": "cid-1"},
    }


@settings(max_examples=120, deadline=None)
@given(ops=agent_ops)
# The old id's cleanup once took the namespace and objects the new id holds.
@example(ops=[("apply", "alpha", "id", "web", 1), ("apply", "alpha", "id2", "web", 1),
              ("kill", "alpha", "id", "web", 1)])
def test_record_and_namespace_stay_bijective(ops):
    agent, backend = fresh_agent()
    record = backend.read_store(APPS_STORE) or {}
    for op, app, app_id, component, version in ops:
        if op == "kill":
            agent._cleanup_component(
                record, record_by_namespace(record), f"{app}-{app_id}", component, now=1.0
            )
        else:
            payload = build_payload(
                app,
                component,
                version,
                bad_pin=(op == "apply-bad-pin"),
                bad_token=(op == "apply-bad-token"),
                app_id=app_id,
            )
            agent.reconcile_payload(payload, record, now=1.0)
        # Bijection: application record entries <-> deployed namespaces.
        recorded = {entry["name"] for entry in record.values()}
        deployed = set(backend.namespaces)
        assert recorded == deployed
        assert all(entry["components"] for entry in record.values())
        # No cleanup takes away an object another record entry still holds.
        for entry in record.values():
            objects, _ = backend.namespace_state(entry["name"])
            for comp in entry["components"].values():
                assert all(o in objects for o in comp["objects"])


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(APPS),
            st.sampled_from(COMPONENTS),
            st.sampled_from(["cloud", "fog", "edge"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_applied_objects_are_placeholder_free(ops):
    agent, backend = fresh_agent()
    backend.write_store(
        CONFIG_STORE, {"cid-cloud": "10.0.0.1", "cid-fog": "10.1.0.1", "cid-edge": "10.2.0.1"}
    )
    record = backend.read_store(APPS_STORE) or {}
    for app, component, domain in ops:
        payload = build_payload(app, component, 1, bad_pin=False, bad_token=False)
        manifest = json.loads(payload["manifest"])
        manifest["objects"][0]["env"] = {
            "PEER": f"http://{{{{QONNECT_{domain.upper()}_IP}}}}/{app}/{component}",
            "NESTED": [f"{{{{QONNECT_{domain.upper()}_IP}}}}:9080"],
        }
        payload["manifest"] = codec.dumps(manifest)
        payload["placement"] = {"cloud": "cid-cloud", "fog": "cid-fog", "edge": "cid-edge"}
        agent.reconcile_payload(payload, record, now=1.0)
    for namespace, objects in backend.namespaces.items():
        assert "{{QONNECT" not in repr(objects)
    for workloads in backend.workloads.values():
        for workload in workloads.values():
            assert "{{QONNECT" not in repr(workload.env)
