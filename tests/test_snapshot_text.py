"""KB snapshots built from kept text, and the node lists decisions share.

``snapshot_state`` writes the applications section as text: what a submit
fixes is encoded once per record, each distinct node list once per call,
and only the fields that change are formatted on every call. Its bytes must
equal the generic codec's for every KB, so a field added to a record fails
these tests until the text covers it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_codec import applications, clusters, kb_of, nodes

from qonnect import codec
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import (
    DeleteApplication,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    SubmitApplication,
    UpdateQoS,
    decode_command,
    encode_command,
)
from qonnect.kb.model import (
    ApplicationRecord,
    ComponentRecord,
    ComponentStatus,
    Domain,
    QoSVector,
    ScheduleDecision,
)
from qonnect.kb.store import KnowledgeBase, _encode_state, _State, cluster_id_for


def generic(kb: KnowledgeBase) -> str:
    """The snapshot as the codec writes it from the records alone."""
    state = _State(
        v=codec.VERSION,
        clusters=list(kb.clusters.values()),
        nodes=list(kb.nodes.values()),
        applications=list(kb.applications.values()),
    )
    return codec.dumps(_encode_state(state))


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------

CLOUD = cluster_id_for("10.0.0.1", Domain.CLOUD)
EDGE = cluster_id_for("10.0.0.2", Domain.EDGE)
DOMAIN_CLUSTER = {Domain.CLOUD: CLOUD, Domain.EDGE: EDGE}

app_ids = st.sampled_from(["id-1", "id-2", "id-ß"])  # a reused id replaces its record
app_names = st.sampled_from(["shop", "café", "店"])
weights = st.integers(0, 3) | st.floats(0, 3, allow_nan=False)  # int weights stay ints
qos_vectors = st.builds(QoSVector, weights, weights, weights)
times = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-5, 10**6)
labels = st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3)), max_size=2).map(tuple)
json_leaves = st.none() | st.booleans() | st.integers() | times | st.text(max_size=4)
manifests = st.dictionaries(
    st.text(max_size=4), json_leaves | st.lists(json_leaves, max_size=2), max_size=3
)
node_lists = st.sampled_from([(), ("w0",), ("w0", "w1"), ("wø", "w1", "w2")])
statuses = st.sampled_from(["healthy", "progressing", "failed"])

kb_ops = st.one_of(
    st.tuples(st.just("submit"), app_ids, app_names, labels, qos_vectors, manifests, times),
    st.tuples(st.just("qos"), app_names, qos_vectors, times),
    st.tuples(st.just("delete"), app_names),
    st.tuples(st.just("decide"), st.integers(0, 7), node_lists, times, st.integers(0, 9)),
    st.tuples(st.just("beat"), st.integers(0, 7), statuses, times),
    st.tuples(st.just("requeue"), st.integers(0, 7)),
)


def command_for(kb: KnowledgeBase, op: tuple):
    """The command ``op`` describes, aimed at a live component where it
    names one by position (``pick``), so that most ops change the KB."""
    kind = op[0]
    if kind == "submit":
        _, app_id, name, labels_, qos, manifest, at = op
        parts = (("web", Domain.CLOUD, manifest), ("db", Domain.EDGE, {"objects": []}))
        return SubmitApplication(app_id, name, labels_, qos, parts, at)
    if kind == "qos":
        return UpdateQoS(op[1], op[2], op[3])
    if kind == "delete":
        return DeleteApplication(op[1])
    live = [(app, comp) for app in kb.applications.values() for comp in app.components]
    if not live:
        return DeleteApplication("nothing")
    app, comp = live[op[1] % len(live)]
    cluster = DOMAIN_CLUSTER[comp.target_domain]
    if kind == "decide":
        return RecordDecision(app.app_id, comp.name, cluster, op[2], op[3], op[4], app.version)
    if kind == "beat":
        return RecordHeartbeat(app.app_id, comp.name, cluster, app.version, op[2], op[3])
    return RequeueComponent(app.app_id, comp.name, app.version, "stalled")


def registered_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.apply(RegisterCluster("10.0.0.1", Domain.CLOUD, 0.0))
    kb.apply(RegisterCluster("10.0.0.2", Domain.EDGE, 0))
    return kb


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(kb_ops, max_size=40), split=st.integers(0, 40))
def test_snapshot_bytes_equal_the_codecs_through_applies_and_a_restore(ops, split):
    kb = registered_kb()
    for op in ops[:split]:
        # Through the wire encoding, as a follower applies its log.
        kb.apply(decode_command(encode_command(command_for(kb, op))))
        assert kb.snapshot_state() == generic(kb)
    blob = kb.snapshot_state()
    restored = KnowledgeBase.restore(blob)
    assert restored.snapshot_state() == blob == generic(restored)
    for op in ops[split:]:
        cmd = command_for(kb, op)
        kb.apply(cmd)
        restored.apply(cmd)
        assert restored.snapshot_state() == kb.snapshot_state() == generic(kb)


@settings(max_examples=150, deadline=None)
@given(
    clusters=st.lists(clusters, max_size=3),
    nodes=st.lists(nodes, max_size=3),
    applications=st.lists(applications, max_size=4),
)
def test_snapshot_bytes_equal_the_codecs_for_any_records(clusters, nodes, applications):
    # Random values in every field, None decisions and heartbeats, and apps
    # marked withdrawn, which only an old snapshot can hold.
    kb = kb_of(clusters, nodes, applications)
    assert kb.snapshot_state() == generic(kb)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 1e300, 7, 2**70])
def test_snapshot_bytes_equal_the_codecs_for_edge_scalars(value):
    decision = ScheduleDecision("web", "c", ("w0",), value, 3)
    comp = ComponentRecord("web", Domain.FOG, {"x": [value]}, ComponentStatus.HEALTHY,
                           decision, last_heartbeat=value)
    app = ApplicationRecord("id", "app", {"k": "v"}, QoSVector(abs(value), 0, 1.5), [comp], value)
    kb = kb_of([], [], [app])
    assert kb.snapshot_state() == generic(kb)


# ---------------------------------------------------------------------------
# Shared node lists and the work a snapshot does
# ---------------------------------------------------------------------------


def test_decisions_on_one_cluster_share_one_node_list_on_every_replica():
    dep = Deployment(TestbedSpec(seed=5))
    dep.boot()
    client = dep.client()
    for i in range(4):  # one QoS vector, so each cluster retains one list
        client.submit_application(bookinfo_bundle(f"app-{i}", {"energy": 1.0}))
    dep.run(10.0)
    for rla_id, service in dep.services.items():
        by_cluster: dict[str, set[int]] = {}
        decided = 0
        for app in service.kb.applications.values():
            for comp in app.components:
                if comp.decision is not None:
                    decided += 1
                    by_cluster.setdefault(comp.decision.cluster_id, set()).add(
                        id(comp.decision.node_names)
                    )
        assert decided == 16
        assert all(len(ids) == 1 for ids in by_cluster.values()), rla_id
        shared = {names: names for names in service.kb._node_lists}
        for event in dep.events.matching("kb-decision-recorded", f"rla-{rla_id}"):
            names = shared[tuple(event.detail["nodes"])]
            assert all(a is b for a, b in zip(event.detail["nodes"], names))


def decided_kb() -> KnowledgeBase:
    """Two apps with decisions holding two distinct lists, by equal tuples
    from separate decodes."""
    kb = registered_kb()
    for app_id, name in (("id-1", "a"), ("id-2", "b")):
        manifest = {"objects": [{"kind": "Deployment", "name": name}]}
        parts = (("web", Domain.CLOUD, manifest), ("db", Domain.EDGE, manifest))
        kb.apply(SubmitApplication(app_id, name, (), QoSVector(), parts, 1.0))
        kb.apply(decode_command(encode_command(
            RecordDecision(app_id, "web", CLOUD, ("w0", "w1"), 2.0, 1, 1))))
        kb.apply(decode_command(encode_command(
            RecordDecision(app_id, "db", EDGE, ("w2",), 2.0, 1, 1))))
    return kb


def test_equal_node_lists_are_one_tuple_and_a_snapshot_keeps_only_live_ones():
    kb = decided_kb()
    web = [app.component("web").decision.node_names for app in kb.applications.values()]
    assert web[0] == ("w0", "w1") and web[0] is web[1]
    kb.apply(UpdateQoS("a", QoSVector(energy=1.0), 3.0))  # its decisions go
    kb.apply(DeleteApplication("b"))
    kb.apply(SubmitApplication("id-3", "c", (), QoSVector(), (("web", Domain.CLOUD, {}),), 4.0))
    kb.apply(RecordDecision("id-3", "web", CLOUD, ("w3",), 5.0, 1, 1))
    assert set(kb._node_lists) == {("w0", "w1"), ("w2",), ("w3",)}
    kb.snapshot_state()
    assert kb._node_lists == {("w3",): ("w3",)}
    assert kb._node_lists[("w3",)] is kb.applications["id-3"].components[0].decision.node_names


def test_a_restored_kb_shares_node_lists_too():
    restored = KnowledgeBase.restore(decided_kb().snapshot_state())
    lists = [comp.decision.node_names
             for app in restored.applications.values() for comp in app.components]
    assert lists[0] is lists[2] and lists[1] is lists[3]
    assert set(restored._node_lists) == {("w0", "w1"), ("w2",)}


def count_dumps(monkeypatch) -> list:
    """Every value ``codec.dumps`` is asked to encode from now on."""
    encoded = []
    dumps = codec.dumps

    def spy(value, *args, **kwargs):
        encoded.append(value)
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(codec, "dumps", spy)
    return encoded


def manifests_of(kb: KnowledgeBase) -> list[dict]:
    return [comp.manifest for app in kb.applications.values() for comp in app.components]


def assert_snapshot_encodes_no_manifest(kb: KnowledgeBase, encoded: list) -> None:
    lists = {comp.decision.node_names
             for app in kb.applications.values() for comp in app.components}
    encoded.clear()
    kb.snapshot_state()
    assert not any(value is manifest for value in encoded for manifest in manifests_of(kb))
    assert sorted(v for v in encoded if type(v) is tuple) == sorted(lists)  # once each
    assert len(encoded) == len(lists) + 1  # and the clusters and nodes, through the codec


def test_a_snapshot_after_submits_encodes_no_manifest_and_each_list_once(monkeypatch):
    kb = decided_kb()
    encoded = count_dumps(monkeypatch)
    assert_snapshot_encodes_no_manifest(kb, encoded)  # the submits encoded them
    assert_snapshot_encodes_no_manifest(kb, encoded)


def test_a_restored_kb_encodes_each_manifest_at_its_first_snapshot_only(monkeypatch):
    restored = KnowledgeBase.restore(decided_kb().snapshot_state())
    assert restored._texts == {}
    encoded = count_dumps(monkeypatch)
    blob = restored.snapshot_state()
    assert sum(value is manifest for value in encoded for manifest in manifests_of(restored)) == 4
    assert_snapshot_encodes_no_manifest(restored, encoded)
    assert restored.snapshot_state() == blob
