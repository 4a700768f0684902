"""KB snapshots built from kept text, and the node lists decisions share.

``snapshot_state`` writes the applications section as text: each manifest
is spliced in as the text the KB keeps, the rest of what a submit fixes is
encoded once per record, and only the fields that change are formatted on
every call. Each distinct node list is written once, in the v2 document's
table. Its bytes must equal the generic codec's v1 document turned into
that table form (``as_v2``) for every KB, so a field added to a record
fails these tests until the text covers it. The leader, each follower and a restored
KB hold each manifest as the same text, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

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
from qonnect.kb.store import KnowledgeBase, cluster_id_for
from qonnect.rla.validation import validate_bundle


def v1_document(kb: KnowledgeBase) -> dict:
    """The KB's records as the codec writes them, in the v1 snapshot document."""
    def encoded(records) -> list:
        return [codec.encoder(type(record))(record) for record in records]

    return {"applications": encoded(kb.applications.values()),
            "clusters": encoded(kb.clusters.values()), "nodes": encoded(kb.nodes.values()),
            "v": 1}


def as_v2(document: dict) -> dict:
    """A v1 document in the v2 form: each decision's node list moves into a
    ``node_lists`` table, in order of first use, and the decision holds its
    index there."""
    table: dict[tuple[str, ...], int] = {}
    for app in document["applications"]:
        for comp in app["components"]:
            decision = comp["decision"]
            if decision is not None:
                names = tuple(decision.pop("node_names"))
                decision["node_list"] = table.setdefault(names, len(table))
    return {**document, "node_lists": [list(names) for names in table], "v": 2}


def generic(kb: KnowledgeBase) -> str:
    """The snapshot as the codec writes it from the records alone."""
    return codec.dumps(as_v2(v1_document(kb)))


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
).map(codec.dumps)
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
        parts = (("web", Domain.CLOUD, manifest), ("db", Domain.EDGE, '{"objects":[]}'))
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
    comp = ComponentRecord("web", Domain.FOG, codec.dumps({"x": [value]}), ComponentStatus.HEALTHY,
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


# Bytes per app of the snapshot of a 30-app bookinfo fleet placed on 30
# workers per cluster (seed 7): 8 019 when each of its 120 decisions wrote
# its node list, 5 212 with each of the 9 distinct lists written once.
SNAPSHOT_BYTES_PER_APP = 6_500
FLEET_QOS = ({"energy": 1.0}, {"pricing": 1.0}, {"performance": 1.0},
             {"energy": 0.2, "pricing": 0.5, "performance": 0.3})


def node_lists_in(document: dict) -> list[tuple[str, ...]]:
    """Every node list a snapshot document writes, each time it writes one."""
    written = [tuple(names) for names in document.get("node_lists", ())]
    for app in document["applications"]:
        for comp in app["components"]:
            if comp["decision"] is not None and "node_names" in comp["decision"]:
                written.append(tuple(comp["decision"]["node_names"]))
    return written


def test_a_placed_fleet_snapshot_writes_each_node_list_once_on_every_replica():
    spec = TestbedSpec(seed=7)
    spec.clusters = [replace(cluster, workers=30) for cluster in spec.clusters]
    dep = Deployment(spec)
    dep.boot()
    client = dep.client()
    apps = 30
    for i in range(apps):
        client.submit_application(bookinfo_bundle(f"app-{i}", FLEET_QOS[i % len(FLEET_QOS)]))

    def placed() -> bool:
        live = dep.kb().applications.values()
        return len(live) == apps and all(comp.decision for app in live for comp in app.components)

    assert dep.run_until(placed, 120.0)
    dep.group.pump(dep.group.leader().broadcast_append())  # followers catch up
    blobs = {service.kb.snapshot_state() for service in dep.services.values()}
    assert len(blobs) == 1  # byte-identical on every replica
    [blob] = blobs
    written = node_lists_in(json.loads(blob))
    assert len(written) > 1 and len(written) == len(set(written))
    assert len(blob) / apps < SNAPSHOT_BYTES_PER_APP, len(blob) / apps


def decided_kb() -> KnowledgeBase:
    """Two apps with decisions holding two distinct lists, by equal tuples
    from separate decodes."""
    kb = registered_kb()
    for app_id, name in (("id-1", "a"), ("id-2", "b")):
        manifest = codec.dumps({"objects": [{"kind": "Deployment", "name": name}]})
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
    kb.apply(SubmitApplication("id-3", "c", (), QoSVector(), (("web", Domain.CLOUD, "{}"),), 4.0))
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
    """The object each manifest text of ``kb`` holds."""
    return [json.loads(comp.manifest)
            for app in kb.applications.values() for comp in app.components]


def encodes_no_manifest(kb: KnowledgeBase, encoded: list) -> bool:
    return not any(value == manifest for value in encoded for manifest in manifests_of(kb))


def assert_snapshot_encodes_no_manifest(kb: KnowledgeBase, encoded: list) -> None:
    lists = {comp.decision.node_names
             for app in kb.applications.values() for comp in app.components}
    encoded.clear()
    kb.snapshot_state()
    assert encodes_no_manifest(kb, encoded)
    # One document through the codec: clusters, nodes and each list once.
    [rest] = encoded
    assert sorted(map(tuple, rest["node_lists"])) == sorted(lists)


def test_a_snapshot_after_submits_encodes_no_manifest_and_each_list_once(monkeypatch):
    kb = decided_kb()
    encoded = count_dumps(monkeypatch)
    assert_snapshot_encodes_no_manifest(kb, encoded)  # the submits encoded the rest
    assert_snapshot_encodes_no_manifest(kb, encoded)


def test_a_restored_kb_encodes_no_manifest_at_its_first_snapshot_either(monkeypatch):
    restored = KnowledgeBase.restore(decided_kb().snapshot_state())
    assert restored._texts == {}
    encoded = count_dumps(monkeypatch)
    blob = restored.snapshot_state()
    # It encodes each record's labels once, and the manifests never.
    assert encoded and encodes_no_manifest(restored, encoded)
    assert_snapshot_encodes_no_manifest(restored, encoded)
    assert restored.snapshot_state() == blob


# ---------------------------------------------------------------------------
# One manifest text, byte for byte, on every replica
# ---------------------------------------------------------------------------

DOMAINS = ("cloud", "fog", "edge")
json_values = st.recursive(
    json_leaves | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


@st.composite
def valid_bundles(draw) -> dict:
    """A bundle ``validate_bundle`` accepts: each component ships an Ingress
    under the application's name, and its placeholders name only domains
    that some component targets."""
    name = draw(st.sampled_from(["shop", "café", "店"]))
    domains = draw(st.lists(st.sampled_from(DOMAINS), min_size=1, max_size=3))
    placeholders = [f"{{{{QONNECT_{domain.upper()}_IP}}}}" for domain in set(domains)]
    components = []
    for i, domain in enumerate(domains):
        env = draw(st.dictionaries(
            st.text(max_size=4), st.sampled_from(placeholders).map(lambda p: f"http://{p}/x")
            | json_values, max_size=3,
        ))
        extra = draw(st.lists(st.dictionaries(st.text(max_size=4), json_values), max_size=2))
        components.append({
            "component": f"c{i}",
            "domain": domain,
            "objects": [
                {"kind": "Deployment", "name": f"c{i}", "env": env},
                *extra,
                {"kind": "Ingress", "name": f"c{i}-ing", "path": f"/{name}/c{i}"},
            ],
        })
    return {"application": {"name": name, "labels": {"app": name}}, "components": components}


def entry_as_objects(cmd: SubmitApplication, bundle: dict) -> str:
    """The entry as the codec wrote it when the command held each manifest
    as its object: the bundle's own objects under ``objects``."""
    return codec.dumps({
        "v": codec.VERSION, "kind": cmd.kind, "app_id": cmd.app_id, "name": cmd.name,
        "labels": [list(label) for label in cmd.labels],
        "qos": {"energy": cmd.qos.energy, "performance": cmd.qos.performance,
                "pricing": cmd.qos.pricing},
        "components": [[c["component"], c["domain"], {"objects": c["objects"]}]
                       for c in bundle["components"]],
        "submitted_at": cmd.submitted_at,
    })


@settings(max_examples=150, deadline=None)
@given(bundle=valid_bundles())
def test_the_leader_each_follower_and_a_restored_kb_hold_the_same_manifest_text(bundle):
    parsed, errors = validate_bundle(bundle)
    assert errors == []
    cmd = SubmitApplication("id-1", parsed.name, parsed.labels, parsed.qos,
                            parsed.components, 1.0)
    raw = encode_command(cmd)
    assert raw == entry_as_objects(cmd, bundle)
    leader, follower = registered_kb(), registered_kb()
    leader.apply(cmd)  # the leader applies the object it proposed
    follower.apply(decode_command(raw))
    blob = leader.snapshot_state()
    assert blob == generic(leader) == follower.snapshot_state()
    restored = KnowledgeBase.restore(blob)
    texts = [text for _, _, text in parsed.components]
    for kb in (leader, follower, restored):
        assert [comp.manifest for comp in kb.applications["id-1"].components] == texts
    assert leader == follower == restored
