"""The KB command codec: v1 compatibility, batches (v2 when they hold a
decision), and malformed entries."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonnect import codec
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import (
    Batch,
    RecordDecision,
    RecordHeartbeat,
    SubmitApplication,
    decode_command,
    encode_command,
)
from qonnect.kb.model import Domain, QoSVector
from qonnect.kb.store import KnowledgeBase
from support import entries_from

# Single-command v1 log entries as written before batch entries existed,
# and the KB snapshot they apply to, in order.
GOLDEN_ENTRIES = [
    '{"domain":"edge","external_ip":"10.0.0.1","kind":"register-cluster","registered_at":1.0,"v":1}',
    '{"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","kind":"put-node-snapshot","nodes":[{"bandwidth":52.5,"cpu":4.0,"energy":0.002,"memory":8.0,"node_name":"edge-w0","pressured":false,"pricing":1.0,"ready":true,"role":"worker","schedulable":true,"storage":100.0}],"taken_at":2.0,"v":1}',
    '{"app_id":"app-1","components":[["ratings","edge",{"objects":[{"kind":"Deployment"}]}]],"kind":"submit-application","labels":[["team","a"]],"name":"demo","qos":{"energy":1.0,"performance":0.0,"pricing":0.0},"submitted_at":3.0,"v":1}',
    '{"app_id":"app-1","cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","component":"ratings","decided_at":4.0,"deciding_term":2,"kind":"record-decision","node_names":["edge-w0"],"v":1,"version":1}',
    '{"app_id":"app-1","at":5.0,"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","component":"ratings","kind":"record-heartbeat","status":"healthy","v":1,"version":1}',
    '{"app_id":"app-1","component":"ratings","kind":"requeue-component","reason":"heartbeat-stalled","v":1,"version":1}',
    '{"kind":"update-qos","name":"demo","qos":{"energy":0.0,"performance":0.5,"pricing":2.0},"updated_at":6.0,"v":1}',
    '{"kind":"delete-application","name":"demo","v":1}',
]
GOLDEN_EFFECTS = [
    "cluster-registered",
    "nodes-updated",
    "application-submitted",
    "decision-recorded",
    "heartbeat-recorded",
    "component-requeued",
    "qos-updated",
    "application-withdrawn",
]
# The snapshot those entries applied to while a delete kept the application
# as a record marked withdrawn: a recorded v1 document holding a tombstone.
TOMBSTONE_STATE = (
    '{"applications":[{"app_id":"app-1","components":[{"decision":null,"last_heartbeat":null,'
    '"manifest":{"objects":[{"kind":"Deployment"}]},"name":"ratings","status":"Withdrawn",'
    '"target_domain":"edge"}],"labels":{"team":"a"},"name":"demo","qos":{"energy":0.0,'
    '"performance":0.5,"pricing":2.0},"submitted_at":3.0,"version":2,"withdrawn":true}],'
    '"clusters":[{"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","domain":"edge",'
    '"external_ip":"10.0.0.1","registered_at":1.0}],"nodes":[{"bandwidth":52.5,'
    '"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","cpu":4.0,"energy":0.002,'
    '"memory":8.0,"node_name":"edge-w0","pressured":false,"pricing":1.0,"ready":true,'
    '"role":"worker","schedulable":true,"storage":100.0,"taken_at":2.0}],"v":1}'
)
# The v1 KB snapshot the entries apply to: the delete removed the application.
GOLDEN_STATE = (
    '{"applications":[],"clusters":[{"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7",'
    '"domain":"edge","external_ip":"10.0.0.1","registered_at":1.0}],"nodes":[{"bandwidth":52.5,'
    '"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","cpu":4.0,"energy":0.002,'
    '"memory":8.0,"node_name":"edge-w0","pressured":false,"pricing":1.0,"ready":true,'
    '"role":"worker","schedulable":true,"storage":100.0,"taken_at":2.0}],"v":1}'
)
# The same state as the v2 snapshot the KB writes: an empty node-list table.
GOLDEN_SNAPSHOT = (
    '{"applications":[],"clusters":[{"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7",'
    '"domain":"edge","external_ip":"10.0.0.1","registered_at":1.0}],"node_lists":[],'
    '"nodes":[{"bandwidth":52.5,"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","cpu":4.0,'
    '"energy":0.002,"memory":8.0,"node_name":"edge-w0","pressured":false,"pricing":1.0,'
    '"ready":true,"role":"worker","schedulable":true,"storage":100.0,"taken_at":2.0}],"v":2}'
)
# A v1 snapshot whose decisions repeat a node list, as written before v2,
# and the v2 snapshot of the same state: each list once, in order of use.
_DECIDED = (
    '{"applications":[{"app_id":"app-1","components":[{"decision":{"cluster_id":'
    '"79a62f64-8252-5a15-b929-f461267aebc7","component_name":"ratings","decided_at":4.0,'
    '"deciding_term":2,%s},"last_heartbeat":null,"manifest":{"objects":[{"kind":"Deployment"}]},'
    '"name":"ratings","status":"Scheduled","target_domain":"edge"},{"decision":{"cluster_id":'
    '"79a62f64-8252-5a15-b929-f461267aebc7","component_name":"reviews","decided_at":4.0,'
    '"deciding_term":2,%s},"last_heartbeat":null,"manifest":{"objects":[{"kind":"Deployment"}]},'
    '"name":"reviews","status":"Scheduled","target_domain":"edge"}],"labels":{},"name":"demo",'
    '"qos":{"energy":1.0,"performance":0.0,"pricing":0.0},"submitted_at":3.0,"version":1,'
    '"withdrawn":false},{"app_id":"app-2","components":[{"decision":{"cluster_id":'
    '"79a62f64-8252-5a15-b929-f461267aebc7","component_name":"ratings","decided_at":4.5,'
    '"deciding_term":2,%s},"last_heartbeat":null,"manifest":{"objects":[{"kind":"Deployment"}]},'
    '"name":"ratings","status":"Scheduled","target_domain":"edge"}],"labels":{},"name":"shop",'
    '"qos":{"energy":1.0,"performance":0.0,"pricing":0.0},"submitted_at":3.5,"version":1,'
    '"withdrawn":false}],"clusters":[{"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7",'
    '"domain":"edge","external_ip":"10.0.0.1","registered_at":1.0}],%s"nodes":[],"v":%d}'
)
REPEATED_STATE = _DECIDED % (
    '"node_names":["edge-w0","edge-w1"]', '"node_names":["edge-w1"]',
    '"node_names":["edge-w0","edge-w1"]', "", 1,
)
REPEATED_SNAPSHOT = _DECIDED % (
    '"node_list":0', '"node_list":1', '"node_list":0',
    '"node_lists":[["edge-w0","edge-w1"],["edge-w1"]],', 2,
)
# A batch of decisions that repeat a node list, and a heartbeat, as written
# before v2, and the v2 entry of the same batch: each list once, in order of
# use. It applies after GOLDEN_ENTRIES[:2] and ``THREE_COMPONENTS``.
_DECISION_BATCH = (
    '{"commands":[{"app_id":"app-1","cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7",'
    '"component":"ratings","decided_at":4.0,"deciding_term":2,"kind":"record-decision",%s,'
    '"v":1,"version":1},{"app_id":"app-1","cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7",'
    '"component":"reviews","decided_at":4.0,"deciding_term":2,"kind":"record-decision",%s,'
    '"v":1,"version":1},{"app_id":"app-1","at":4.5,'
    '"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","component":"ratings",'
    '"kind":"record-heartbeat","status":"healthy","v":1,"version":1},{"app_id":"app-1",'
    '"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","component":"details",'
    '"decided_at":4.0,"deciding_term":2,"kind":"record-decision",%s,"v":1,"version":1}],'
    '"kind":"batch",%s"v":%d}'
)
GOLDEN_V1_BATCH = _DECISION_BATCH % (
    '"node_names":["edge-w0","edge-w1"]', '"node_names":["edge-w1"]',
    '"node_names":["edge-w0","edge-w1"]', "", 1,
)
GOLDEN_V2_BATCH = _DECISION_BATCH % (
    '"node_list":0', '"node_list":1', '"node_list":0',
    '"node_lists":[["edge-w0","edge-w1"],["edge-w1"]],', 2,
)
_MANIFEST = codec.dumps({"objects": [{"kind": "Deployment"}]})
THREE_COMPONENTS = SubmitApplication(
    "app-1", "demo", (), QoSVector(energy=1.0),
    tuple((name, Domain.EDGE, _MANIFEST) for name in ("ratings", "reviews", "details")), 3.0,
)


def test_recorded_single_command_entries_decode_and_apply_to_the_recorded_state():
    kb = KnowledgeBase()
    kinds = []
    for raw in GOLDEN_ENTRIES:
        command = decode_command(raw)
        assert not isinstance(command, Batch)
        assert encode_command(command) == raw  # the v1 schema is unchanged
        kinds.append(kb.apply(command).kind)
    assert kinds == GOLDEN_EFFECTS
    assert kb.snapshot_state() == GOLDEN_SNAPSHOT
    assert KnowledgeBase.restore(GOLDEN_STATE) == kb  # the v1 text still reads


def test_batch_of_recorded_entries_applies_like_the_entries_one_by_one():
    batch = Batch(tuple(decode_command(raw) for raw in GOLDEN_ENTRIES))
    raw = encode_command(batch)
    # Members are encoded like single-command entries, but that the batch
    # holds a decision: it is v2, and the decision indexes the table.
    members = [json.loads(r) for r in GOLDEN_ENTRIES]
    members[3]["node_list"] = 0
    del members[3]["node_names"]
    assert json.loads(raw) == {
        "commands": members, "kind": "batch", "node_lists": [["edge-w0"]], "v": 2,
    }
    without_decision = Batch(batch.commands[4:])
    assert json.loads(encode_command(without_decision)) == {
        "commands": [json.loads(r) for r in GOLDEN_ENTRIES[4:]], "kind": "batch", "v": 1,
    }
    decoded = decode_command(raw)
    assert decoded == batch
    kb = KnowledgeBase()
    assert [kb.apply(member).kind for member in decoded.commands] == GOLDEN_EFFECTS
    assert kb.snapshot_state() == GOLDEN_SNAPSHOT


def decided_kb(batch: Batch) -> KnowledgeBase:
    kb = KnowledgeBase()
    for raw in GOLDEN_ENTRIES[:2]:
        kb.apply(decode_command(raw))
    kb.apply(THREE_COMPONENTS)
    kinds = [kb.apply(member).kind for member in batch.commands]
    assert kinds == ["decision-recorded"] * 2 + ["heartbeat-recorded", "decision-recorded"]
    return kb


def test_a_recorded_v1_decision_batch_reads_and_applies_as_its_v2_entry():
    v1, v2 = decode_command(GOLDEN_V1_BATCH), decode_command(GOLDEN_V2_BATCH)
    assert v1 == v2
    assert encode_command(v1) == encode_command(v2) == GOLDEN_V2_BATCH
    assert decided_kb(v1) == decided_kb(v2)
    assert decided_kb(v1).snapshot_state() == decided_kb(v2).snapshot_state()
    ratings, reviews, _heartbeat, details = v2.commands
    assert ratings.node_names is details.node_names == ("edge-w0", "edge-w1")
    assert reviews.node_names == ("edge-w1",)


def test_a_recorded_tombstone_is_dropped_on_restore():
    replayed = KnowledgeBase()
    for raw in GOLDEN_ENTRIES:
        replayed.apply(decode_command(raw))
    assert [app["withdrawn"] for app in json.loads(TOMBSTONE_STATE)["applications"]] == [True]
    restored = KnowledgeBase.restore(TOMBSTONE_STATE)
    assert restored == replayed
    assert restored.snapshot_state() == GOLDEN_SNAPSHOT


def test_a_v1_snapshot_that_repeats_node_lists_reads_as_its_v2_snapshot():
    from_v1 = KnowledgeBase.restore(REPEATED_STATE)
    from_v2 = KnowledgeBase.restore(REPEATED_SNAPSHOT)
    assert from_v1 == from_v2
    assert from_v1.snapshot_state() == from_v2.snapshot_state() == REPEATED_SNAPSHOT
    for kb in (from_v1, from_v2):  # one tuple per distinct list
        demo, shop = kb.applications.values()
        assert demo.components[0].decision.node_names is shop.components[0].decision.node_names


def test_entries_with_qos_weights_that_are_not_finite_still_replay():
    # The REST API refuses such weights, but a log written before it did
    # may hold them; the KB must still apply it.
    entries = [
        GOLDEN_ENTRIES[2].replace('"energy":1.0', '"energy":NaN'),
        GOLDEN_ENTRIES[6].replace('"pricing":2.0', '"pricing":Infinity'),
    ]
    kb = KnowledgeBase()
    assert [kb.apply(decode_command(raw)).kind for raw in entries] == [
        "application-submitted",
        "qos-updated",
    ]
    assert kb.live_application("demo").qos.pricing == float("inf")


def test_batches_are_never_empty_or_nested():
    heartbeat = RecordHeartbeat("a", "c", "cid", version=1, status="healthy", at=1.0)
    with pytest.raises(ValueError):
        Batch(())
    with pytest.raises(ValueError):
        Batch((heartbeat, Batch((heartbeat,))))


MEMBER = json.loads(GOLDEN_ENTRIES[0])


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        "[]",
        '"register-cluster"',
        "null",
        "42",
        '{"kind":"register-cluster","v":1}',  # every field missing
        json.dumps({**MEMBER, "v": 2}),
        json.dumps({**MEMBER, "kind": "no-such-kind"}),
        json.dumps({**MEMBER, "kind": ["register-cluster"]}),
        json.dumps({**MEMBER, "domain": "space"}),
        json.dumps({k: v for k, v in MEMBER.items() if k != "external_ip"}),
        json.dumps({"v": 1, "kind": "update-qos", "name": "x", "qos": [1], "updated_at": 0}),
        json.dumps({"v": 1, "kind": "update-qos", "name": "x", "qos": {"energy": -1}, "updated_at": 0}),
        json.dumps({"v": 1, "kind": "submit-application", "app_id": "a", "name": "n",
                    "labels": [1], "qos": {}, "components": [], "submitted_at": 0}),
        json.dumps({"v": 1, "kind": "submit-application", "app_id": "a", "name": "n",
                    "labels": [], "qos": {}, "components": [["c", "edge"]], "submitted_at": 0}),
        json.dumps({"v": 1, "kind": "batch"}),
        json.dumps({"v": 1, "kind": "batch", "commands": MEMBER}),
        json.dumps({"v": 1, "kind": "batch", "commands": "x"}),
        json.dumps({"v": 1, "kind": "batch", "commands": []}),
        json.dumps({"v": 1, "kind": "batch", "commands": [GOLDEN_ENTRIES[0]]}),
        json.dumps({"v": 1, "kind": "batch", "commands": [{**MEMBER, "v": 0}]}),
        json.dumps({"v": 2, "kind": "batch", "commands": [MEMBER]}),
        json.dumps({"v": 1, "kind": "batch", "commands": [
            MEMBER, {"v": 1, "kind": "batch", "commands": [MEMBER]}]}),
    ],
)
def test_malformed_entries_raise_value_error(payload):
    with pytest.raises(ValueError):
        decode_command(payload)


def _v2_index(index):
    def mutate(entry):
        entry["commands"][1]["node_list"] = index
    return mutate


def _v2_entry(value):
    def mutate(entry):
        entry["node_lists"][1] = value
    return mutate


def _v2_both(entry):
    entry["commands"][0]["node_names"] = ["edge-w0", "edge-w1"]


def _v2_neither(entry):
    del entry["commands"][0]["node_list"]


def _v2_names_only(entry):
    _v2_both(entry)
    _v2_neither(entry)


def _v2_index_on_a_heartbeat(entry):
    entry["commands"][2]["node_list"] = 0


def _v1_with_a_table(entry):
    entry.update(json.loads(GOLDEN_V1_BATCH), node_lists=[["edge-w0"]])


def _v2_on_a_decision(entry):
    entry.clear()
    entry.update(json.loads(GOLDEN_ENTRIES[3]), v=2)


def _v2_on_a_listed_decision(entry):
    decision = entry["commands"][0]
    entry.clear()
    entry.update(decision, v=2, node_lists=[["edge-w0"]])


# The v2 decision batch made malformed in each way its reader must refuse.
MALFORMED_V2 = {
    "index-a-bool": _v2_index(True),
    "index-a-float": _v2_index(1.0),
    "index-null": _v2_index(None),
    "index-negative": _v2_index(-1),
    "index-out-of-range": _v2_index(2),
    "table-missing": lambda entry: entry.pop("node_lists"),
    "table-not-a-list": lambda entry: entry.update(node_lists={"0": ["edge-w1"]}),
    "entry-not-a-list": _v2_entry("edge-w1"),
    "entry-holds-a-number": _v2_entry(["edge-w1", 3]),
    "list-and-names": _v2_both,
    "neither-list-nor-names": _v2_neither,
    "names-in-a-v2-batch": _v2_names_only,
    "index-on-a-heartbeat": _v2_index_on_a_heartbeat,
    "v1-with-a-table": _v1_with_a_table,
    "v2-decision-entry": _v2_on_a_decision,
    "v2-listed-decision-entry": _v2_on_a_listed_decision,
    "member-v2": lambda entry: entry["commands"][0].update(v=2),
    "member-field-mistyped": lambda entry: entry["commands"][3].update(deciding_term="2"),
    "member-field-unknown": lambda entry: entry["commands"][3].update(extra=1),
    "commands-not-a-list": lambda entry: entry.update(commands=entry["commands"][0]),
    "commands-empty": lambda entry: entry.update(commands=[]),
    "kind-not-batch": lambda entry: entry.update(kind="record-decision"),
    "field-unknown": lambda entry: entry.update(extra=1),
}


def malformed_v2(mutate) -> str:
    entry = json.loads(GOLDEN_V2_BATCH)
    mutate(entry)
    return json.dumps(entry)


@pytest.mark.parametrize("mutate", MALFORMED_V2.values(), ids=MALFORMED_V2)
def test_malformed_v2_batches_raise_value_error(mutate):
    with pytest.raises(ValueError):
        decode_command(malformed_v2(mutate))


json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=6),
    max_leaves=20,
)
field_names = st.sampled_from(
    sorted({key for raw in GOLDEN_ENTRIES for key in json.loads(raw)}
           | {"commands", "node_list", "node_lists"})
)


@st.composite
def mutated_entries(draw) -> str:
    """A recorded entry, a batch of them or the v2 decision batch, with
    fields dropped or replaced; in the v2 batch, its indexes and its
    table's entries too."""
    entries = draw(st.lists(st.sampled_from(GOLDEN_ENTRIES), min_size=1, max_size=3))
    members = [json.loads(raw) for raw in entries]
    payload: object = members[0]
    if draw(st.booleans()):
        payload = {"v": 1, "kind": "batch", "commands": members}
    elif draw(st.booleans()):
        payload = json.loads(GOLDEN_V2_BATCH)
    targets = [payload] + (payload["commands"] if "commands" in payload else [])
    table = payload.get("node_lists")
    for _ in range(draw(st.integers(0, 3))):
        if table and draw(st.booleans()):
            index = draw(st.integers(0, len(table) - 1))
            table[index] = draw(json_values | st.lists(st.text(max_size=4), max_size=2))
            continue
        target = draw(st.sampled_from(targets))
        key = draw(field_names)
        if draw(st.booleans()):
            target.pop(key, None)
        elif key == "node_list":
            target[key] = draw(json_values | st.integers(-2, 3))
        else:
            target[key] = draw(json_values)
    return json.dumps(payload)


@settings(max_examples=300, deadline=None)
@given(raw=mutated_entries() | st.sampled_from(list(MALFORMED_V2.values())).map(malformed_v2)
       | json_values.map(json.dumps) | st.text(max_size=40))
def test_decode_accepts_or_raises_value_error_only(raw):
    try:
        command = decode_command(raw)
    except ValueError:
        return
    members = command.commands if isinstance(command, Batch) else (command,)
    assert members and not any(isinstance(m, Batch) for m in members)
    for member in members:
        if isinstance(member, RecordDecision):
            assert type(member.node_names) is tuple
            assert all(type(name) is str for name in member.node_names)
    assert decode_command(encode_command(command)) == command



# ---------------------------------------------------------------------------
# A scheduler pass's entry
# ---------------------------------------------------------------------------

# Bytes per decision of the entry that places 30 bookinfo apps on 30 workers
# per cluster (seed 7): 989 when each of its 120 decisions wrote its node
# list, 287 with each of the 9 distinct lists written once.
DECISION_ENTRY_BYTES = 400
FLEET_QOS = ({"energy": 1.0}, {"pricing": 1.0}, {"performance": 1.0},
             {"energy": 0.2, "pricing": 0.5, "performance": 0.3})


def test_a_placed_fleet_logs_each_node_list_once_and_every_replica_agrees():
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
    leader = dep.group.leader()
    dep.group.pump(leader.broadcast_append())  # followers catch up
    passes = [entry.command for entry in entries_from(leader, 1)
              if '"record-decision"' in entry.command]
    decisions = 0
    for raw in passes:
        entry = json.loads(raw)
        assert entry["v"] == 2
        table = [tuple(names) for names in entry["node_lists"]]
        assert len(table) == len(set(table))  # each distinct list once
        members = [m for m in entry["commands"] if m["kind"] == "record-decision"]
        assert all("node_names" not in m for m in members)
        decisions += len(members)
    assert decisions == 4 * apps
    logged = sum(map(len, passes))
    assert logged / decisions < DECISION_ENTRY_BYTES, logged / decisions
    kbs = [service.kb for service in dep.services.values()]
    assert all(kb == kbs[0] for kb in kbs[1:])
