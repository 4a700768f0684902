"""The KB command codec: v1 compatibility, batches, and malformed entries."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonnect.kb import Batch, KnowledgeBase, RecordHeartbeat, decode_command, encode_command

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
# The KB snapshot the entries apply to: the delete removed the application.
GOLDEN_STATE = (
    '{"applications":[],"clusters":[{"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7",'
    '"domain":"edge","external_ip":"10.0.0.1","registered_at":1.0}],"nodes":[{"bandwidth":52.5,'
    '"cluster_id":"79a62f64-8252-5a15-b929-f461267aebc7","cpu":4.0,"energy":0.002,'
    '"memory":8.0,"node_name":"edge-w0","pressured":false,"pricing":1.0,"ready":true,'
    '"role":"worker","schedulable":true,"storage":100.0,"taken_at":2.0}],"v":1}'
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
    assert kb.snapshot_state() == GOLDEN_STATE


def test_batch_of_recorded_entries_applies_like_the_entries_one_by_one():
    batch = Batch(tuple(decode_command(raw) for raw in GOLDEN_ENTRIES))
    raw = encode_command(batch)
    # Members are encoded exactly like single-command entries.
    assert json.loads(raw)["commands"] == [json.loads(r) for r in GOLDEN_ENTRIES]
    decoded = decode_command(raw)
    assert decoded == batch
    kb = KnowledgeBase()
    assert [kb.apply(member).kind for member in decoded.commands] == GOLDEN_EFFECTS
    assert kb.snapshot_state() == GOLDEN_STATE


def test_a_recorded_tombstone_is_dropped_on_restore():
    replayed = KnowledgeBase()
    for raw in GOLDEN_ENTRIES:
        replayed.apply(decode_command(raw))
    assert [app["withdrawn"] for app in json.loads(TOMBSTONE_STATE)["applications"]] == [True]
    restored = KnowledgeBase.restore(TOMBSTONE_STATE)
    assert restored == replayed
    assert restored.snapshot_state() == GOLDEN_STATE


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


json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=6),
    max_leaves=20,
)
field_names = st.sampled_from(
    sorted({key for raw in GOLDEN_ENTRIES for key in json.loads(raw)} | {"commands"})
)


@st.composite
def mutated_entries(draw) -> str:
    """A recorded entry, or a batch of them, with fields dropped or replaced."""
    entries = draw(st.lists(st.sampled_from(GOLDEN_ENTRIES), min_size=1, max_size=3))
    members = [json.loads(raw) for raw in entries]
    payload: object = members[0]
    if draw(st.booleans()):
        payload = {"v": 1, "kind": "batch", "commands": members}
    targets = [payload] + (payload["commands"] if "commands" in payload else [])
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(targets))
        key = draw(field_names)
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    return json.dumps(payload)


@settings(max_examples=300, deadline=None)
@given(raw=mutated_entries() | json_values.map(json.dumps) | st.text(max_size=40))
def test_decode_accepts_or_raises_value_error_only(raw):
    try:
        command = decode_command(raw)
    except ValueError:
        return
    members = command.commands if isinstance(command, Batch) else (command,)
    assert members and not any(isinstance(m, Batch) for m in members)

