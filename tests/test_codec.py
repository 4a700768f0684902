"""The one codec: type rules, round trips of every durable type, recorded
Raft wire payloads, and malformed KB snapshots."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_commands import (
    GOLDEN_SNAPSHOT,
    GOLDEN_STATE,
    REPEATED_SNAPSHOT,
    REPEATED_STATE,
    TOMBSTONE_STATE,
    json_values,
)
from test_slotted_records import BUILT, COMPONENT

from qonnect import codec
from qonnect.kb.commands import (
    Batch,
    DeleteApplication,
    PutNodeSnapshot,
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
    NODE_METRICS,
    ApplicationRecord,
    ClusterRecord,
    ComponentRecord,
    ComponentStatus,
    Domain,
    NodeSnapshot,
    QoSVector,
    ScheduleDecision,
)
from qonnect.kb.store import KnowledgeBase
from qonnect.raft.messages import (
    AppendRequest,
    AppendResponse,
    LogEntry,
    SnapshotRequest,
    SnapshotResponse,
    VoteRequest,
    VoteResponse,
    decode_message,
    encode_message,
)

# ---------------------------------------------------------------------------
# Type rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    count: int
    weight: float
    flag: bool
    domain: Domain
    names: tuple[str, ...]
    pair: tuple[str, Domain, codec.ObjectText]
    note: str | None = None


SAMPLE = {
    "count": 1,
    "weight": 0.5,
    "flag": True,
    "domain": "fog",
    "names": ["a"],
    "pair": ["x", "edge", {"any": [1, None]}],
}


def test_decoder_builds_the_dataclass_and_the_encoder_writes_it_back():
    sample = codec.decoder(Sample)(SAMPLE)
    pair = ("x", Domain.EDGE, '{"any":[1,null]}')
    assert sample == Sample(1, 0.5, True, Domain.FOG, ("a",), pair)
    assert codec.encoder(Sample)(sample) == {**SAMPLE, "note": None}


@pytest.mark.parametrize(
    "changes",
    [
        {"count": True},  # a bool is never an int
        {"count": 1.0},
        {"weight": "0.5"},
        {"flag": 1},
        {"domain": "space"},
        {"domain": ["fog"]},
        {"names": "a"},
        {"names": [1]},
        {"pair": ["x", "edge"]},
        {"pair": ["x", "edge", []]},
        {"note": 3},
        {"extra": 1},
    ],
)
def test_mistyped_or_unknown_fields_raise_value_error(changes):
    with pytest.raises(ValueError):
        codec.decoder(Sample)({**SAMPLE, **changes})


def test_ints_pass_for_floats_defaults_may_be_omitted_required_fields_may_not():
    assert codec.decoder(Sample)({**SAMPLE, "weight": 2}).weight == 2
    assert codec.decoder(Sample)(SAMPLE).note is None
    with pytest.raises(ValueError):
        codec.decoder(Sample)({k: v for k, v in SAMPLE.items() if k != "count"})


@pytest.mark.parametrize("weight", ["energy", "pricing", "performance"])
def test_rules_about_meaning_stay_in_post_init(weight):
    complete = {"energy": 1.0, "pricing": 1.0, "performance": 1.0, weight: -1.0}
    for doc in (complete, {weight: -1}):
        with pytest.raises(ValueError, match="non-negative"):
            codec.decoder(QoSVector)(doc)


def test_object_text_is_the_canonical_text_and_too_deep_an_object_a_value_error():
    decode = codec.decoder(codec.ObjectText)
    assert decode({"b": [1.0, None], "a": "é"}) == '{"a":"\\u00e9","b":[1.0,null]}'
    assert codec.encoder(codec.ObjectText)('{"a":[1]}') == {"a": [1]}
    deep: dict = {}
    for _ in range(100_000):  # past any recursion limit the encoder has
        deep = {"x": deep}
    with pytest.raises(ValueError):
        decode(deep)


def test_a_malformed_list_item_is_named_by_its_index():
    good = json.loads(encode_command(UpdateQoS("a", QoSVector(energy=1.0), 0.0)))
    bad = {**good, "name": 7}
    batch = {"v": codec.VERSION, "kind": "batch", "commands": [good, bad, good]}
    with pytest.raises(ValueError, match=r"^Batch\.commands: \[1\]: UpdateQoS\.name must be str"):
        decode_command(json.dumps(batch))
    with pytest.raises(ValueError, match=r"\[2\]: expected str, not int"):
        codec.decoder(Sample)({**SAMPLE, "names": ["a", "b", 3]})


NODE = {
    "cluster_id": "c",
    "node_name": "n",
    "ready": True,
    "schedulable": True,
    "pressured": False,
    "energy": 0.002,
    "pricing": 1.0,
    "cpu": 4.0,
    "memory": 8.0,
    "bandwidth": 10.0,
    "storage": 50.0,
    "taken_at": 1.0,
    "role": "worker",
}


@pytest.mark.parametrize("changes", [{}, {"cpu": 4}, {"taken_at": 0}])
def test_all_scalar_classes_decode_as_their_constructor_builds(changes):
    node = {**NODE, **changes}
    decoded = codec.decoder(NodeSnapshot)(node)
    assert decoded == NodeSnapshot(**node)
    assert codec.encoder(NodeSnapshot)(decoded) == node


@pytest.mark.parametrize("changes", [{"energy": -1.0}, {"ready": 1}, {"cpu": True}, {"role": 1}])
def test_all_scalar_classes_refuse_what_their_fields_or_post_init_refuse(changes):
    with pytest.raises(ValueError):
        codec.decoder(NodeSnapshot)({**NODE, **changes})


@pytest.mark.parametrize("tp", [dict[str, Sample], dict[int, str], set[int], list, dict, object])
def test_types_outside_the_rules_raise_type_error(tp):
    with pytest.raises(TypeError):
        codec.decoder(tp)


# ---------------------------------------------------------------------------
# Round trips: decode(encode(x)) == x for every durable type
# ---------------------------------------------------------------------------

text = st.text(max_size=6)
ints = st.integers(-(2**40), 2**40)
times = st.floats(allow_nan=False, allow_infinity=False) | ints
amounts = st.floats(min_value=0, allow_nan=False, allow_infinity=False) | st.integers(0, 10**6)
domains = st.sampled_from(Domain)
objects = st.dictionaries(text, json_values, max_size=3)
manifests = objects.map(codec.dumps)
qos_vectors = st.builds(QoSVector, amounts, amounts, amounts)


def tuples_of(strategy):
    return st.lists(strategy, max_size=3).map(tuple)


commands = st.one_of(
    st.builds(RegisterCluster, text, domains, times),
    st.builds(PutNodeSnapshot, text, tuples_of(objects), times),
    st.builds(
        SubmitApplication,
        text,
        text,
        tuples_of(st.tuples(text, text)),
        qos_vectors,
        tuples_of(st.tuples(text, domains, manifests)),
        times,
    ),
    st.builds(UpdateQoS, text, qos_vectors, times),
    st.builds(DeleteApplication, text),
    st.builds(RecordDecision, text, text, text, tuples_of(text), times, ints, ints),
    st.builds(RecordHeartbeat, text, text, text, ints, text, times),
    st.builds(RequeueComponent, text, text, ints, text),
)
entries = commands | st.lists(commands, min_size=1, max_size=4).map(
    lambda members: Batch(tuple(members))
)

nodes = st.builds(
    NodeSnapshot, text, text, st.booleans(), st.booleans(), st.booleans(),
    amounts, amounts, amounts, amounts, amounts, amounts, times, text,
)
decisions = st.builds(ScheduleDecision, text, text, tuples_of(text), times, ints)
components = st.builds(
    ComponentRecord, text, domains, manifests, st.sampled_from(ComponentStatus),
    st.none() | decisions, st.none() | times,
)


def applications_with(withdrawn):
    return st.builds(
        ApplicationRecord, text, text, st.dictionaries(text, text, max_size=3), qos_vectors,
        st.lists(components, max_size=3), times, ints, withdrawn,
    )


applications = applications_with(st.booleans())
clusters = st.builds(ClusterRecord, text, domains, text, times)
records = st.one_of(qos_vectors, clusters, nodes, decisions, components, applications)


@settings(max_examples=300, deadline=None)
@given(entry=entries)
def test_every_log_entry_round_trips(entry):
    raw = encode_command(entry)
    assert decode_command(raw) == entry
    assert encode_command(decode_command(raw)) == raw


# Decisions drawing their node lists from a few, so that lists repeat.
shared_lists = st.sampled_from(((), ("w0",), ("w0", "w1"), ("w1", "w0", "w2")))
telemetry = st.one_of(
    st.builds(RecordDecision, text, text, text, shared_lists, times, ints, ints),
    st.builds(RequeueComponent, text, text, ints, text),
    st.builds(RecordHeartbeat, text, text, text, ints, text, times),
    st.builds(PutNodeSnapshot, text, tuples_of(objects), times),
)


@settings(max_examples=300, deadline=None)
@given(members=st.lists(telemetry, min_size=1, max_size=8))
def test_a_mixed_batch_round_trips_and_its_equal_lists_are_one_tuple(members):
    batch = Batch(tuple(members))
    raw = encode_command(batch)
    decoded = decode_command(raw)
    assert decoded == batch
    assert encode_command(decoded) == raw
    listed = [m.node_names for m in decoded.commands if isinstance(m, RecordDecision)]
    assert json.loads(raw)["v"] == (2 if listed else 1)
    one_each = {names: names for names in listed}
    assert all(names is one_each[names] for names in listed)
    if listed:
        assert len(json.loads(raw)["node_lists"]) == len(one_each)


@settings(max_examples=300, deadline=None)
@given(record=records)
def test_every_kb_record_round_trips(record):
    cls = type(record)
    raw = codec.dumps(codec.encoder(cls)(record))
    decoded = codec.decoder(cls)(codec.loads(raw))
    assert decoded == record
    assert type(decoded) is cls and not hasattr(decoded, "__dict__")


def kb_of(clusters, nodes, applications) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.clusters = {c.cluster_id: c for c in clusters}
    kb.nodes = {(n.cluster_id, n.node_name): n for n in nodes}
    kb.applications = {a.app_id: a for a in applications}
    return kb


@settings(max_examples=50, deadline=None)
@given(
    clusters=st.lists(clusters, max_size=3),
    nodes=st.lists(nodes, max_size=3),
    applications=st.lists(applications_with(st.just(False)), max_size=3),
)
def test_kb_snapshot_round_trips(clusters, nodes, applications):
    kb = kb_of(clusters, nodes, applications)
    blob = kb.snapshot_state()
    assert KnowledgeBase.restore(blob) == kb
    assert KnowledgeBase.restore(blob).snapshot_state() == blob


@settings(max_examples=50, deadline=None)
@given(
    clusters=st.lists(clusters, max_size=3),
    nodes=st.lists(nodes, max_size=3),
    applications=st.lists(applications, max_size=4),
)
def test_restore_drops_withdrawn_applications(clusters, nodes, applications):
    kb = kb_of(clusters, nodes, applications)
    live = kb_of(clusters, nodes, [a for a in kb.applications.values() if not a.withdrawn])
    restored = KnowledgeBase.restore(kb.snapshot_state())
    assert restored == live
    assert restored.snapshot_state() == live.snapshot_state()


@st.composite
def append_requests(draw) -> AppendRequest:
    prev = draw(st.integers(0, 100))
    terms = draw(st.lists(ints, max_size=3))
    log = tuple(LogEntry(prev + i, term, draw(text)) for i, term in enumerate(terms, start=1))
    return AppendRequest(draw(ints), draw(ints), draw(ints), prev, draw(ints), log, draw(ints))


messages = st.one_of(
    st.builds(VoteRequest, ints, ints, ints, ints, ints),
    st.builds(VoteResponse, ints, ints, ints, st.booleans()),
    append_requests(),
    st.builds(AppendResponse, ints, ints, ints, st.booleans(), ints, ints),
    st.builds(SnapshotRequest, ints, ints, ints, ints, ints, text),
    st.builds(SnapshotResponse, ints, ints, ints, ints),
)


@settings(max_examples=300, deadline=None)
@given(msg=messages)
def test_every_raft_message_round_trips(msg):
    assert decode_message(encode_message(msg)) == msg


# ---------------------------------------------------------------------------
# Raft payloads as written before the codec: field order, then v and kind
# ---------------------------------------------------------------------------

GOLDEN_MESSAGES = [
    (
        '{"src":0,"dst":1,"term":3,"last_log_index":7,"last_log_term":2,"v":1,'
        '"kind":"vote-request"}',
        VoteRequest(0, 1, 3, 7, 2),
    ),
    (
        '{"src":1,"dst":0,"term":3,"granted":true,"v":1,"kind":"vote-response"}',
        VoteResponse(1, 0, 3, True),
    ),
    (
        '{"src":0,"dst":2,"term":3,"prev_log_index":4,"prev_log_term":2,"entries":'
        '[{"index":5,"term":3,"command":"{\\"kind\\":\\"delete-application\\",'
        '\\"name\\":\\"demo\\",\\"v\\":1}"},{"index":6,"term":3,"command":""}],'
        '"leader_commit":6,"v":1,"kind":"append-request"}',
        AppendRequest(
            0, 2, 3, 4, 2,
            (
                LogEntry(5, 3, '{"kind":"delete-application","name":"demo","v":1}'),
                LogEntry(6, 3, ""),
            ),
            6,
        ),
    ),
    (
        '{"src":2,"dst":0,"term":3,"success":false,"match_index":4,"conflict_index":5,'
        '"v":1,"kind":"append-response"}',
        AppendResponse(2, 0, 3, False, 4, 5),
    ),
    (
        '{"src":0,"dst":1,"term":3,"last_included_index":9,"last_included_term":2,'
        '"state_blob":"{\\"v\\":1}","v":1,"kind":"snapshot-request"}',
        SnapshotRequest(0, 1, 3, 9, 2, '{"v":1}'),
    ),
    (
        '{"src":1,"dst":0,"term":3,"match_index":9,"v":1,"kind":"snapshot-response"}',
        SnapshotResponse(1, 0, 3, 9),
    ),
]


@pytest.mark.parametrize(
    "raw, expected", GOLDEN_MESSAGES, ids=[msg.kind for _raw, msg in GOLDEN_MESSAGES]
)
def test_recorded_raft_payloads_still_decode(raw, expected):
    assert decode_message(raw) == expected
    assert json.loads(encode_message(expected)) == json.loads(raw)  # same object, any key order


# ---------------------------------------------------------------------------
# Malformed snapshots: restore or ValueError, nothing else
# ---------------------------------------------------------------------------


def _objects_in(value: object) -> list[dict]:
    """Every JSON object nested in ``value``, outermost first."""
    if isinstance(value, dict):
        return [value] + [o for v in value.values() for o in _objects_in(v)]
    if isinstance(value, list):
        return [o for v in value for o in _objects_in(v)]
    return []


@pytest.mark.parametrize("blob", [GOLDEN_STATE, GOLDEN_SNAPSHOT], ids=["v1", "v2"])
@pytest.mark.parametrize("version", [0, 3, "1", True, None])
def test_restore_refuses_other_schema_versions(version, blob):
    state = {**json.loads(blob), "v": version}
    with pytest.raises(ValueError):
        KnowledgeBase.restore(json.dumps(state))
    assert KnowledgeBase.restore(blob).snapshot_state() == GOLDEN_SNAPSHOT


def _decisions_in(state: dict) -> list[dict]:
    return [comp["decision"] for app in state["applications"] for comp in app["components"]]


def _with_index(index):
    def mutate(state):
        _decisions_in(state)[1]["node_list"] = index
    return mutate


def _with_entry(entry):
    def mutate(state):
        state["node_lists"][1] = entry
    return mutate


def _drop_table(state):
    del state["node_lists"]


def _with_both(state):
    _decisions_in(state)[0]["node_names"] = ["edge-w0", "edge-w1"]


def _v1_with_index(state):
    state.update(json.loads(REPEATED_STATE))
    _decisions_in(state)[0]["node_list"] = 0


# The v2 snapshot made malformed in each way its reader must refuse.
MALFORMED_V2 = {
    "index-a-bool": _with_index(True),
    "index-a-float": _with_index(1.0),
    "index-a-string": _with_index("1"),
    "index-null": _with_index(None),
    "index-out-of-range": _with_index(2),
    "index-negative": _with_index(-1),
    "entry-not-a-list": _with_entry("edge-w1"),
    "entry-holds-a-number": _with_entry(["edge-w1", 3]),
    "table-missing": _drop_table,
    "table-not-a-list": lambda state: state.update(node_lists={"0": ["edge-w1"]}),
    "list-and-names": _with_both,
    "v1-with-an-index": _v1_with_index,
}


def malformed_v2(mutate) -> str:
    state = json.loads(REPEATED_SNAPSHOT)
    mutate(state)
    return json.dumps(state)


@pytest.mark.parametrize("mutate", MALFORMED_V2.values(), ids=MALFORMED_V2)
def test_restore_refuses_a_malformed_v2_snapshot(mutate):
    with pytest.raises(ValueError):
        KnowledgeBase.restore(malformed_v2(mutate))


@st.composite
def mutated_states(draw) -> str:
    """A recorded KB snapshot, the v1 one with a tombstone or a v2 one with
    decisions, with fields dropped or replaced anywhere in it; for the v2
    one, its decisions' indexes and its table's entries too."""
    state = json.loads(draw(st.sampled_from([TOMBSTONE_STATE, REPEATED_SNAPSHOT])))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(_objects_in(state)))
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)) | text)
        if draw(st.booleans()):
            target.pop(key, None)
        elif key == "node_list" or type(target.get(key)) is list:
            target[key] = draw(json_values | st.integers(-2, 3) | st.lists(json_values, max_size=2))
        else:
            target[key] = draw(json_values)
    return json.dumps(state)


@settings(max_examples=300, deadline=None)
@given(blob=mutated_states() | st.sampled_from(list(MALFORMED_V2.values())).map(malformed_v2)
       | json_values.map(json.dumps) | st.text(max_size=40))
def test_restore_accepts_or_raises_value_error_only(blob):
    try:
        kb = KnowledgeBase.restore(blob)
    except ValueError:
        return
    assert KnowledgeBase.restore(kb.snapshot_state()) == kb


# ---------------------------------------------------------------------------
# Slotted records: the decoder fills them through their slots
# ---------------------------------------------------------------------------

SLOTTED = {
    QoSVector: qos_vectors,
    ClusterRecord: clusters,
    NodeSnapshot: nodes,
    ScheduleDecision: decisions,
    ComponentRecord: components,
    ApplicationRecord: applications,
}
FROZEN = (QoSVector, ClusterRecord, NodeSnapshot, ScheduleDecision)


def encoded(record: object) -> dict:
    return codec.loads(codec.dumps(codec.encoder(type(record))(record)))


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_slotted_record_omitting_defaulted_fields_decodes_with_the_defaults(cls, data):
    record = data.draw(SLOTTED[cls])
    defaulted = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
    doc = {k: v for k, v in encoded(record).items() if k not in {f.name for f in defaulted}}
    decoded = codec.decoder(cls)(doc)
    assert type(decoded) is cls and not hasattr(decoded, "__dict__")
    assert decoded == dataclasses.replace(record, **{f.name: f.default for f in defaulted})


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_a_slotted_record_with_an_unknown_or_missing_field_is_a_value_error(cls):
    doc = encoded(BUILT[cls])
    with pytest.raises(ValueError, match="unknown fields"):
        codec.decoder(cls)({**doc, "extra": 1})
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    for name in required:
        with pytest.raises(ValueError, match="misses fields"):
            codec.decoder(cls)({k: v for k, v in doc.items() if k != name})


@pytest.mark.parametrize("omit_role", [False, True], ids=["complete", "role-omitted"])
@pytest.mark.parametrize("metric", NODE_METRICS)
def test_a_decoded_node_still_refuses_a_negative_metric(metric, omit_role):
    node = {k: v for k, v in {**NODE, metric: -0.5}.items() if not (omit_role and k == "role")}
    with pytest.raises(ValueError, match=f"{metric} must be non-negative"):
        codec.decoder(NodeSnapshot)(node)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_decoded_frozen_record_still_refuses_assignment(cls):
    record = BUILT[cls]
    decoded = codec.decoder(cls)(encoded(record))
    name = dataclasses.fields(cls)[0].name
    for target in (record, decoded):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, getattr(target, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(target, name)
    assert decoded == record


def test_a_decoded_mutable_record_takes_its_fields_and_no_other():
    decoded = codec.decoder(ComponentRecord)(encoded(COMPONENT))
    decoded.status = ComponentStatus.HEALTHY
    assert decoded.status is ComponentStatus.HEALTHY
    with pytest.raises(AttributeError):
        decoded.extra = 1
