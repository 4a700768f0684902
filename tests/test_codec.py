"""The one codec: type rules, round trips of every durable type, recorded
Raft wire payloads, and malformed KB snapshots."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_commands import GOLDEN_STATE, json_values

from qonnect import codec
from qonnect.kb import (
    ApplicationRecord,
    Batch,
    ClusterRecord,
    ComponentRecord,
    ComponentStatus,
    DeleteApplication,
    Domain,
    KnowledgeBase,
    NodeSnapshot,
    PutNodeSnapshot,
    QoSVector,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    ScheduleDecision,
    SubmitApplication,
    UpdateQoS,
    decode_command,
    encode_command,
)
from qonnect.raft import (
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
    pair: tuple[str, Domain, dict]
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
    pair = ("x", Domain.EDGE, {"any": [1, None]})
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


def test_rules_about_meaning_stay_in_post_init():
    with pytest.raises(ValueError, match="non-negative"):
        codec.decoder(QoSVector)({"energy": -1})


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


@pytest.mark.parametrize("tp", [dict[str, Sample], dict[int, str], set[int], list, object])
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
        tuples_of(st.tuples(text, domains, objects)),
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
    ComponentRecord, text, domains, objects, st.sampled_from(ComponentStatus),
    st.none() | decisions, st.none() | times,
)
applications = st.builds(
    ApplicationRecord, text, text, st.dictionaries(text, text, max_size=3), qos_vectors,
    st.lists(components, max_size=3), times, ints, st.booleans(),
)
clusters = st.builds(ClusterRecord, text, domains, text, times)
records = st.one_of(qos_vectors, clusters, nodes, decisions, components, applications)


@settings(max_examples=300, deadline=None)
@given(entry=entries)
def test_every_log_entry_round_trips(entry):
    raw = encode_command(entry)
    assert decode_command(raw) == entry
    assert encode_command(decode_command(raw)) == raw


@settings(max_examples=300, deadline=None)
@given(record=records)
def test_every_kb_record_round_trips(record):
    cls = type(record)
    raw = codec.dumps(codec.encoder(cls)(record))
    assert codec.decoder(cls)(codec.loads(raw)) == record


@settings(max_examples=50, deadline=None)
@given(
    clusters=st.lists(clusters, max_size=3),
    nodes=st.lists(nodes, max_size=3),
    applications=st.lists(applications, max_size=3),
)
def test_kb_snapshot_round_trips(clusters, nodes, applications):
    kb = KnowledgeBase()
    kb.clusters = {c.cluster_id: c for c in clusters}
    kb.nodes = {(n.cluster_id, n.node_name): n for n in nodes}
    kb.applications = {a.app_id: a for a in applications}
    blob = kb.snapshot_state()
    assert KnowledgeBase.restore(blob) == kb
    assert KnowledgeBase.restore(blob).snapshot_state() == blob


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


@pytest.mark.parametrize("version", [0, 2, "1", True, None])
def test_restore_refuses_other_schema_versions(version):
    state = {**json.loads(GOLDEN_STATE), "v": version}
    with pytest.raises(ValueError):
        KnowledgeBase.restore(json.dumps(state))
    assert KnowledgeBase.restore(GOLDEN_STATE).snapshot_state() == GOLDEN_STATE


@st.composite
def mutated_states(draw) -> str:
    """The recorded KB snapshot with fields dropped or replaced anywhere in it."""
    state = json.loads(GOLDEN_STATE)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(_objects_in(state)))
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)) | text)
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    return json.dumps(state)


@settings(max_examples=300, deadline=None)
@given(blob=mutated_states() | json_values.map(json.dumps) | st.text(max_size=40))
def test_restore_accepts_or_raises_value_error_only(blob):
    try:
        kb = KnowledgeBase.restore(blob)
    except ValueError:
        return
    assert KnowledgeBase.restore(kb.snapshot_state()) == kb
