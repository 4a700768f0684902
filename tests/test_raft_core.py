"""Raft node behavior: elections, replication, safety, persistence."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonnect.raft import (
    AppendRequest,
    AppendResponse,
    FileStorage,
    LogEntry,
    MemoryStorage,
    NotLeaderError,
    RaftConfig,
    RaftNode,
    Role,
    SnapshotRequest,
    SnapshotResponse,
    VoteRequest,
    VoteResponse,
    decode_message,
    encode_message,
)
from qonnect.raft.simulation import RaftHarness
from qonnect.raft.storage import Snapshot


def make_node(node_id: int = 0, size: int = 3, **kwargs) -> RaftNode:
    return RaftNode(RaftConfig(node_id=node_id, members=tuple(range(size)), **kwargs))


def elect(harness: RaftHarness, timeout: float = 5.0) -> int:
    assert harness.run_until(lambda: harness.leader_id() is not None, timeout)
    leader = harness.leader_id()
    assert leader is not None
    return leader


# ---------------------------------------------------------------------------
# tick
# ---------------------------------------------------------------------------


def test_election_timeout_emits_vote_requests_at_term_two():
    node = make_node()
    messages = node.tick(0.35)  # beyond the max 300 ms timeout
    assert node.role == Role.CANDIDATE
    assert node.current_term == 2
    assert node.voted_for == 0
    vote_requests = [m for m in messages if isinstance(m, VoteRequest)]
    assert len(vote_requests) == 2
    assert {m.dst for m in vote_requests} == {1, 2}
    assert all(m.term == 2 for m in vote_requests)


def test_leader_emits_empty_heartbeats_each_interval():
    harness = RaftHarness(size=3, seed=7)
    leader = elect(harness)
    harness.run(0.3)  # let the election no-op replicate everywhere
    node = harness.nodes[leader]
    node.tick(0.01)  # not yet due right after the last broadcast
    messages = node.tick(0.05)
    appends = [m for m in messages if isinstance(m, AppendRequest)]
    assert len(appends) == 2
    assert all(m.entries == () for m in appends)


def test_config_rejects_even_or_tiny_membership():
    with pytest.raises(ValueError):
        RaftConfig(node_id=0, members=(0, 1))
    with pytest.raises(ValueError):
        RaftConfig(node_id=0, members=(0, 1, 2, 3))


# ---------------------------------------------------------------------------
# handle_message
# ---------------------------------------------------------------------------


def test_candidate_with_one_grant_wins_three_node_election():
    node = make_node()
    node.tick(0.35)
    result = node.handle_message(VoteResponse(src=1, dst=0, term=2, granted=True))
    assert node.role == Role.LEADER
    appends = [m for m in result.messages if isinstance(m, AppendRequest)]
    assert len(appends) == 2


def test_vote_granted_at_most_once_per_term():
    node = make_node(node_id=2)
    req = VoteRequest(src=0, dst=2, term=2, last_log_index=0, last_log_term=0)
    first = node.handle_message(req)
    assert first.messages[0].granted
    rival = VoteRequest(src=1, dst=2, term=2, last_log_index=0, last_log_term=0)
    second = node.handle_message(rival)
    assert not second.messages[0].granted


def test_stale_term_message_rejected_with_current_term():
    node = make_node(node_id=1)
    node.handle_message(VoteRequest(src=0, dst=1, term=5, last_log_index=0, last_log_term=0))
    assert node.current_term == 5
    stale = AppendRequest(
        src=2, dst=1, term=3, prev_log_index=0, prev_log_term=0, entries=(), leader_commit=0
    )
    result = node.handle_message(stale)
    reply = result.messages[0]
    assert isinstance(reply, AppendResponse)
    assert not reply.success
    assert reply.term == 5


def test_mismatched_previous_term_rejected_then_leader_backs_up():
    follower = make_node(node_id=1)
    # Follower holds an entry at index 1 from term 2.
    follower.handle_message(
        AppendRequest(
            src=0,
            dst=1,
            term=2,
            prev_log_index=0,
            prev_log_term=0,
            entries=(LogEntry(1, 2, "a"),),
            leader_commit=0,
        )
    )
    # A new leader at term 4 believes prev entry (1) has term 3.
    mismatch = AppendRequest(
        src=2,
        dst=1,
        term=4,
        prev_log_index=1,
        prev_log_term=3,
        entries=(LogEntry(2, 4, "b"),),
        leader_commit=0,
    )
    result = follower.handle_message(mismatch)
    reply = result.messages[0]
    assert isinstance(reply, AppendResponse)
    assert not reply.success
    assert reply.conflict_index == 1

    # The leader side: build a real leader with a conflicting log and check
    # it retries from the hinted index.
    harness = RaftHarness(size=3, seed=3)
    leader_id = elect(harness)
    leader = harness.nodes[leader_id]
    leader.propose("x")
    peer = leader.config.peers[0]
    response = AppendResponse(
        src=peer,
        dst=leader_id,
        term=leader.current_term,
        success=False,
        match_index=0,
        conflict_index=1,
    )
    retry = leader.handle_message(response)
    assert len(retry.messages) == 1
    again = retry.messages[0]
    assert isinstance(again, AppendRequest)
    assert again.prev_log_index == 0


# ---------------------------------------------------------------------------
# propose
# ---------------------------------------------------------------------------


def test_propose_appends_at_next_index():
    harness = RaftHarness(size=3, seed=11)
    leader_id = elect(harness)
    leader = harness.nodes[leader_id]
    # Bring the log to last index 4 (the election itself adds a no-op entry).
    while leader.last_log_index < 4:
        leader.propose(f"c{leader.last_log_index}")
    assert leader.propose("c4") == 5


def test_propose_on_follower_raises_with_leader_hint():
    harness = RaftHarness(size=3, seed=13)
    leader_id = elect(harness)
    harness.run(0.2)  # let heartbeats teach everyone the leader
    follower_id = next(i for i in harness.nodes if i != leader_id)
    with pytest.raises(NotLeaderError) as excinfo:
        harness.nodes[follower_id].propose("nope")
    assert excinfo.value.leader_id == leader_id


def test_interleaved_proposals_converge_identically():
    # Oracle: all three applied sequences must be the same 100 commands in
    # the same order, compared directly.
    harness = RaftHarness(size=3, seed=17)
    elect(harness)
    sent = 0
    while sent < 100:
        if harness.propose(f"op-{sent}") is not None:
            sent += 1
        harness.step()
    assert harness.run_until(
        lambda: all(len(harness.applied[i]) >= 100 for i in harness.nodes), timeout=10.0
    )
    sequences = [
        [harness.applied[i][k] for k in sorted(harness.applied[i])] for i in harness.nodes
    ]
    assert sequences[0] == sequences[1] == sequences[2]
    assert sequences[0] == [f"op-{i}" for i in range(100)]


# ---------------------------------------------------------------------------
# compact / snapshots
# ---------------------------------------------------------------------------


def committed_harness(n_entries: int, seed: int = 23) -> tuple[RaftHarness, int]:
    harness = RaftHarness(size=3, seed=seed)
    leader_id = elect(harness)
    sent = 0
    while sent < n_entries:
        if harness.propose(f"e-{sent}") is not None:
            sent += 1
        harness.step()
    assert harness.run_until(
        lambda: all(len(harness.applied[i]) >= n_entries for i in harness.alive()), 10.0
    )
    return harness, harness.leader_id()


def test_compact_discards_prefix_and_rejects_unapplied():
    harness, leader_id = committed_harness(60)
    leader = harness.nodes[leader_id]
    snap = leader.compact(50, state_blob="state-at-50")
    assert snap.index == 50
    assert leader.entries_from(1)[0].index == 51
    with pytest.raises(ValueError):
        leader.compact(leader.last_applied + 10, state_blob="too-far")


def test_lagging_follower_receives_snapshot_then_appends():
    harness, leader_id = committed_harness(30)
    leader = harness.nodes[leader_id]
    lagger = next(i for i in harness.nodes if i != leader_id)
    harness.stop(lagger)
    sent = 0
    while sent < 30:
        if harness.propose(f"late-{sent}") is not None:
            sent += 1
        harness.step()
    assert harness.run_until(lambda: leader.last_applied >= leader.last_log_index, 10.0)
    compact_at = leader.last_applied - 5
    leader.compact(compact_at, state_blob=f"state-at-{compact_at}")

    harness.restart(lagger)
    target = leader.last_log_index
    assert harness.run_until(lambda: harness.nodes[lagger].last_applied >= target, 10.0)
    assert harness.snapshots_installed.get(lagger) == compact_at
    # Appends resume past the snapshot base: the trailing entries arrive
    # through the normal replication path and match the leader's log.
    for index in range(compact_at + 1, target + 1):
        entry = leader.entry_at(index)
        if entry.command:
            assert harness.applied[lagger].get(index) == entry.command


def test_restart_from_wal_and_snapshot_preserves_state(tmp_path):
    storages = {i: FileStorage(tmp_path / f"node-{i}") for i in range(3)}
    harness = RaftHarness(size=3, seed=29, storages=storages)
    leader_id = elect(harness)
    sent = 0
    while sent < 20:
        if harness.propose(f"w-{sent}") is not None:
            sent += 1
        harness.step()
    assert harness.run_until(
        lambda: all(len(harness.applied[i]) >= 20 for i in harness.nodes), 10.0
    )
    leader = harness.nodes[leader_id]
    leader.compact(10, state_blob="blob-10")

    before = {
        i: (n.current_term, n.last_log_index, n.entries_from(1))
        for i, n in harness.nodes.items()
    }
    for i in range(3):
        harness.stop(i)
    for i in range(3):
        harness.restart(i)
    for i, node in harness.nodes.items():
        term, last_index, entries = before[i]
        assert node.current_term == term
        assert node.last_log_index == last_index
        assert node.entries_from(1) == entries
    assert harness.nodes[leader_id].snapshot.blob == "blob-10"


@pytest.mark.parametrize("durable", [False, True])
def test_storage_reloads_term_vote_snapshot_and_entries_after_compaction(tmp_path, durable):
    storage = FileStorage(tmp_path) if durable else MemoryStorage()
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)), storage=storage)
    entries = tuple(LogEntry(i, 2, f"c{i}") for i in range(1, 6))
    node.handle_message(VoteRequest(src=1, dst=0, term=2, last_log_index=0, last_log_term=0))
    node.handle_message(AppendRequest(1, 0, 2, 0, 0, entries, leader_commit=2))
    # A new term and vote, then a leader whose log disagrees from index 4 on.
    node.handle_message(VoteRequest(src=2, dst=0, term=3, last_log_index=5, last_log_term=2))
    node.handle_message(AppendRequest(2, 0, 3, 3, 2, (LogEntry(4, 3, "x4"),), leader_commit=4))
    node.compact(3, state_blob="blob-3")
    node.handle_message(AppendRequest(2, 0, 3, 4, 3, (LogEntry(5, 3, "x5"),), leader_commit=4))
    assert (node.current_term, node.voted_for) == (3, 2)

    if durable:
        storage.close()
        storage = FileStorage(tmp_path)
        storage.close()  # load reads the files afresh
    state = storage.load()
    assert (state.term, state.voted_for) == (node.current_term, node.voted_for)
    assert state.snapshot == node.snapshot and state.snapshot.blob == "blob-3"
    assert state.entries == node.entries_from(4) == [LogEntry(4, 3, "x4"), LogEntry(5, 3, "x5")]


@pytest.mark.parametrize("version", [0, 2, "1", True, None])
def test_file_storage_refuses_other_snapshot_file_versions(tmp_path, version):
    storage = FileStorage(tmp_path)
    storage.save_snapshot(Snapshot(index=3, term=2, blob="blob-3"), [LogEntry(4, 2, "c4")])
    storage.close()
    assert FileStorage(tmp_path).load().snapshot == Snapshot(3, 2, "blob-3")
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "v": version}))
    with pytest.raises(ValueError):
        FileStorage(tmp_path).load()


# ---------------------------------------------------------------------------
# Elections under failure (derived oracle: seeded tick counting)
# ---------------------------------------------------------------------------


def test_five_node_cluster_reelects_after_leader_kill():
    successes = 0
    for seed in range(100):
        harness = RaftHarness(size=5, seed=seed)
        leader = elect(harness)
        harness.stop(leader)
        # Bounded: 2 seconds of simulated time (≥6 election timeouts).
        if harness.run_until(
            lambda: harness.leader_id() is not None and harness.leader_id() != leader,
            timeout=2.0,
        ):
            successes += 1
    assert successes >= 99


def test_partition_heals_with_identical_logs():
    harness = RaftHarness(size=3, seed=31)
    leader_id = elect(harness)
    sent = 0
    while sent < 5:
        if harness.propose(f"base-{sent}") is not None:
            sent += 1
        harness.step()
    harness.run(0.5)

    # Cut the old leader off with no quorum; it accumulates an uncommitted suffix.
    minority = leader_id
    majority = [i for i in harness.nodes if i != leader_id]
    harness.network.partition([[minority], majority])
    stale = harness.nodes[minority]
    for i in range(3):
        stale.propose(f"stale-{i}")
    assert harness.run_until(
        lambda: any(harness.nodes[i].role == Role.LEADER for i in majority), 5.0
    )
    new_leader = next(i for i in majority if harness.nodes[i].role == Role.LEADER)
    sent = 0
    while sent < 4:
        idx = harness.propose(f"new-{sent}")
        if idx is not None and harness.leader_id() == new_leader:
            sent += 1
        harness.step()

    harness.network.partition(None)
    assert harness.run_until(
        lambda: all(
            harness.nodes[i].last_log_index == harness.nodes[new_leader].last_log_index
            for i in harness.nodes
        )
        and all(harness.nodes[i].commit_index >= 9 for i in harness.nodes),
        10.0,
    )
    logs = [harness.nodes[i].entries_from(1) for i in harness.nodes]
    assert logs[0] == logs[1] == logs[2]
    commands = [e.command for e in logs[0]]
    assert "stale-0" not in commands  # diverged suffix truncated and overwritten


# ---------------------------------------------------------------------------
# Wire encoding
# ---------------------------------------------------------------------------


def test_message_roundtrip_is_self_describing():
    msg = AppendRequest(
        src=0,
        dst=1,
        term=3,
        prev_log_index=4,
        prev_log_term=2,
        entries=(LogEntry(5, 3, "cmd"),),
        leader_commit=4,
    )
    raw = encode_message(msg)
    assert '"kind":"append-request"' in raw
    assert decode_message(raw) == msg
    with pytest.raises(ValueError):
        decode_message('{"v": 99, "kind": "append-request"}')


@pytest.mark.parametrize(
    "raw",
    [
        "[1]",
        '"append-request"',
        "null",
        '{"v": 1, "kind": ["append-request"]}',
        '{"v": 1, "kind": "vote-request", "src": 0}',  # missing fields
        '{"v": 1, "kind": "vote-response", "src": 0, "dst": 1, "term": 1, "granted": true, "x": 1}',
        '{"v": 1, "kind": "append-request", "src": 0, "dst": 1, "term": 1, "prev_log_index": 0,'
        ' "prev_log_term": 0, "leader_commit": 0}',  # no entries
        '{"v": 1, "kind": "append-request", "src": 0, "dst": 1, "term": 1, "prev_log_index": 0,'
        ' "prev_log_term": 0, "entries": [7], "leader_commit": 0}',
        # Well-formed JSON objects with mistyped fields.
        '{"v": 1, "kind": "vote-request", "src": 0, "dst": 1, "term": "x", "last_log_index": 0,'
        ' "last_log_term": 0}',
        '{"v": 1, "kind": "vote-response", "src": true, "dst": 1, "term": 1, "granted": true}',
        '{"v": 1, "kind": "vote-response", "src": 0, "dst": 1, "term": 1, "granted": 1}',
        '{"v": 1, "kind": "append-request", "src": 0, "dst": 1, "term": 1, "prev_log_index": 0,'
        ' "prev_log_term": 0, "entries": [{"index": "a", "term": 1, "command": 3}],'
        ' "leader_commit": 0}',
        '{"v": 1, "kind": "append-request", "src": 0, "dst": 1, "term": 1, "prev_log_index": 0,'
        ' "prev_log_term": 0, "entries": {"index": 1}, "leader_commit": 0}',
        '{"v": 1, "kind": "snapshot-request", "src": 0, "dst": 1, "term": 1,'
        ' "last_included_index": 1, "last_included_term": 1, "state_blob": null}',
        # Entries with a gap after prev_log_index.
        '{"v": 1, "kind": "append-request", "src": 0, "dst": 1, "term": 1, "prev_log_index": 0,'
        ' "prev_log_term": 0, "entries": [{"index": 5, "term": 1, "command": ""}],'
        ' "leader_commit": 5}',
    ],
)
def test_malformed_messages_raise_value_error(raw):
    with pytest.raises(ValueError):
        decode_message(raw)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_WIRE_TYPES = {"int": st.integers(-2, 6), "bool": st.booleans(), "str": st.text(max_size=4)}
_MESSAGE_TYPES = (
    VoteRequest,
    VoteResponse,
    AppendRequest,
    AppendResponse,
    SnapshotRequest,
    SnapshotResponse,
)


@st.composite
def wire_payloads(draw) -> str:
    """Raft payloads near the wire format: each field mostly well typed."""
    cls = draw(st.sampled_from(_MESSAGE_TYPES))
    payload: dict = {"v": 1, "kind": cls.kind}
    for f in fields(cls):
        if draw(st.integers(0, 9)) == 0:
            payload[f.name] = draw(_JSON)  # likely mistyped
        elif f.name == "entries":
            prev = payload["prev_log_index"]
            contiguous = type(prev) is int and draw(st.booleans())
            first = prev + 1 if contiguous else draw(st.integers(-2, 6))
            count = draw(st.integers(0, 3))
            payload[f.name] = [
                {"index": first + i, "term": draw(st.integers(-1, 4)), "command": draw(st.text())}
                for i in range(count)
            ]
        else:
            payload[f.name] = draw(_WIRE_TYPES[f.type])
    if draw(st.integers(0, 9)) == 0:
        payload.pop(draw(st.sampled_from(sorted(payload))))
    return json.dumps(payload)


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(_JSON.map(json.dumps), wire_payloads()))
def test_any_json_decodes_or_raises_value_error_and_never_crashes_a_node(raw):
    try:
        msg = decode_message(raw)
    except ValueError:
        return
    make_node(0).handle_message(msg)
