"""A quiet engine step builds nothing and does only what is due.

A leader resends a peer's last empty AppendRequest while its term, commit
index, log version and the peer's next index hold; a follower answers the
very request it last answered from the stored result while its term, role
and log version hold. The leader checks its commit index only when a
peer's match index rises, and drops a success that raises nothing and
leaves nothing to send. The engine runs its agent round only when some
live agent has a duty due. A work-count guard on the booted engine, and an
equivalence property over seeded chaos runs: every append request and
reply a node emits equals one built fresh from its state, every stored
answer equals the full path's on a copy of the node, and no response
leaves a commit that checking on every response would have made.
"""

from __future__ import annotations

import random
from collections import Counter
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonnect.agent.ra import ResourceAgent
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.kb.model import ComponentStatus
from qonnect.raft.messages import (
    AppendRequest,
    AppendResponse,
    LogEntry,
    SnapshotRequest,
    SnapshotResponse,
)
from qonnect.raft.node import MAX_APPEND_ENTRIES, RaftConfig, RaftNode, Role
from qonnect.raft.simulation import SyncRaftGroup
from raft_checks import chaos_run
from raft_harness import RaftHarness

# ---------------------------------------------------------------------------
# Work count on the engine
# ---------------------------------------------------------------------------


def counting(patch, built: Counter, owner, name: str, key: str) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        built[key] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, counted)


def test_quiet_engine_steps_build_no_append_message_and_check_no_commit(monkeypatch):
    dep = Deployment()
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("bookinfo"))
    assert dep.run_until(
        lambda: all(
            c.status == ComponentStatus.HEALTHY
            for c in dep.kb().live_application("bookinfo").components
        ),
        60.0,
    )
    # The round that carries the last entry's commit index, then the round
    # whose answer each follower stores.
    dep.step()
    dep.step()
    built: Counter = Counter()
    counting(monkeypatch, built, AppendRequest, "__init__", "request")
    counting(monkeypatch, built, AppendResponse, "__init__", "reply")
    counting(monkeypatch, built, RaftNode, "_on_append_request", "full append")
    counting(monkeypatch, built, RaftNode, "_on_match", "match")
    counting(monkeypatch, built, RaftNode, "_advance_commit", "commit check")
    counting(monkeypatch, built, SyncRaftGroup, "propose", "proposal")
    # Steps on which an agent round ran, and steps on which one was due.
    ran: set[float] = set()
    due: set[float] = set()
    run_due = ResourceAgent.run_due

    def recorded(agent, now):
        ran.add(now)
        run_due(agent, now)

    monkeypatch.setattr(ResourceAgent, "run_due", recorded)

    def quiet(steps: int) -> Counter:
        built.clear()
        for _ in range(steps):
            live = [a for name, a in dep.agents.items() if dep.clusters[name].ra_alive]
            if min(agent.next_due for agent in live) <= dep.now + dep.DT:
                due.add(dep.now + dep.DT)
            dep.step()
        return built

    assert quiet(100) == {}
    # A snapshot, poll or heartbeat came due in 5 simulated seconds, and
    # the agents ran on exactly those steps.
    assert due and ran == due
    # One entry: a request carries it to each follower, each acknowledges
    # it once, and each acknowledgement is a match rise.
    leader = dep.leader_service()
    cluster = next(iter(leader.kb.clusters.values()))
    leader.register_cluster(cluster.external_ip, cluster.domain.value)
    assert built == {
        "proposal": 1, "request": 2, "full append": 2, "reply": 2, "match": 2, "commit check": 2,
    }
    # The next round carries the new commit index; each follower answers
    # it, and its reply raises no match.
    assert quiet(1) == {"request": 2, "full append": 2, "reply": 2}
    # The round after resends it, and each follower stores its answer.
    assert quiet(1) == {"full append": 2, "reply": 2}
    assert quiet(100) == {}


def test_a_reply_is_resent_only_to_the_node_it_answered():
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    # Both requests get "send from index 1" in term 3, from different nodes.
    ahead = AppendRequest(
        src=1, dst=0, term=3, prev_log_index=5, prev_log_term=3, entries=(), leader_commit=0
    )
    stale = replace(ahead, src=2, term=2)
    [first] = node.handle_message(ahead).messages
    assert node.handle_message(ahead).messages == (first,)
    assert first == AppendResponse(
        src=0, dst=1, term=3, success=False, match_index=0, conflict_index=1
    )
    assert node.handle_message(stale).messages == (replace(first, dst=2),)


def test_a_stored_answer_is_dropped_once_the_log_changes():
    """Messages no live leader sends: each changes only the log, so only
    the log version tells the follower that its stored answer is stale."""
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    entries = tuple(LogEntry(i, 1, f"x{i}") for i in range(1, 6))
    node.handle_message(AppendRequest(1, 0, 1, 0, 0, entries, leader_commit=0))
    heartbeat = AppendRequest(1, 0, 1, 5, 1, (), leader_commit=0)
    answer = node.handle_message(heartbeat)
    assert answer.messages[0].success and node.handle_message(heartbeat) is answer
    # The same match index from a rewritten log: the reply stays the same.
    rewrite = (LogEntry(4, 1, "x4"), LogEntry(5, 2, "y5"))
    node.handle_message(AppendRequest(1, 0, 1, 3, 1, rewrite, leader_commit=0))
    [rewritten] = node.handle_message(heartbeat).messages
    assert (rewritten.success, rewritten.conflict_index) == (False, 5)
    # A snapshot whose term disagrees with the log empties it.
    node.handle_message(AppendRequest(1, 0, 1, 4, 1, (LogEntry(5, 1, "x5"),), leader_commit=0))
    answer = node.handle_message(heartbeat)
    assert answer.messages[0].success and node.handle_message(heartbeat) is answer
    node.handle_message(SnapshotRequest(1, 0, 1, 3, 2, "state-3"))
    [emptied] = node.handle_message(heartbeat).messages
    assert (emptied.success, emptied.conflict_index) == (False, 4)


# ---------------------------------------------------------------------------
# Equivalence over chaos runs
# ---------------------------------------------------------------------------

CHAOS_SECONDS = 8.0


def fresh_request(node: RaftNode, peer: int) -> AppendRequest:
    """The AppendRequest ``node`` owes ``peer``, built from its state."""
    next_index = node._next_index[peer]
    last = min(node.last_log_index, next_index + MAX_APPEND_ENTRIES - 1)
    return AppendRequest(
        src=node.config.node_id,
        dst=peer,
        term=node.current_term,
        prev_log_index=next_index - 1,
        prev_log_term=node.term_at(next_index - 1),
        entries=tuple(node.entry_at(i) for i in range(next_index, last + 1)),
        leader_commit=node.commit_index,
    )


def fresh_reply(node: RaftNode, msg: AppendRequest) -> AppendResponse:
    """The reply ``node`` owes ``msg``, built from its state before it
    handles ``msg``."""
    here = node.term_at(msg.prev_log_index)
    if msg.term < node.current_term:
        match, conflict = 0, node.last_log_index + 1
    elif msg.prev_log_index > node.snapshot_index and here != msg.prev_log_term:
        match, conflict = 0, msg.prev_log_index if here is not None else node.last_log_index + 1
    else:
        match, conflict = msg.prev_log_index + len(msg.entries), 0
    return AppendResponse(
        src=node.config.node_id,
        dst=msg.src,
        term=max(node.current_term, msg.term),
        success=conflict == 0,
        match_index=match,
        conflict_index=conflict,
    )


def node_state(node: RaftNode) -> tuple:
    return (
        node.current_term, node.voted_for, node.role, node.leader_id,
        node.snapshot, node._entries, node.commit_index, node.last_applied,
        node._election_elapsed, node._election_deadline, node._rng.getstate(),
    )


def checked_chaos_run(size: int, seed: int, compact: bool) -> tuple[RaftHarness, Counter]:
    """``chaos_run`` with seeded node restarts and, if ``compact``, log
    compactions, checking every message a node emits and every answer a
    follower gives from its stored result."""
    checked: Counter = Counter()
    broadcast, handle, step = RaftNode.broadcast_append, RaftNode.handle_message, RaftHarness.step
    full_append = RaftNode._on_append_request
    full_appends = Counter()

    def counted_full_append(self, msg):
        full_appends[self] += 1
        return full_append(self, msg)

    def check_requests(node: RaftNode, messages) -> None:
        for m in messages:
            if isinstance(m, AppendRequest):
                assert m == fresh_request(node, m.dst)
                checked["request"] += 1

    def checked_broadcast(self):
        messages = broadcast(self)
        check_requests(self, messages)
        return messages

    def checked_handle(self, msg):
        reply, twin = None, None
        if isinstance(msg, AppendRequest):
            reply = fresh_reply(self, msg)
            # The copy holds a copy of the stored request, not ``msg``
            # itself, so it answers ``msg`` through the full path.
            twin = deepcopy(self)
        full = full_appends[self]
        result = handle(self, msg)
        if reply is not None:
            assert result.messages == (reply,)
            checked["reply"] += 1
            if full_appends[self] == full:
                assert handle(twin, msg) == result
                assert node_state(twin) == node_state(self)
                checked["stored answer"] += 1
        check_requests(self, result.messages)
        if isinstance(msg, (AppendResponse, SnapshotResponse)) and self.role == Role.LEADER:
            commit = self.commit_index
            assert self._advance_commit() == () and self.commit_index == commit
            checked["commit check"] += 1
        return result

    rng = random.Random(seed)

    def chaos_step(self, dt=0.01):
        if self.now < CHAOS_SECONDS:
            node_id = rng.randrange(size)
            if rng.random() < 0.01:
                self.restart(node_id)
                checked["restart"] += 1
            node = self.replicas[node_id].node
            if compact and rng.random() < 0.05 and node.last_applied > node.snapshot_index:
                node.compact(node.last_applied, f"state-{node.last_applied}")
        step(self, dt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RaftNode, "broadcast_append", checked_broadcast)
        patch.setattr(RaftNode, "handle_message", checked_handle)
        patch.setattr(RaftNode, "_on_append_request", counted_full_append)
        patch.setattr(RaftHarness, "step", chaos_step)
        harness = chaos_run(size=size, seed=seed, duration=CHAOS_SECONDS)
    return harness, checked


@settings(max_examples=20, deadline=None)
@given(size=st.sampled_from((3, 5)), seed=st.integers(0, 2**16))
@example(size=3, seed=0)
@example(size=5, seed=0)
# Restarted late in the chaos phase: every node agreed on a commit index
# below one a node had applied before its restart.
@example(size=3, seed=155)
@example(size=5, seed=175)
# A stored request arrives again after a message of a higher term raised
# the follower's term: the full path answers it as stale.
@example(size=5, seed=28422)
def test_every_emitted_append_message_equals_a_fresh_one(size, seed):
    _, checked = checked_chaos_run(size, seed, compact=False)
    assert checked["request"] and checked["reply"] and checked["commit check"]
    assert checked["stored answer"]


@pytest.mark.parametrize("size", [3, 5])
def test_every_emitted_append_message_equals_a_fresh_one_under_compaction(size):
    harness, checked = checked_chaos_run(size, seed=11, compact=True)
    assert checked["restart"] and harness.snapshots_installed and checked["stored answer"]
