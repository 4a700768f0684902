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

``Replica.handle`` hands a message its node renews to that node alone. A
work-count guard: a settled engine step reaches no state machine and no
full handler. An equivalence property: over seeded chaos runs, a renewing
group ends every step where full-path nodes fed oldest first through their
replicas do. Every transport (the engine, the lossy harness, live HTTP)
asks ``RaftNode.renew`` once about each message it delivers, and a message
it does not answer takes the full path once.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import ExitStack
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
from qonnect.raft.replica import Replica
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
    [first] = node.handle_message(ahead)
    assert node.handle_message(ahead) == (first,)
    assert first == AppendResponse(
        src=0, dst=1, term=3, success=False, match_index=0, conflict_index=1
    )
    assert node.handle_message(stale) == (replace(first, dst=2),)


def test_a_stored_answer_is_dropped_once_the_log_changes():
    """Messages no live leader sends: each changes only the log, so only
    the log version tells the follower that its stored answer is stale."""
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    entries = tuple(LogEntry(i, 1, f"x{i}") for i in range(1, 6))
    node.handle_message(AppendRequest(1, 0, 1, 0, 0, entries, leader_commit=0))
    heartbeat = AppendRequest(1, 0, 1, 5, 1, (), leader_commit=0)
    answer = node.handle_message(heartbeat)
    assert answer[0].success and node.renew(heartbeat) is answer
    # The same match index from a rewritten log: the reply stays the same.
    rewrite = (LogEntry(4, 1, "x4"), LogEntry(5, 2, "y5"))
    node.handle_message(AppendRequest(1, 0, 1, 3, 1, rewrite, leader_commit=0))
    [rewritten] = node.handle_message(heartbeat)
    assert (rewritten.success, rewritten.conflict_index) == (False, 5)
    # A snapshot whose term disagrees with the log empties it.
    node.handle_message(AppendRequest(1, 0, 1, 4, 1, (LogEntry(5, 1, "x5"),), leader_commit=0))
    answer = node.handle_message(heartbeat)
    assert answer[0].success and node.renew(heartbeat) is answer
    node.handle_message(SnapshotRequest(1, 0, 1, 3, 2, "state-3"))
    [emptied] = node.handle_message(heartbeat)
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
    renew = RaftNode.renew

    def check_requests(node: RaftNode, messages) -> None:
        for m in messages:
            if isinstance(m, AppendRequest):
                assert m == fresh_request(node, m.dst)
                checked["request"] += 1

    def checked_broadcast(self):
        messages = broadcast(self)
        check_requests(self, messages)
        return messages

    def check_answer(self, msg, reply, result) -> None:
        if reply is not None:
            assert result == (reply,)
            checked["reply"] += 1
        check_requests(self, result)
        if isinstance(msg, (AppendResponse, SnapshotResponse)) and self.role == Role.LEADER:
            commit = self.commit_index
            self._advance_commit()
            assert self.commit_index == commit
            checked["commit check"] += 1

    def checked_handle(self, msg):
        reply = fresh_reply(self, msg) if isinstance(msg, AppendRequest) else None
        result = handle(self, msg)
        check_answer(self, msg, reply, result)
        return result

    def checked_renew(self, msg):
        reply, twin = None, None
        if isinstance(msg, AppendRequest):
            reply = fresh_reply(self, msg)
            # The copy holds a copy of the stored request, not ``msg``
            # itself, so it answers ``msg`` through the full path.
            twin = deepcopy(self)
        result = renew(self, msg)
        if result is None:
            return None
        check_answer(self, msg, reply, result)
        if reply is not None:
            assert handle(twin, msg) == result
            assert node_state(twin) == node_state(self)
            checked["stored answer"] += 1
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
        patch.setattr(RaftNode, "renew", checked_renew)
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


# ---------------------------------------------------------------------------
# Renewals skip the replica, and change nothing a FIFO delivery would not
# ---------------------------------------------------------------------------


class Applied:
    """A state machine that records what its replica hands it."""

    def __init__(self) -> None:
        self.seen: list = []

    def apply_committed(self, index: int, command: str) -> None:
        self.seen.append((index, command))

    def load_snapshot(self, blob: str) -> str:
        return blob

    def install_snapshot(self, state: str, blob: str) -> None:
        self.seen.append(("snapshot", blob))

    def elected(self, term: int) -> None:
        self.seen.append(("elected", term))


class FullPathNode(RaftNode):
    """A node that renews nothing: every message takes the full path."""

    def renew(self, msg):
        return None


class FifoGroup(SyncRaftGroup):
    """Full-path nodes, with every message through ``Replica.handle``,
    oldest first, as the production pump delivers."""


def group_of(cls, size: int, seed: int) -> SyncRaftGroup:
    node_class = FullPathNode if cls is FifoGroup else RaftNode
    members = tuple(range(size))
    return cls({i: replica_of(node_class(RaftConfig(i, members, seed=seed))) for i in members})


def replica_of(node: RaftNode) -> Replica:
    return Replica(node, Applied())


def group_state(group: SyncRaftGroup) -> dict:
    return {
        i: (
            node_state(replica.node), replica.node._heartbeat_elapsed,
            replica.node._next_index, replica.node._match_index, replica.machine.seen,
        )
        for i, replica in group.replicas.items()
    }


def twin_chaos_run(size: int, seed: int, steps: int = 800) -> tuple[SyncRaftGroup, Counter]:
    """Drive a renewing group and a full-path FIFO group through the same
    seeded proposals, crash-restarts and compactions, comparing every node
    after each step. Returns the renewing group and the count of
    ``RaftNode.handle_message`` calls (the full path) by group class and by
    message class."""
    renewing, fifo = group_of(SyncRaftGroup, size, seed), group_of(FifoGroup, size, seed)
    handled: Counter = Counter()
    rng = random.Random(seed)
    handle = RaftNode.handle_message

    def counted(node, msg):
        handled[type(group).__name__] += 1
        handled[type(msg).__name__] += 1
        return handle(node, msg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RaftNode, "handle_message", counted)
        for step in range(steps):
            roll, pick = rng.random(), rng.randrange(size)
            for group in (renewing, fifo):
                if roll < 0.01:  # crash one node, or restart the one down
                    down = next(iter(group.stopped), None)
                    if down is None:
                        group.stop(pick)
                    else:
                        node = group.replicas[down].node
                        group.replicas[down] = replica_of(type(node)(node.config, node.storage))
                        group.stopped.discard(down)
                elif roll < 0.2 and group.leader_id() is not None:
                    group.propose(group.leader_id(), f"cmd-{step}")
                elif roll < 0.25 and pick not in group.stopped:
                    node = group.replicas[pick].node
                    if node.last_applied > node.snapshot_index:
                        node.compact(node.last_applied, f"state-{node.last_applied}")
                group.tick(0.01)
            assert group_state(renewing) == group_state(fifo), f"step {step}"
    return renewing, handled


@settings(max_examples=15, deadline=None)
@given(size=st.sampled_from((3, 5)), seed=st.integers(0, 2**16))
@example(size=3, seed=0)
@example(size=5, seed=0)
def test_a_renewing_pump_ends_where_fifo_delivery_through_the_replica_does(size, seed):
    _, handled = twin_chaos_run(size, seed)
    # Renewals happened, and each skipped a replica.
    assert 0 < handled["SyncRaftGroup"] < handled["FifoGroup"]


@pytest.mark.parametrize("size", [3, 5])
def test_a_twin_chaos_run_elects_again_and_ships_snapshots(size):
    group, handled = twin_chaos_run(size, seed=0)
    assert max(replica.node.current_term for replica in group.replicas.values()) > 1
    assert handled["SnapshotRequest"]


def test_a_settled_engine_step_reaches_no_replica_and_no_full_handler(monkeypatch):
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
    dep.step()
    dep.step()
    calls: Counter = Counter()
    counting(monkeypatch, calls, Replica, "handle", "Replica.handle")
    counting(monkeypatch, calls, RaftNode, "handle_message", "handle_message")
    counting(monkeypatch, calls, RaftNode, "renew", "renew")
    for _ in range(100):
        dep.step()
    # The heartbeat interval is one step: each step the leader's two
    # requests and their two replies are delivered and renewed.
    assert calls == {"Replica.handle": 400, "renew": 400}


def test_a_renewed_reply_its_leader_cannot_absorb_is_delivered_in_turn():
    """A leader that forgot a peer's match, as no live one does: the peer
    renews the repeated heartbeat, and its reply, which raises the match,
    reaches the leader's full path as FIFO delivery would."""
    renewing, fifo = group_of(SyncRaftGroup, 3, 0), group_of(FifoGroup, 3, 0)
    for group in (renewing, fifo):
        for _ in range(100):
            group.tick(0.01)
        leader = group.leader()
        group.propose(leader.config.node_id, "x")
        for _ in range(10):
            group.tick(0.01)
        peer = leader.config.peers[0]
        leader._match_index[peer] = 0
    with pytest.MonkeyPatch.context() as patch:
        matched: Counter = Counter()
        counting(patch, matched, RaftNode, "_on_match", "match")
        renewing.tick(0.05)
    fifo.tick(0.05)
    # Only the reply that raises the match reaches the leader's full path.
    leader = renewing.leader()
    assert matched == {"match": 1} and leader._match_index[peer] == leader.last_log_index
    assert group_state(renewing) == group_state(fifo)


# ---------------------------------------------------------------------------
# One renewal check per delivered message, in every transport
# ---------------------------------------------------------------------------


def asked(patch) -> list[str]:
    """What each ``renew`` call answered ("renewed" or "asked") and each
    full-path ``handle_message`` call ("full"), in order; a list, whose
    appends every transport's threads may share."""
    calls: list[str] = []
    renew, handle = RaftNode.renew, RaftNode.handle_message

    def counted_renew(node, msg):
        result = renew(node, msg)
        calls.append("asked" if result is None else "renewed")
        return result

    def counted_handle(node, msg):
        calls.append("full")
        return handle(node, msg)

    patch.setattr(RaftNode, "renew", counted_renew)
    patch.setattr(RaftNode, "handle_message", counted_handle)
    return calls


def assert_asked_once(calls: list[str]) -> None:
    """Each message ``renew`` did not answer took the full path once, and
    nothing took it unasked."""
    counts = Counter(calls)
    assert counts["renewed"] and counts["full"]
    assert counts["asked"] == counts["full"]


def test_the_engine_asks_renew_once_per_delivered_message(monkeypatch):
    calls = asked(monkeypatch)
    dep = Deployment()
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("bookinfo"))
    dep.run(20.0)
    assert_asked_once(calls)


def test_the_lossy_harness_asks_renew_once_per_delivered_message(monkeypatch):
    calls = asked(monkeypatch)
    chaos_run(size=3, seed=0)
    assert_asked_once(calls)


def test_live_mode_asks_renew_once_per_delivered_message(monkeypatch):
    from test_live_http import fast_spec, free_port_base

    from qonnect.harness.live import LiveDeployment

    calls = asked(monkeypatch)
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        live.client().submit_application(bookinfo_bundle("bookinfo"))
        time.sleep(1.0)
    finally:
        live.stop()
    # Under every replica lock, so no delivery is half done.
    with ExitStack() as held:
        for rla in live.rlas.values():
            held.enter_context(rla._lock)
        done = list(calls)
    assert_asked_once(done)
