"""A quiet engine step builds nothing and does only what is due.

A node answers every request from its state as it stands: alike when
the request repeats, to its sender, and as its log now reads. The leader
checks its commit index only when a peer's match index rises, and owes a
peer whose match holds only what its log has past that match.
The engine runs its agent round only when some live agent has a duty due.
A work-count guard on the booted engine, and an equivalence property over
seeded chaos runs: every append request and reply a node emits equals one
built fresh from its state, and no response leaves a commit that checking
on every response would have made.

Every transport (the engine, the lossy harness, live HTTP) hands each
message it delivers to ``RaftNode.handle_message`` once, through
``Replica.handle``.

The engine's group replays a settled round instead of delivering it. A
work-count guard: a settled engine step reaches no replica and no
handler, and a replayed beat builds no request for a stopped peer. An
equivalence property: over seeded chaos runs, the replaying group ends
every step where a group that delivers every tick, oldest message first,
does; the paper's four scenarios end every step where the delivering
tick does; and a proposal in flight, a stopped or restarted node, an
election, a follower whose timer would fire, a match the leader lost, a
tick too long for the shortest election timeout and an entry committed
but not applied each make a tick deliver.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonnect.agent.ra import ResourceAgent
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.scenarios import run_all
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import RegisterCluster, encode_command
from qonnect.kb.model import ComponentStatus, Domain
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
from support import UNDECODABLE_BATCH

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
    # The round that carries the last entry's commit index.
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
    # it, and its reply reaches the leader's match handling, which raises
    # no match, so checks no commit and sends nothing.
    assert quiet(1) == {"request": 2, "full append": 2, "reply": 2, "match": 2}
    # That round leaves the group settled: every later one is replayed.
    assert quiet(100) == {}


# ---------------------------------------------------------------------------
# The full path answers from the node's state as it stands
# ---------------------------------------------------------------------------


def test_a_repeated_request_is_answered_alike_and_each_reply_goes_to_its_sender():
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


def test_a_repeated_heartbeat_is_answered_from_the_log_as_it_stands():
    """Messages no live leader sends: each changes only the log, and the
    same heartbeat's answer follows every change."""
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)))
    entries = tuple(LogEntry(i, 1, f"x{i}") for i in range(1, 6))
    node.handle_message(AppendRequest(1, 0, 1, 0, 0, entries, leader_commit=0))
    heartbeat = AppendRequest(1, 0, 1, 5, 1, (), leader_commit=0)
    [answer] = node.handle_message(heartbeat)
    assert answer.success and node.handle_message(heartbeat) == (answer,)
    # The same match index from a rewritten log: the heartbeat now conflicts.
    rewrite = (LogEntry(4, 1, "x4"), LogEntry(5, 2, "y5"))
    node.handle_message(AppendRequest(1, 0, 1, 3, 1, rewrite, leader_commit=0))
    [rewritten] = node.handle_message(heartbeat)
    assert (rewritten.success, rewritten.conflict_index) == (False, 5)
    # A snapshot whose term disagrees with the log empties it.
    node.handle_message(AppendRequest(1, 0, 1, 4, 1, (LogEntry(5, 1, "x5"),), leader_commit=0))
    [answer] = node.handle_message(heartbeat)
    assert answer.success and node.handle_message(heartbeat) == (answer,)
    node.handle_message(SnapshotRequest(1, 0, 1, 3, 2, "state-3"))
    [emptied] = node.handle_message(heartbeat)
    assert (emptied.success, emptied.conflict_index) == (False, 4)


def test_a_success_that_raises_no_match_checks_no_commit_and_sends_nothing(monkeypatch):
    """A repeated acknowledgement leaves the peer's match where it was, so
    the quorum index cannot rise; the leader sends the peer only what its
    log holds past that match."""
    group = group_of(SyncRaftGroup, 3, 0)
    for _ in range(200):
        group.tick(0.01)
    leader = group.leader()
    peer = leader.config.peers[0]
    ack = AppendResponse(
        src=peer, dst=leader.config.node_id, term=leader.current_term, success=True,
        match_index=leader._match_index[peer], conflict_index=0,
    )
    checked: Counter = Counter()
    counting(monkeypatch, checked, RaftNode, "_advance_commit", "commit check")
    before = (leader.commit_index, dict(leader._match_index), dict(leader._next_index))
    assert leader.handle_message(ack) == ()
    assert checked == {}
    assert (leader.commit_index, leader._match_index, leader._next_index) == before
    # An entry appended, not yet sent: the same acknowledgement now owes
    # the peer that entry, and still checks no commit.
    index = leader.propose("x")
    [request] = leader.handle_message(ack)
    assert request.dst == peer and request.entries == (leader.entry_at(index),)
    assert checked == {}
    # The acknowledgement of that entry raises the match, and a quorum
    # commits it.
    assert leader.handle_message(replace(ack, match_index=index)) == ()
    assert checked == {"commit check": 1} and leader.commit_index == index


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
    compactions, checking every message a node emits."""
    checked: Counter = Counter()
    broadcast, handle, step = RaftNode.broadcast_append, RaftNode.handle_message, RaftHarness.step

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
        reply = fresh_reply(self, msg) if isinstance(msg, AppendRequest) else None
        result = handle(self, msg)
        if reply is not None:
            assert result == (reply,)
            checked["reply"] += 1
        check_requests(self, result)
        if isinstance(msg, (AppendResponse, SnapshotResponse)) and self.role == Role.LEADER:
            commit = self.commit_index
            self._advance_commit()
            assert self.commit_index == commit
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
# A request arrives again after a message of a higher term raised the
# follower's term, which answers it as stale.
@example(size=5, seed=28422)
def test_every_emitted_append_message_equals_a_fresh_one(size, seed):
    _, checked = checked_chaos_run(size, seed, compact=False)
    assert checked["request"] and checked["reply"] and checked["commit check"]


@pytest.mark.parametrize("size", [3, 5])
def test_every_emitted_append_message_equals_a_fresh_one_under_compaction(size):
    harness, checked = checked_chaos_run(size, seed=11, compact=True)
    assert checked["restart"] and harness.snapshots_installed and checked["reply"]


# ---------------------------------------------------------------------------
# A replayed round changes nothing a FIFO delivery would not
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


class FifoGroup(SyncRaftGroup):
    """Every message through ``Replica.handle``, oldest first, as the
    production pump delivers, on every tick."""

    tick = SyncRaftGroup._deliver_tick


def group_of(cls, size: int, seed: int, **config) -> SyncRaftGroup:
    members = tuple(range(size))
    return cls({
        i: replica_of(RaftNode(RaftConfig(i, members, seed=seed, **config))) for i in members
    })


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
    """Drive a replaying group and a FIFO group through the same seeded
    proposals, crash-restarts and compactions, comparing every node after
    each step. Returns the replaying group and the count of
    ``RaftNode.handle_message`` calls by group class and by message class,
    and of the replaying group's "replayed" ticks."""
    replaying, fifo = group_of(SyncRaftGroup, size, seed), group_of(FifoGroup, size, seed)
    handled: Counter = Counter()
    rng = random.Random(seed)
    handle, deliver = RaftNode.handle_message, SyncRaftGroup._deliver_tick

    def counted(node, msg):
        handled[type(group).__name__] += 1
        handled[type(msg).__name__] += 1
        return handle(node, msg)

    def delivered(group, dt):  # FifoGroup.tick is the unpatched function
        handled["delivered"] += 1
        deliver(group, dt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RaftNode, "handle_message", counted)
        patch.setattr(SyncRaftGroup, "_deliver_tick", delivered)
        for step in range(steps):
            roll, pick = rng.random(), rng.randrange(size)
            for group in (replaying, fifo):
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
            assert group_state(replaying) == group_state(fifo), f"step {step}"
    handled["replayed"] = steps - handled["delivered"]
    return replaying, handled


@settings(max_examples=15, deadline=None)
@given(size=st.sampled_from((3, 5)), seed=st.integers(0, 2**16))
@example(size=3, seed=0)
@example(size=5, seed=0)
def test_a_replaying_group_ends_where_fifo_delivery_through_the_replica_does(size, seed):
    _, handled = twin_chaos_run(size, seed)
    # Settled rounds were replayed, delivering nothing, and FIFO delivery
    # ended every one of them where they did.
    assert 0 < handled["SyncRaftGroup"] < handled["FifoGroup"]
    assert handled["replayed"] > 0


@pytest.mark.parametrize("size", [3, 5])
def test_a_twin_chaos_run_elects_again_and_ships_snapshots(size):
    group, handled = twin_chaos_run(size, seed=0)
    assert max(replica.node.current_term for replica in group.replicas.values()) > 1
    assert handled["SnapshotRequest"]


def test_a_settled_engine_step_reaches_no_replica_and_no_handler(monkeypatch):
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
    calls: Counter = Counter()
    counting(monkeypatch, calls, Replica, "handle", "Replica.handle")
    counting(monkeypatch, calls, RaftNode, "handle_message", "handle_message")
    for _ in range(100):
        dep.step()
    # The heartbeat interval is one step: each step replays the settled
    # round, so no request or reply is delivered.
    assert calls == {}


# ---------------------------------------------------------------------------
# A settled round is replayed, with exactly the delivering tick's effects
# ---------------------------------------------------------------------------


def tick_twins(replaying: SyncRaftGroup, fifo: SyncRaftGroup, dt: float = 0.01) -> bool:
    """Tick both groups, check that the replaying one ends where FIFO
    delivery does, and say whether it replayed its recorded round."""
    recorded = replaying._round
    replaying.tick(dt)
    fifo.tick(dt)
    assert group_state(replaying) == group_state(fifo)
    return recorded is not None and replaying._round is recorded


def settled_twins(**config) -> tuple[SyncRaftGroup, SyncRaftGroup]:
    """A replaying group and its FIFO twin, ticked to their first replay."""
    twins = group_of(SyncRaftGroup, 3, 0, **config), group_of(FifoGroup, 3, 0, **config)
    assert any(tick_twins(*twins) for _ in range(200))
    return twins


def test_a_proposal_in_flight_is_delivered_not_replayed():
    replaying, fifo = settled_twins()
    for group in (replaying, fifo):
        group.leader().propose("x")  # appended, not yet sent
    assert not tick_twins(replaying, fifo)
    assert any(tick_twins(replaying, fifo) for _ in range(20))
    for replica in replaying.replicas.values():
        assert replica.machine.seen[-1] == (2, "x")


def test_a_stopped_node_and_a_restarted_one_are_delivered_not_replayed():
    replaying, fifo = settled_twins()
    peer = replaying.leader().config.peers[0]
    for group in (replaying, fifo):
        group.stop(peer)
    assert not tick_twins(replaying, fifo)
    # Settled again without it: the leader still owes it its request.
    assert any(tick_twins(replaying, fifo) for _ in range(20))
    for group in (replaying, fifo):  # the same node, on a new replica
        node = group.replicas[peer].node
        group.replicas[peer] = replica_of(type(node)(node.config, node.storage))
        group.stopped.discard(peer)
    assert not tick_twins(replaying, fifo)
    assert any(tick_twins(replaying, fifo) for _ in range(20))


def test_an_election_is_delivered_not_replayed():
    replaying, fifo = settled_twins()
    for group in (replaying, fifo):
        group.stop(group.leader_id())
    replayed = []
    while not replayed or not replayed[-1]:
        electing = replaying.leader() is None or any(
            r.node.role is Role.CANDIDATE for r in replaying.replicas.values()
        )
        replayed.append(tick_twins(replaying, fifo))
        assert not (electing and replayed[-1])
    assert replaying.leader().current_term > 1 and len(replayed) > 10


def test_a_follower_whose_timer_would_fire_is_delivered_not_replayed():
    """The heartbeat interval is above the shortest election timeout, so a
    follower's timer can fire between two heartbeats of a settled round."""
    replaying, fifo = settled_twins(heartbeat_interval=0.2)
    fired = replayed = 0
    for _ in range(1000):
        recorded, leader = replaying._round, replaying.leader()
        matched = recorded is not None and recorded[0] == replaying._key(0.01, leader)
        firing = any(
            node.role is Role.FOLLOWER and node._election_elapsed + 0.01 >= node._election_deadline
            for i, node in replaying.nodes.items() if i not in replaying.stopped
        )
        was_replayed = tick_twins(replaying, fifo)
        assert not (firing and was_replayed)
        fired += firing and matched
        replayed += was_replayed
    assert fired and replayed


def test_a_reply_its_leader_cannot_absorb_is_delivered_not_replayed():
    """The leader forgets a peer's match between two heartbeats: that
    peer's next reply raises it again, so no round is recorded until a
    delivered heartbeat carries it."""
    replaying, fifo = settled_twins()
    for group in (replaying, fifo):
        leader = group.leader()
        leader._match_index[leader.config.peers[0]] = 0
    assert not tick_twins(replaying, fifo)
    assert any([tick_twins(replaying, fifo) for _ in range(20)])


def test_a_tick_longer_than_the_shortest_election_timeout_is_never_replayed():
    """A follower renewed in such a tick can still reach its new deadline
    in the same tick, after the leader's heartbeat; the wide timeout range
    lets its old deadline lie past the tick."""
    replaying, fifo = settled_twins(election_timeout=(0.15, 1.0))
    assert not any([tick_twins(replaying, fifo, dt=0.2) for _ in range(200)])


def test_no_tick_is_replayed_while_a_replica_holds_an_entry_it_did_not_apply():
    """An entry whose apply raises, then a valid one: every tick's
    heartbeats reach each replica's apply loop, which tries the entry
    again and raises again, and no round is recorded while the entry is
    committed and unapplied."""
    dep = Deployment(TestbedSpec(seed=3))
    dep.boot()
    leader = dep.group.leader()
    leader.propose(UNDECODABLE_BATCH)
    leader.propose(encode_command(RegisterCluster("10.9.9.9", Domain.EDGE, 1.0)))
    raised = 0
    for _ in range(20):
        try:
            dep.group.tick(Deployment.DT)
        except ValueError:
            raised += 1
        assert dep.group._round is None
    assert raised == 20
    assert all(n.last_applied < n.commit_index for n in dep.group.nodes.values())


def test_every_scenario_step_ends_where_the_delivering_tick_does():
    """The paper's four scenarios at two seeds, once as shipped and once
    with every tick delivered: every node's state after every step, and
    the event log at the end, are equal."""

    def run(seed: int, replay: bool) -> tuple[list, list, int]:
        dep = Deployment(TestbedSpec(seed=seed))
        states: list = []
        step, deliver = Deployment.step, SyncRaftGroup._deliver_tick
        delivered = [0]

        def recorded(self):
            step(self)
            # A copy of each container, and the RNG state's hash in place of
            # its 625 words.
            states.append([
                node_state(node)[:5] + (tuple(node._entries),) + node_state(node)[6:-1] + (
                    hash(node._rng.getstate()), node._heartbeat_elapsed, node._log_version,
                    dict(node._next_index), dict(node._match_index),
                )
                for node in self.group.nodes.values()
            ])

        def counted(group, dt):
            delivered[0] += 1
            deliver(group, dt)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Deployment, "step", recorded)
            patch.setattr(SyncRaftGroup, "_deliver_tick", counted)
            if not replay:
                patch.setattr(SyncRaftGroup, "tick", counted)
            run_all(dep)
        return states, dep.events.events, len(states) - delivered[0]

    for seed in (1, 2):
        states, events, replayed = run(seed, replay=True)
        reference, reference_events, none = run(seed, replay=False)
        assert none == 0 and replayed > len(states) // 2
        assert len(states) == len(reference)
        for i, (state, expected) in enumerate(zip(states, reference)):
            assert state == expected, f"seed {seed}, step {i}"
        assert events == reference_events


def test_a_replayed_beat_builds_no_request_for_a_stopped_peer(monkeypatch):
    """Scenario 4 stops the old leader, and the new one beats on for the
    rest of the run: a delivered beat builds the stopped peer's request,
    which the pump drops, and a replayed beat builds nothing."""
    dep = Deployment(TestbedSpec(seed=7))
    phase: list[str] = []  # "replay" while a tick runs, "delivery" once it delivers
    built: Counter = Counter()
    append_for, tick = RaftNode._append_for, SyncRaftGroup.tick
    deliver = SyncRaftGroup._deliver_tick

    def ticking(group, dt):
        phase.append("replay")
        try:
            tick(group, dt)
        finally:
            replayed = phase.pop() == "replay"
        if replayed and group.stopped:
            built["replayed tick with a peer stopped"] += 1

    def delivering(group, dt):
        phase[-1] = "delivery"
        deliver(group, dt)

    def building(node, peer):
        if peer in dep.group.stopped:
            built[f"request in {phase[-1] if phase else 'proposal'}"] += 1
        return append_for(node, peer)

    monkeypatch.setattr(SyncRaftGroup, "tick", ticking)
    monkeypatch.setattr(SyncRaftGroup, "_deliver_tick", delivering)
    monkeypatch.setattr(RaftNode, "_append_for", building)
    run_all(dep)
    assert built["replayed tick with a peer stopped"] and built["request in delivery"]
    assert built["request in replay"] == 0


# ---------------------------------------------------------------------------
# Each delivered message reaches the node's handler once, in every transport
# ---------------------------------------------------------------------------


def delivered_and_handled(patch) -> tuple[list, list]:
    """The messages handed to ``Replica.handle`` and to
    ``RaftNode.handle_message``, in order; lists, whose appends every
    transport's threads may share. Each list holds what it records, so no
    two recorded messages share an ``id``."""
    delivered: list = []
    handled: list = []
    deliver, handle = Replica.handle, RaftNode.handle_message

    def counted_deliver(replica, msg):
        delivered.append(msg)
        return deliver(replica, msg)

    def counted_handle(node, msg):
        handled.append(msg)
        return handle(node, msg)

    patch.setattr(Replica, "handle", counted_deliver)
    patch.setattr(RaftNode, "handle_message", counted_handle)
    return delivered, handled


def run_engine() -> None:
    dep = Deployment()
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("bookinfo"))
    dep.run(20.0)


def run_lossy_harness() -> None:
    chaos_run(size=3, seed=0)


def run_live_http() -> list:
    """Run live mode, and return the replica locks, which are held while no
    delivery is half done."""
    from test_live_http import fast_spec, free_port_base

    from qonnect.harness.live import LiveDeployment

    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        live.client().submit_application(bookinfo_bundle("bookinfo"))
        time.sleep(1.0)
    finally:
        live.stop()
    return [rla._lock for rla in live.rlas.values()]


@pytest.mark.parametrize(
    "run", [run_engine, run_lossy_harness, run_live_http], ids=["engine", "lossy", "live"]
)
def test_each_delivered_message_reaches_handle_message_once(monkeypatch, run):
    delivered, handled = delivered_and_handled(monkeypatch)
    locks = run() or []
    with ExitStack() as held:
        for lock in locks:
            held.enter_context(lock)
        delivered, handled = list(delivered), list(handled)
    assert handled and Counter(map(id, handled)) == Counter(map(id, delivered))
