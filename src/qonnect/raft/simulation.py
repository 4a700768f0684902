"""Deterministic in-memory Raft transport for the scenario engine.

``SyncRaftGroup`` delivers instantly: messages cascade to quiescence within
one step, so a proposal commits synchronously while timers still advance
with simulated time. ``ReplicaGroup`` holds the node bookkeeping it shares
with the seeded lossy harness the safety tests drive
(``tests/raft_harness.py``). A transport only delivers messages, each
through its destination's ``Replica.handle`` as live HTTP does; that
replica applies what commits and tells its state machine when the node
wins an election.

A settled heartbeat round is replayed, not delivered. After a tick that
leaves one live leader, every other live node a follower at the leader's
term, commit index and last log index and term that the leader matches
through its last entry, and every live replica applied through its commit
index, a heartbeat changes nothing but timers. The group then records the
round with a key. While one comparison finds the key unchanged and no
follower's timer would fire, a tick leaves each node as the delivering
tick would: each follower's timer advanced, the leader's heartbeat timer
advanced and, when it beats, each follower renewed by
``RaftNode._renewed``. It builds and delivers no message, not even the
request a stopped peer would be sent and the transport drop, so every
seeded run stays the same. Any other tick, decided before any state
changes, is delivered.
"""

from __future__ import annotations

from typing import Any

from qonnect.raft.messages import Message
from qonnect.raft.node import RaftNode, Role
from qonnect.raft.replica import Replica

_FOLLOWER, _LEADER = Role.FOLLOWER, Role.LEADER  # bound once: see raft.node


class ReplicaGroup:
    """Node bookkeeping shared by the in-memory transports: the replicas,
    which of them are stopped, and who leads."""

    def __init__(self, replicas: dict[int, Replica]) -> None:
        self.replicas = replicas
        self.stopped: set[int] = set()

    @property
    def nodes(self) -> dict[int, RaftNode]:
        return {i: replica.node for i, replica in self.replicas.items()}

    def stop(self, node_id: int) -> None:
        self.stopped.add(node_id)

    def leader(self) -> RaftNode | None:
        # With several stale leaders (partitions) prefer the highest term;
        # among equal terms the first replica wins.
        leader = None
        for i, replica in self.replicas.items():
            node = replica.node
            if node.role is _LEADER and i not in self.stopped and (
                leader is None or node.current_term > leader.current_term
            ):
                leader = node
        return leader

    def leader_id(self) -> int | None:
        node = self.leader()
        return node.config.node_id if node is not None else None


class SyncRaftGroup(ReplicaGroup):
    """Raft replicas with instant in-process delivery (run-to-completion)."""

    # The settled round the last tick left: (key, leader, followers, the
    # followers after the leader in node order), or None.
    _round: tuple | None = None

    def pump(self, messages: list[Message]) -> None:
        """Deliver ``messages`` and every message they cause, oldest first;
        the list is the queue. A delivery that raises sends nothing, the
        rest of the queue is still delivered, and then the first exception
        raised is raised again."""
        stopped = self.stopped
        replicas = self.replicas
        failure = None
        for msg in messages:  # a list's iterator also visits what is appended
            if msg.dst not in stopped and msg.src not in stopped:
                try:
                    messages.extend(replicas[msg.dst].handle(msg))
                except Exception as exc:
                    if failure is None:
                        failure = exc
        if failure is not None:
            raise failure

    def tick(self, dt: float) -> None:
        """Replay the recorded settled round while its key and every
        follower's timer allow it, else deliver this tick and record the
        round it leaves, if settled. A replay leaves each node exactly as
        the delivering tick would, and builds and delivers nothing."""
        settled = self._round
        if settled is not None:
            key, leader, followers, later = settled
            if key == self._key(dt, leader):
                for follower in followers:
                    if follower._election_elapsed + dt >= follower._election_deadline:
                        break
                else:
                    ticked = followers
                    leader._heartbeat_elapsed += dt
                    if leader._heartbeat_elapsed >= leader.config.heartbeat_interval:
                        leader._heartbeat_elapsed = 0.0
                        for follower in followers:
                            follower._renewed(leader.config.node_id)
                        # A follower ticked before the leader is renewed
                        # after it, which undoes its tick.
                        ticked = later
                    for follower in ticked:
                        follower._election_elapsed += dt
                    return
        self._round = None
        self._deliver_tick(dt)
        self._round = self._settled(dt)

    def _key(self, dt: float, leader: RaftNode) -> list:
        """What a settled round rests on. The containers are the live ones;
        a recorded key holds copies, so the two compare by value."""
        key = [dt, self.stopped, leader._next_index, leader._match_index]
        for replica in self.replicas.values():
            node = replica.node
            key += (node, node.role, node.current_term, node.commit_index, node._log_version)
        return key

    def _settled(self, dt: float) -> tuple | None:
        """The round to replay from now on, or None. Settled means one live
        leader; every other live node a follower at the leader's term,
        commit index, last log index and last log term, whose match index
        at the leader is that last index and whose next index follows it;
        every live replica applied through its commit index; and ``dt``
        below the shortest election timeout, so a renewed timer cannot fire
        in the same tick. A heartbeat's request then succeeds on each
        follower at the match the leader holds, and its reply sends
        nothing."""
        stopped = self.stopped
        live = [replica.node for i, replica in self.replicas.items() if i not in stopped]
        leaders = [node for node in live if node.role is _LEADER]
        if len(leaders) != 1 or any(node.last_applied < node.commit_index for node in live):
            return None
        leader = leaders[0]
        last = leader.last_log_index
        held = (leader.current_term, leader.commit_index, last, leader.last_log_term)
        followers = [node for node in live if node is not leader]
        for node in followers:
            peer = node.config.node_id
            if node.role is not _FOLLOWER or dt >= node.config.election_timeout[0] \
                    or (node.current_term, node.commit_index, node.last_log_index,
                        node.last_log_term) != held \
                    or leader._match_index[peer] != last or leader._next_index[peer] != last + 1:
                return None
        key = [v.copy() if isinstance(v, (set, dict)) else v for v in self._key(dt, leader)]
        return key, leader, followers, followers[live.index(leader):]

    def _deliver_tick(self, dt: float) -> None:
        """Tick every live node in node order and pump what each one emits.
        A pump that raises stops no later node's tick: the first exception
        raised is raised again once every node has ticked."""
        stopped = self.stopped
        failure = None
        for node_id, replica in self.replicas.items():
            if node_id not in stopped:
                messages = replica.node.tick(dt)
                try:
                    if messages:
                        self.pump(messages)
                except Exception as exc:
                    if failure is None:
                        failure = exc
        if failure is not None:
            raise failure

    def propose(self, node_id: int, command: str) -> Any | None:
        """Propose on ``node_id`` and pump to quiescence.

        Returns the entry's effects, or None when it did not commit (no
        quorum). Raises ``NotLeaderError`` when the node is not the leader.
        """
        replica = self.replicas[node_id]
        return replica.propose(command, lambda _: self.pump(replica.node.broadcast_append()))
