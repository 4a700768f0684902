"""Deterministic in-memory Raft transport for the scenario engine.

``SyncRaftGroup`` delivers instantly: messages cascade to quiescence within
one step, so a proposal commits synchronously while timers still advance
with simulated time. ``ReplicaGroup`` holds the node bookkeeping it shares
with the seeded lossy harness the safety tests drive
(``tests/raft_harness.py``). A transport only delivers messages; each
node's ``Replica`` applies what commits and tells its state machine when
the node wins an election.
"""

from __future__ import annotations

from typing import Any

from qonnect.raft.messages import Message
from qonnect.raft.node import RaftNode, Role
from qonnect.raft.replica import Replica

_LEADER = Role.LEADER  # bound once: see raft.node


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

    def pump(self, messages: list[Message]) -> None:
        """Deliver ``messages`` and every message they cause, oldest first.
        Appends what it delivers to ``messages``, which serves as the queue.

        The pump asks ``RaftNode.renew`` about each message, and hands one
        it does not answer to ``Replica.receive``, which does not ask again.
        A message its destination node renews reaches that node alone: a
        renewal commits nothing, installs no snapshot and elects no one, so
        its replica has nothing to apply. A renewed reply goes at once to
        its own destination's ``renew``, and is queued only when that
        returns None (then it is asked again in turn; a leader that forgot
        a peer's match, as no live one does, is the only source of such a
        reply). This delivers as the queue would. The reply
        absorbed is a follower's success that raises its leader's match for
        it no further, with nothing to send after it. Only the messages
        queued ahead of it would reach the leader first, and none of them
        can give it an effect. A match index never falls, and no proposal
        runs inside a pump, so the leader's log grows only in a later term,
        which drops the reply as well. The follower's next index moves only
        on its own replies, and within a pump a leader sends a follower a
        request only in the broadcast that starts it or in answer to the
        follower's last reply, so no other reply from it is in flight.
        """
        stopped = self.stopped
        replicas = self.replicas
        for msg in messages:  # a list's iterator also visits what is appended
            if msg.dst in stopped or msg.src in stopped:
                continue
            replica = replicas[msg.dst]
            renewed = replica.node.renew(msg)
            if renewed is None:
                messages.extend(replica.receive(msg))
                continue
            for reply in renewed.messages:
                if replicas[reply.dst].node.renew(reply) is None:
                    messages.append(reply)

    def tick(self, dt: float) -> None:
        stopped = self.stopped
        for node_id, replica in self.replicas.items():
            if node_id not in stopped:
                messages = replica.node.tick(dt)
                if messages:
                    self.pump(messages)

    def propose(self, node_id: int, command: str) -> Any | None:
        """Propose on ``node_id`` and pump to quiescence.

        Returns the entry's effects, or None when it did not commit (no
        quorum). Raises ``NotLeaderError`` when the node is not the leader.
        """
        replica = self.replicas[node_id]
        return replica.propose(command, lambda _: self.pump(replica.node.broadcast_append()))
