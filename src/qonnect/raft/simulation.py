"""Deterministic in-memory Raft transport for the scenario engine.

``SyncRaftGroup`` delivers instantly: messages cascade to quiescence within
one step, so a proposal commits synchronously while timers still advance
with simulated time. ``ReplicaGroup`` holds the node bookkeeping it shares
with the seeded lossy harness the safety tests drive
(``tests/raft_harness.py``). A transport only delivers messages, each
through its destination's ``Replica.handle`` as live HTTP does; that
replica applies what commits and tells its state machine when the node
wins an election.
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
