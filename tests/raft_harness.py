"""Seeded lossy Raft harness for the safety and liveness tests.

``LossyNetwork`` + ``RaftHarness`` drive a cluster through seeded message
drops, delivery jitter, scripted partitions, and node stop/restart. The
harness only delivers messages; each node's ``Replica`` applies what
commits, and a ``_Recorder`` state machine records it and each election
the replica reports. The harness also observes, from outside, every node
that leads after each delivery: the independent record that election
safety is checked against, and that the replicas' reports must equal.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Iterable

from qonnect.raft.messages import Message
from qonnect.raft.node import RaftConfig, RaftNode, Role
from qonnect.raft.replica import Replica
from qonnect.raft.simulation import ReplicaGroup
from qonnect.raft.storage import MemoryStorage, RaftStorage


class LossyNetwork:
    """Message queue with seeded drop/delay and partition injection."""

    def __init__(
        self,
        seed: int,
        drop_rate: float = 0.0,
        base_delay: float = 0.002,
        jitter: float = 0.0,
    ) -> None:
        self._rng = random.Random(seed)
        self.drop_rate = drop_rate
        self.base_delay = base_delay
        self.jitter = jitter
        self._queue: list[tuple[float, int, Message]] = []
        self._seq = 0
        self._groups: list[frozenset[int]] | None = None

    def partition(self, groups: Iterable[Iterable[int]] | None) -> None:
        """Install a partition (disjoint groups) or heal with ``None``."""
        self._groups = None if groups is None else [frozenset(g) for g in groups]

    def _connected(self, a: int, b: int) -> bool:
        if self._groups is None:
            return True
        return any(a in g and b in g for g in self._groups)

    def send(self, msg: Message, now: float) -> None:
        if self._rng.random() < self.drop_rate:
            return
        if not self._connected(msg.src, msg.dst):
            return
        deliver_at = now + self.base_delay + self._rng.uniform(0.0, self.jitter)
        self._seq += 1
        heapq.heappush(self._queue, (deliver_at, self._seq, msg))

    def due(self, now: float) -> list[Message]:
        out = []
        while self._queue and self._queue[0][0] <= now:
            _, _, msg = heapq.heappop(self._queue)
            # Partitions cut in-flight traffic too.
            if self._connected(msg.src, msg.dst):
                out.append(msg)
        return out


class _Recorder:
    """The harness's state machine: records what one node applies, and
    each ``(term, node)`` election its replica reports."""

    def __init__(
        self,
        node: RaftNode,
        applied: dict[int, str],
        restored: dict[int, int],
        elections: list[tuple[int, int]],
    ) -> None:
        self.node = node
        self.applied = applied
        self.restored = restored
        self.elections = elections

    def apply_committed(self, index: int, command: str) -> None:
        self.applied[index] = command

    def load_snapshot(self, blob: str) -> str:
        return blob

    def install_snapshot(self, state: str, blob: str) -> None:
        self.restored[self.node.config.node_id] = self.node.snapshot_index

    def elected(self, term: int) -> None:
        self.elections.append((term, self.node.config.node_id))


class RaftHarness(ReplicaGroup):
    """Seeded multi-node simulation over a ``LossyNetwork``.

    Tracks, per node, every applied ``(index, command)`` and the index of
    the snapshot it last restored from; and every ``(term, node)`` moment
    of leadership, both as observed and as the replicas reported it. The
    safety invariants are asserted against these.
    """

    def __init__(
        self,
        size: int,
        seed: int,
        drop_rate: float = 0.0,
        jitter: float = 0.0,
        storages: dict[int, RaftStorage] | None = None,
        election_timeout: tuple[float, float] = (0.15, 0.30),
        heartbeat_interval: float = 0.05,
    ) -> None:
        members = tuple(range(size))
        self.seed = seed
        self.storages = storages or {i: MemoryStorage() for i in members}
        self.applied: dict[int, dict[int, str]] = {i: {} for i in members}
        self.snapshots_installed: dict[int, int] = {}
        self.leaders_by_term: dict[int, set[int]] = {}
        self.elections: list[tuple[int, int]] = []
        super().__init__({
            i: self._replica(RaftConfig(i, members, election_timeout, heartbeat_interval, seed))
            for i in members
        })
        self.network = LossyNetwork(seed=seed ^ 0x5EED, drop_rate=drop_rate, jitter=jitter)
        self.now = 0.0
        self._proposal_counter = 0

    def _replica(self, config: RaftConfig) -> Replica:
        node = RaftNode(config, storage=self.storages[config.node_id])
        recorder = _Recorder(
            node, self.applied[config.node_id], self.snapshots_installed, self.elections
        )
        return Replica(node, recorder)

    def restart(self, node_id: int) -> None:
        """Kill -9 style restart: rebuild the node from its storage."""
        self.replicas[node_id] = self._replica(self.replicas[node_id].node.config)
        self.stopped.discard(node_id)

    def alive(self) -> list[int]:
        return [i for i in self.replicas if i not in self.stopped]

    def observe(self, node_id: int) -> None:
        """Record ``node_id`` under its current term if it leads it."""
        node = self.replicas[node_id].node
        if node.role == Role.LEADER:
            self.leaders_by_term.setdefault(node.current_term, set()).add(node_id)

    # -- driving --------------------------------------------------------

    def _send(self, messages: Iterable[Message]) -> None:
        for msg in messages:
            self.network.send(msg, self.now)

    def step(self, dt: float = 0.01) -> None:
        self.now += dt
        for node_id in self.alive():
            self._send(self.replicas[node_id].node.tick(dt))
            self.observe(node_id)
        for msg in self.network.due(self.now):
            if msg.dst in self.stopped:
                continue
            self._send(self.replicas[msg.dst].handle(msg))
            self.observe(msg.dst)

    def run(self, duration: float, dt: float = 0.01) -> None:
        steps = int(round(duration / dt))
        for _ in range(steps):
            self.step(dt)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float, dt: float = 0.01
    ) -> bool:
        deadline = self.now + timeout
        while self.now < deadline:
            if predicate():
                return True
            self.step(dt)
        return predicate()

    def propose(self, command: str | None = None) -> int | None:
        """Propose on the current leader, if any; returns the log index."""
        leader = self.leader()
        if leader is None:
            return None
        self._proposal_counter += 1
        cmd = command if command is not None else f"cmd-{self._proposal_counter}"
        index = leader.propose(cmd)
        self._send(leader.broadcast_append())
        return index


