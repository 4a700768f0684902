"""Deterministic in-memory Raft transports.

``LossyNetwork`` + ``RaftHarness`` drive a cluster through seeded message
drops, delivery jitter, scripted partitions, and node stop/restart, for
safety and liveness testing. ``SyncRaftGroup`` is the instant-delivery
variant used by the scenario engine: messages cascade to quiescence within
one step, so a proposal commits synchronously while timers still advance
with simulated time.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Iterable

from qonnect.raft.messages import Message
from qonnect.raft.node import RaftConfig, RaftNode, Role
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


class RaftHarness:
    """Seeded multi-node simulation over a ``LossyNetwork``.

    Tracks, per node, every applied ``(index, command)`` and every
    ``(term, node)`` moment of leadership, which is what the safety
    invariants are asserted against.
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
        self.nodes: dict[int, RaftNode] = {
            i: RaftNode(
                RaftConfig(
                    node_id=i,
                    members=members,
                    election_timeout=election_timeout,
                    heartbeat_interval=heartbeat_interval,
                    seed=seed,
                ),
                storage=self.storages[i],
            )
            for i in members
        }
        self.network = LossyNetwork(seed=seed ^ 0x5EED, drop_rate=drop_rate, jitter=jitter)
        self.now = 0.0
        self.stopped: set[int] = set()
        self.applied: dict[int, dict[int, str]] = {i: {} for i in members}
        self.snapshots_installed: dict[int, int] = {}
        self.leaders_by_term: dict[int, set[int]] = {}
        self._proposal_counter = 0

    # -- lifecycle ------------------------------------------------------

    def stop(self, node_id: int) -> None:
        self.stopped.add(node_id)

    def restart(self, node_id: int) -> None:
        """Kill -9 style restart: rebuild the node from its storage."""
        node = self.nodes[node_id]
        self.nodes[node_id] = RaftNode(node.config, storage=self.storages[node_id])
        self.stopped.discard(node_id)

    def alive(self) -> list[int]:
        return [i for i in self.nodes if i not in self.stopped]

    # -- observation ----------------------------------------------------

    def _observe(self, node: RaftNode) -> None:
        if node.role == Role.LEADER:
            self.leaders_by_term.setdefault(node.current_term, set()).add(node.config.node_id)

    def leader_id(self) -> int | None:
        leaders = [i for i in self.alive() if self.nodes[i].role == Role.LEADER]
        if not leaders:
            return None
        # With multiple stale leaders (partition scenarios) prefer highest term.
        return max(leaders, key=lambda i: self.nodes[i].current_term)

    # -- driving --------------------------------------------------------

    def _dispatch(self, messages: Iterable[Message]) -> None:
        for msg in messages:
            self.network.send(msg, self.now)

    def step(self, dt: float = 0.01) -> None:
        self.now += dt
        for node_id in self.alive():
            node = self.nodes[node_id]
            self._dispatch(node.tick(dt))
            self._observe(node)
        for msg in self.network.due(self.now):
            if msg.dst in self.stopped:
                continue
            node = self.nodes[msg.dst]
            result = node.handle_message(msg)
            for index, command in result.committed:
                if command:  # leader no-ops are not state machine input
                    self.applied[msg.dst][index] = command
            if result.snapshot_installed is not None:
                self.snapshots_installed[msg.dst] = node.snapshot_index
            self._dispatch(result.messages)
            self._observe(node)

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
        leader = self.leader_id()
        if leader is None:
            return None
        self._proposal_counter += 1
        cmd = command if command is not None else f"cmd-{self._proposal_counter}"
        node = self.nodes[leader]
        index = node.propose(cmd)
        self._dispatch(node.broadcast_append())
        return index


class SyncRaftGroup:
    """Raft cluster with instant in-process delivery (run-to-completion).

    ``apply_fns[node_id]`` is invoked for every committed command on that
    node, in commit order; ``restore_fns[node_id]`` replaces the node's
    state machine from a snapshot blob.
    """

    def __init__(
        self,
        configs: list[RaftConfig],
        storages: dict[int, RaftStorage] | None = None,
    ) -> None:
        storages = storages or {}
        self.nodes: dict[int, RaftNode] = {
            cfg.node_id: RaftNode(cfg, storage=storages.get(cfg.node_id)) for cfg in configs
        }
        self.stopped: set[int] = set()
        self.apply_fns: dict[int, Callable[[int, str], None]] = {}
        self.restore_fns: dict[int, Callable[[str], None]] = {}

    def stop(self, node_id: int) -> None:
        self.stopped.add(node_id)

    def alive_nodes(self) -> list[RaftNode]:
        return [n for i, n in self.nodes.items() if i not in self.stopped]

    def leader(self) -> RaftNode | None:
        leaders = [n for n in self.alive_nodes() if n.role == Role.LEADER]
        return max(leaders, key=lambda n: n.current_term) if leaders else None

    def pump(self, messages: Iterable[Message]) -> None:
        queue = deque(messages)
        while queue:
            msg = queue.popleft()
            if msg.dst in self.stopped or msg.src in self.stopped:
                continue
            node = self.nodes[msg.dst]
            result = node.handle_message(msg)
            if result.snapshot_installed is not None and msg.dst in self.restore_fns:
                self.restore_fns[msg.dst](result.snapshot_installed)
            apply_fn = self.apply_fns.get(msg.dst)
            if apply_fn is not None:
                for index, command in result.committed:
                    if command:  # skip leader no-op entries
                        apply_fn(index, command)
            queue.extend(result.messages)

    def tick(self, dt: float) -> None:
        for node in self.alive_nodes():
            self.pump(node.tick(dt))

    def propose(
        self,
        node_id: int,
        command: str,
        on_append: Callable[[int], None] | None = None,
    ) -> int:
        """Propose on ``node_id`` and pump to quiescence; returns the entry's index.

        ``on_append(index)`` runs once the entry is in the leader's log and
        before it can commit. The entry need not have committed on return
        (no quorum); callers learn that from the apply side. Raises
        ``NotLeaderError`` when the target node is not the leader.
        """
        node = self.nodes[node_id]
        index = node.propose(command)
        if on_append is not None:
            on_append(index)
        self.pump(node.broadcast_append())
        return index
