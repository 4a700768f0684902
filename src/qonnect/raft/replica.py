"""One replica: a Raft node, its state machine and the apply path between them.

``Replica.handle`` delivers a message to ``RaftNode.handle_message``, the
node's one path for every message. The state machine loads a snapshot's
blob before the node sees it, so a blob that does not load is refused with
``ValueError`` and never replaces the log.
The replica reads an install from the node: when the node holds a new
``snapshot`` after the message, the replica installs the state already
loaded, and a request the node refuses (a stale term, an index at or below
its own snapshot) never reaches the state machine. When the message made
the node leader (only a vote that completes a majority does; a tick never
does), the replica tells the state machine, before any entry of the new
term commits. The node only raises its commit index; the replica owns
``last_applied`` past the node's snapshot and applies each entry up to the
commit index in order, skipping the leader's empty no-op entries. An
entry whose apply raises is not counted: the cursor stays at the entry
before it, nothing after it applies, and the next delivery tries it again.
``propose`` hands an entry's effects to the one proposer waiting on it.
Transports (the engine's instant group, the seeded lossy harness, live
HTTP) only deliver messages and decide how a proposer waits for its commit.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from qonnect.raft.messages import Message, SnapshotRequest
from qonnect.raft.node import RaftNode, Role

_LEADER = Role.LEADER  # bound once: see raft.node


class StateMachine(Protocol):
    def apply_committed(self, index: int, command: str) -> Any: ...

    def load_snapshot(self, blob: str) -> Any:
        """The state ``blob`` holds; ``ValueError`` if it holds none."""

    def install_snapshot(self, state: Any, blob: str) -> None:
        """Replace the state with ``state``, loaded from ``blob``."""

    def elected(self, term: int) -> None:
        """This node has just become leader of ``term``."""


class Replica:
    def __init__(self, node: RaftNode, machine: StateMachine) -> None:
        self.node = node
        self.machine = machine
        # Log index a local proposer waits on -> (entry term, effects) once
        # applied. Only awaited indexes are filled, so followers keep nothing.
        self._awaited: dict[int, tuple[int | None, Any] | None] = {}
        if node.snapshot is not None:
            # A node reloaded from storage resumes after its snapshot; the
            # entries it covers are never applied again.
            blob = node.snapshot.blob
            machine.install_snapshot(machine.load_snapshot(blob), blob)

    def handle(self, msg: Message) -> tuple[Message, ...]:
        """Deliver ``msg`` to the node and apply what it committed; returns
        the node's outbound messages. Raises ``ValueError``, before the node
        sees ``msg``, for a snapshot the state machine cannot load."""
        node = self.node
        loaded = None
        if isinstance(msg, SnapshotRequest):
            loaded = self.machine.load_snapshot(msg.state_blob)
        role = node.role
        snapshot = node.snapshot
        messages = node.handle_message(msg)
        if role is not _LEADER and node.role is _LEADER:
            self.machine.elected(node.current_term)
        if node.snapshot is not snapshot:
            # Only an installed SnapshotRequest replaces it here: compaction
            # runs later, inside apply.
            self.machine.install_snapshot(loaded, msg.state_blob)
        while node.last_applied < node.commit_index:
            entry = node.entry_at(node.last_applied + 1)
            # Counted before the machine sees it, which may compact the log
            # at the entry it applies.
            node.last_applied = entry.index
            if not entry.command:
                continue  # leader no-ops are not state machine input
            try:
                effects = self.machine.apply_committed(entry.index, entry.command)
            except BaseException:
                node.last_applied = entry.index - 1
                raise
            if entry.index in self._awaited:
                # The term identifies the entry: a proposer whose entry was
                # overwritten by another leader's sees a different term.
                self._awaited[entry.index] = (entry.term, effects)
        return messages

    def propose(self, command: str, wait: Callable[[int], None]) -> Any | None:
        """Append ``command`` to this leader's log, let ``wait(index)``
        deliver it and wait for its commit, and return its effects; None
        when another entry took its place. Raises ``NotLeaderError`` on a
        follower, and whatever ``wait`` raises when it gives up."""
        index = self.node.propose(command)
        term = self.node.current_term
        self._awaited[index] = None
        try:
            wait(index)
        finally:
            effects = self.take_effects(index, term)
        return effects

    def take_effects(self, index: int, term: int) -> Any | None:
        """Stop waiting on ``index``; the effects if the entry proposed in
        ``term`` was applied there, else None (not yet applied, superseded,
        or covered by an installed snapshot)."""
        applied = self._awaited.pop(index, None)
        if applied is None or applied[0] != term:
            return None
        return applied[1]
