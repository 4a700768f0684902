"""Sans-IO Raft node: a single logical event loop driven by ticks and messages.

The node never touches the network. ``tick`` advances timers and returns
outbound messages; ``handle_message`` applies one inbound message and returns
outbound messages plus any commands that just became committed, in order.
Callers own delivery (deterministic in-memory or HTTP) and apply committed
commands to their state machine.

Role transitions follow the classic finite-state machine: a follower whose
election timer fires becomes a candidate, a candidate reaching a majority
becomes leader, and any node observing a higher term falls back to follower.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from qonnect.raft.messages import (
    AppendRequest,
    AppendResponse,
    LogEntry,
    Message,
    SnapshotRequest,
    SnapshotResponse,
    VoteRequest,
    VoteResponse,
)
from qonnect.raft.storage import MemoryStorage, RaftStorage, Snapshot


class Role(str, Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class NotLeaderError(Exception):
    """Raised when a write is attempted on a non-leader node."""

    def __init__(self, leader_id: int | None) -> None:
        super().__init__(f"not leader (last known leader: {leader_id})")
        self.leader_id = leader_id


@dataclass(frozen=True)
class RaftConfig:
    node_id: int
    members: tuple[int, ...]
    election_timeout: tuple[float, float] = (0.15, 0.30)
    heartbeat_interval: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.members) < 3 or len(self.members) % 2 == 0:
            raise ValueError("membership must be an odd count of at least 3 nodes")
        if self.node_id not in self.members:
            raise ValueError("node_id must be a member")
        lo, hi = self.election_timeout
        if not 0 < lo <= hi:
            raise ValueError("election timeout range must satisfy 0 < min <= max")

    @property
    def peers(self) -> tuple[int, ...]:
        return tuple(m for m in self.members if m != self.node_id)


@dataclass
class ReceiveResult:
    """Outcome of handling one inbound message."""

    messages: list[Message] = field(default_factory=list)
    committed: list[tuple[int, str]] = field(default_factory=list)
    snapshot_installed: str | None = None


class RaftNode:
    def __init__(self, config: RaftConfig, storage: RaftStorage | None = None) -> None:
        self.config = config
        self.storage = storage if storage is not None else MemoryStorage()
        self._rng = random.Random(config.seed ^ (config.node_id * 0x9E3779B1))

        persisted = self.storage.load()
        self.current_term = persisted.term
        self.voted_for = persisted.voted_for
        self._snapshot = persisted.snapshot
        self._entries: list[LogEntry] = persisted.entries

        self.role = Role.FOLLOWER
        self.leader_id: int | None = None
        self.commit_index = self.snapshot_index
        self.last_applied = self.snapshot_index

        self._votes: set[int] = set()
        self._next_index: dict[int, int] = {}
        self._match_index: dict[int, int] = {}

        self._election_elapsed = 0.0
        self._election_deadline = self._random_timeout()
        self._heartbeat_elapsed = 0.0

    # ------------------------------------------------------------------
    # Log access
    # ------------------------------------------------------------------

    @property
    def snapshot(self) -> Snapshot | None:
        return self._snapshot

    @property
    def snapshot_index(self) -> int:
        return self._snapshot.index if self._snapshot else 0

    @property
    def snapshot_term(self) -> int:
        return self._snapshot.term if self._snapshot else 0

    @property
    def last_log_index(self) -> int:
        return self._entries[-1].index if self._entries else self.snapshot_index

    @property
    def last_log_term(self) -> int:
        return self._entries[-1].term if self._entries else self.snapshot_term

    def entry_at(self, index: int) -> LogEntry | None:
        offset = index - self.snapshot_index - 1
        if 0 <= offset < len(self._entries):
            return self._entries[offset]
        return None

    def term_at(self, index: int) -> int | None:
        """Term of the entry at ``index``, covering the snapshot boundary."""
        if index == 0:
            return 0
        if index == self.snapshot_index:
            return self.snapshot_term
        entry = self.entry_at(index)
        return entry.term if entry else None

    def entries_from(self, index: int) -> list[LogEntry]:
        offset = max(0, index - self.snapshot_index - 1)
        return self._entries[offset:]

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _random_timeout(self) -> float:
        lo, hi = self.config.election_timeout
        return self._rng.uniform(lo, hi)

    def _reset_election_timer(self) -> None:
        self._election_elapsed = 0.0
        self._election_deadline = self._random_timeout()

    def tick(self, elapsed: float) -> list[Message]:
        """Advance timers by ``elapsed`` seconds and emit any due messages."""
        if self.role == Role.LEADER:
            self._heartbeat_elapsed += elapsed
            if self._heartbeat_elapsed >= self.config.heartbeat_interval:
                return self.broadcast_append()
            return []
        self._election_elapsed += elapsed
        if self._election_elapsed >= self._election_deadline:
            return self._start_election()
        return []

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

    def _start_election(self) -> list[Message]:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.config.node_id
        self.storage.save_state(self.current_term, self.voted_for)
        self.leader_id = None
        self._votes = {self.config.node_id}
        self._reset_election_timer()
        return [
            VoteRequest(
                src=self.config.node_id,
                dst=peer,
                term=self.current_term,
                last_log_index=self.last_log_index,
                last_log_term=self.last_log_term,
            )
            for peer in self.config.peers
        ]

    def _become_leader(self) -> list[Message]:
        self.role = Role.LEADER
        self.leader_id = self.config.node_id
        self._next_index = {p: self.last_log_index + 1 for p in self.config.peers}
        self._match_index = {p: 0 for p in self.config.peers}
        # Empty entry in the new term: commits immediately on quorum and
        # thereby releases any prior-term entries still awaiting commit.
        noop = LogEntry(index=self.last_log_index + 1, term=self.current_term, command="")
        self._entries.append(noop)
        self.storage.append_entries([noop])
        return self.broadcast_append()

    def _step_down(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            self.storage.save_state(self.current_term, self.voted_for)
        self.role = Role.FOLLOWER
        self._votes = set()
        self._reset_election_timer()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def propose(self, command: str) -> int:
        """Append ``command`` to the leader's log; returns its log index."""
        if self.role != Role.LEADER:
            raise NotLeaderError(self.leader_id)
        entry = LogEntry(index=self.last_log_index + 1, term=self.current_term, command=command)
        self._entries.append(entry)
        self.storage.append_entries([entry])
        return entry.index

    def broadcast_append(self) -> list[Message]:
        """Emit append (or snapshot install) messages to every peer now."""
        if self.role != Role.LEADER:
            return []
        self._heartbeat_elapsed = 0.0
        return [self._append_for(peer) for peer in self.config.peers]

    def _append_for(self, peer: int) -> Message:
        next_idx = self._next_index.get(peer, self.last_log_index + 1)
        if next_idx <= self.snapshot_index and self._snapshot is not None:
            return SnapshotRequest(
                src=self.config.node_id,
                dst=peer,
                term=self.current_term,
                last_included_index=self._snapshot.index,
                last_included_term=self._snapshot.term,
                state_blob=self._snapshot.blob,
            )
        prev_index = next_idx - 1
        prev_term = self.term_at(prev_index)
        if prev_term is None:
            # prev falls inside the compacted prefix; ship the snapshot.
            assert self._snapshot is not None
            return SnapshotRequest(
                src=self.config.node_id,
                dst=peer,
                term=self.current_term,
                last_included_index=self._snapshot.index,
                last_included_term=self._snapshot.term,
                state_blob=self._snapshot.blob,
            )
        return AppendRequest(
            src=self.config.node_id,
            dst=peer,
            term=self.current_term,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=tuple(self.entries_from(next_idx)),
            leader_commit=self.commit_index,
        )

    def compact(self, upto_index: int, state_blob: str) -> Snapshot:
        """Discard the log prefix up to ``upto_index``, keeping the state blob."""
        if upto_index > self.last_applied:
            raise ValueError(
                f"cannot compact beyond applied state ({upto_index} > {self.last_applied})"
            )
        if upto_index <= self.snapshot_index:
            assert self._snapshot is not None
            return self._snapshot
        term = self.term_at(upto_index)
        assert term is not None
        snapshot = Snapshot(index=upto_index, term=term, blob=state_blob)
        self._entries = [e for e in self._entries if e.index > upto_index]
        self._snapshot = snapshot
        self.storage.save_snapshot(snapshot, self._entries)
        return snapshot

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle_message(self, msg: Message) -> ReceiveResult:
        if msg.term > self.current_term:
            self._step_down(msg.term)

        if isinstance(msg, VoteRequest):
            return self._on_vote_request(msg)
        if isinstance(msg, VoteResponse):
            return self._on_vote_response(msg)
        if isinstance(msg, AppendRequest):
            return self._on_append_request(msg)
        if isinstance(msg, AppendResponse):
            return self._on_append_response(msg)
        if isinstance(msg, SnapshotRequest):
            return self._on_snapshot_request(msg)
        if isinstance(msg, SnapshotResponse):
            return self._on_snapshot_response(msg)
        raise TypeError(f"unhandled message type: {type(msg)!r}")

    def _on_vote_request(self, msg: VoteRequest) -> ReceiveResult:
        granted = False
        if msg.term == self.current_term and self.voted_for in (None, msg.src):
            log_ok = msg.last_log_term > self.last_log_term or (
                msg.last_log_term == self.last_log_term
                and msg.last_log_index >= self.last_log_index
            )
            if log_ok:
                granted = True
                self.voted_for = msg.src
                self.storage.save_state(self.current_term, self.voted_for)
                self._reset_election_timer()
        return ReceiveResult(
            messages=[
                VoteResponse(
                    src=self.config.node_id, dst=msg.src, term=self.current_term, granted=granted
                )
            ]
        )

    def _on_vote_response(self, msg: VoteResponse) -> ReceiveResult:
        if self.role != Role.CANDIDATE or msg.term != self.current_term or not msg.granted:
            return ReceiveResult()
        self._votes.add(msg.src)
        if len(self._votes) * 2 > len(self.config.members):
            return ReceiveResult(messages=self._become_leader())
        return ReceiveResult()

    def _on_append_request(self, msg: AppendRequest) -> ReceiveResult:
        node_id = self.config.node_id
        if msg.term < self.current_term:
            reply = AppendResponse(
                src=node_id,
                dst=msg.src,
                term=self.current_term,
                success=False,
                match_index=0,
                conflict_index=self.last_log_index + 1,
            )
            return ReceiveResult(messages=[reply])

        # Valid leader for this term.
        self.role = Role.FOLLOWER
        self.leader_id = msg.src
        self._reset_election_timer()

        prev_term_here = self.term_at(msg.prev_log_index)
        if msg.prev_log_index > self.snapshot_index and prev_term_here != msg.prev_log_term:
            if prev_term_here is None:
                conflict = self.last_log_index + 1
            else:
                conflict = msg.prev_log_index
            reply = AppendResponse(
                src=node_id,
                dst=msg.src,
                term=self.current_term,
                success=False,
                match_index=0,
                conflict_index=conflict,
            )
            return ReceiveResult(messages=[reply])

        appended_through = msg.prev_log_index
        new_entries: list[LogEntry] = []
        truncated = False
        for entry in msg.entries:
            if entry.index <= self.snapshot_index:
                appended_through = max(appended_through, entry.index)
                continue
            existing = self.entry_at(entry.index)
            if existing is not None and existing.term == entry.term:
                appended_through = entry.index
                continue
            if existing is not None and not truncated:
                self._entries = [e for e in self._entries if e.index < entry.index]
                self.storage.truncate_from(entry.index)
                truncated = True
            new_entries.append(entry)
            appended_through = entry.index
        if new_entries:
            self._entries.extend(new_entries)
            self.storage.append_entries(new_entries)

        committed: list[tuple[int, str]] = []
        if msg.leader_commit > self.commit_index:
            # Never regress: a retransmission of an old prefix must not pull
            # the commit index back below what we already know is committed.
            self.commit_index = max(
                self.commit_index, min(msg.leader_commit, appended_through)
            )
            committed = self._collect_applied()

        reply = AppendResponse(
            src=node_id,
            dst=msg.src,
            term=self.current_term,
            success=True,
            match_index=appended_through,
            conflict_index=0,
        )
        return ReceiveResult(messages=[reply], committed=committed)

    def _on_append_response(self, msg: AppendResponse) -> ReceiveResult:
        if self.role != Role.LEADER or msg.term != self.current_term:
            return ReceiveResult()
        if msg.success:
            if msg.match_index > self._match_index.get(msg.src, 0):
                self._match_index[msg.src] = msg.match_index
            self._next_index[msg.src] = self._match_index[msg.src] + 1
            committed = self._advance_commit()
            messages: list[Message] = []
            if self._next_index[msg.src] <= self.last_log_index:
                messages.append(self._append_for(msg.src))
            return ReceiveResult(messages=messages, committed=committed)
        # Log mismatch: back up and retry immediately.
        self._next_index[msg.src] = max(1, min(msg.conflict_index, self.last_log_index + 1))
        return ReceiveResult(messages=[self._append_for(msg.src)])

    def _advance_commit(self) -> list[tuple[int, str]]:
        matches = sorted(
            [self.last_log_index] + [self._match_index.get(p, 0) for p in self.config.peers],
            reverse=True,
        )
        quorum_index = matches[len(self.config.members) // 2]
        if quorum_index > self.commit_index and self.term_at(quorum_index) == self.current_term:
            self.commit_index = quorum_index
            return self._collect_applied()
        return []

    def _collect_applied(self) -> list[tuple[int, str]]:
        applied: list[tuple[int, str]] = []
        while self.last_applied < self.commit_index:
            nxt = self.last_applied + 1
            entry = self.entry_at(nxt)
            if entry is None:
                break
            applied.append((entry.index, entry.command))
            self.last_applied = nxt
        return applied

    def _on_snapshot_request(self, msg: SnapshotRequest) -> ReceiveResult:
        if msg.term < self.current_term:
            return ReceiveResult(
                messages=[
                    SnapshotResponse(
                        src=self.config.node_id,
                        dst=msg.src,
                        term=self.current_term,
                        match_index=self.snapshot_index,
                    )
                ]
            )
        self.role = Role.FOLLOWER
        self.leader_id = msg.src
        self._reset_election_timer()

        installed: str | None = None
        if msg.last_included_index > self.snapshot_index:
            snapshot = Snapshot(
                index=msg.last_included_index,
                term=msg.last_included_term,
                blob=msg.state_blob,
            )
            # Keep any log suffix that extends past the snapshot and agrees
            # with it; otherwise the snapshot replaces the whole log.
            suffix_term = self.term_at(msg.last_included_index)
            if suffix_term == msg.last_included_term:
                self._entries = [e for e in self._entries if e.index > msg.last_included_index]
            else:
                self._entries = []
                self.storage.truncate_from(0)
            self._snapshot = snapshot
            self.storage.save_snapshot(snapshot, self._entries)
            self.commit_index = max(self.commit_index, msg.last_included_index)
            self.last_applied = msg.last_included_index
            installed = msg.state_blob

        reply = SnapshotResponse(
            src=self.config.node_id,
            dst=msg.src,
            term=self.current_term,
            match_index=self.snapshot_index,
        )
        return ReceiveResult(messages=[reply], snapshot_installed=installed)

    def _on_snapshot_response(self, msg: SnapshotResponse) -> ReceiveResult:
        if self.role != Role.LEADER or msg.term != self.current_term:
            return ReceiveResult()
        if msg.match_index > self._match_index.get(msg.src, 0):
            self._match_index[msg.src] = msg.match_index
        self._next_index[msg.src] = self._match_index[msg.src] + 1
        messages: list[Message] = []
        if self._next_index[msg.src] <= self.last_log_index:
            messages.append(self._append_for(msg.src))
        return ReceiveResult(messages=messages, committed=self._advance_commit())
