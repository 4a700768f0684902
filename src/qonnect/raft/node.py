"""Sans-IO Raft node: a single logical event loop driven by ticks and messages.

The node never touches the network. ``tick`` advances timers and returns
outbound messages; ``handle_message`` applies one inbound message, raises
``commit_index`` as far as the log allows and returns outbound messages.
Transports own delivery (deterministic in-memory or HTTP); a
``qonnect.raft.replica.Replica`` applies the committed entries to its
state machine and owns ``last_applied``, which the node sets only when it
starts and when it installs a snapshot.

Role transitions follow the classic finite-state machine: a follower whose
election timer fires becomes a candidate, a candidate reaching a majority
becomes leader, and any node observing a higher term falls back to follower.

An idle round builds nothing and does next to nothing. ``_log_version``
counts every change to the log: an append, a truncation, a compaction, an
installed snapshot. A leader resends a peer's last empty ``AppendRequest``
while its term, commit index, log version and the peer's next index are
unchanged, and reads no log to do so.

``renew`` answers the two messages that change nothing but the node's
timers. The replica asks it first (``Replica.handle``), and
``handle_message`` is the full path, for a message it did not answer. A
follower handed the very request object it last answered through the full
path, with a success that carried no entries and committed nothing,
returns the very tuple it answered with while its term, follower role and
log version are unchanged: the full path would reach an equal answer and
change nothing else, since the commit index never falls. A resent
heartbeat then costs its receiver an identity check, three comparisons
and the election timer's reset. The reset still draws the next timeout
from the node's RNG, as the full path does, so every later draw, and with
it every seeded run, stays the same. Only in-process transports resend one
object; live mode decodes every inbound message into a new one, so its
followers always take the full path. On the leader, a success that raises
no match index and leaves nothing to send returns the empty tuple. A
renewal commits nothing, installs no snapshot and elects no one, so a
transport may deliver it to the node alone.

The leader checks its commit index only when a peer's match index rises:
by Raft's commit rule (Ongaro and Ousterhout, 2014) the index a quorum
holds moves with nothing else. Every answer is a tuple of frozen
messages, so a resent one is indistinguishable from a fresh equal one. The
node reports nothing else: a snapshot it installs shows as a new
``snapshot``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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

# Most entries one AppendRequest carries. A follower far behind catches up
# over several round trips (each success answers with the next batch), so
# no single message grows with its lag (Ongaro's dissertation, 10.2).
MAX_APPEND_ENTRIES = 128


class Role(str, Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


# Functions read the members as module globals: a read through the enum
# class goes through its metaclass and costs about ten times as much.
_FOLLOWER, _CANDIDATE, _LEADER = Role


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

    @cached_property  # computed once: the fields above are frozen
    def peers(self) -> tuple[int, ...]:
        return tuple(m for m in self.members if m != self.node_id)


_NOTHING: tuple[Message, ...] = ()


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

        self.role = _FOLLOWER
        self.leader_id: int | None = None
        self.commit_index = self.snapshot_index
        self.last_applied = self.snapshot_index

        self._votes: set[int] = set()
        self._next_index: dict[int, int] = {}
        self._match_index: dict[int, int] = {}
        # Bumped whenever the log changes: an append, a truncation, a
        # compaction or an installed snapshot.
        self._log_version = 0
        # The last empty AppendRequest per peer, with the log version it was
        # built at: an idle round resends it.
        self._idle: dict[int, tuple[int, AppendRequest]] = {}
        # The last empty request answered with a success that committed
        # nothing, with the term and log version it was answered at and the
        # tuple it was answered with.
        self._answered: tuple = (None, 0, 0, _NOTHING)

        self._reset_election_timer()
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

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        lo, hi = self.config.election_timeout
        self._election_elapsed = 0.0
        # ``random.uniform``'s own formula, without its call.
        self._election_deadline = lo + (hi - lo) * self._rng.random()

    def tick(self, elapsed: float) -> list[Message]:
        """Advance timers by ``elapsed`` seconds and emit any due messages."""
        if self.role is _LEADER:
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
        self.role = _CANDIDATE
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
        self.role = _LEADER
        self.leader_id = self.config.node_id
        self._next_index = {p: self.last_log_index + 1 for p in self.config.peers}
        self._match_index = {p: 0 for p in self.config.peers}
        # Empty entry in the new term: commits immediately on quorum and
        # thereby releases any prior-term entries still awaiting commit.
        noop = LogEntry(index=self.last_log_index + 1, term=self.current_term, command="")
        self._entries.append(noop)
        self._log_version += 1
        self.storage.append_entries([noop])
        return self.broadcast_append()

    def _step_down(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
            self.storage.save_state(self.current_term, self.voted_for)
        if self.role is _LEADER:  # it no longer knows who leads
            self.leader_id = None
        self.role = _FOLLOWER
        self._votes = set()
        self._reset_election_timer()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def propose(self, command: str) -> int:
        """Append ``command`` to the leader's log; returns its log index."""
        if self.role is not _LEADER:
            raise NotLeaderError(self.leader_id)
        entry = LogEntry(index=self.last_log_index + 1, term=self.current_term, command=command)
        self._entries.append(entry)
        self._log_version += 1
        self.storage.append_entries([entry])
        return entry.index

    def broadcast_append(self) -> list[Message]:
        """Emit append (or snapshot install) messages to every peer now."""
        if self.role is not _LEADER:
            return []
        self._heartbeat_elapsed = 0.0
        return [self._append_for(peer) for peer in self.config.peers]

    def _append_for(self, peer: int) -> Message:
        next_idx = self._next_index[peer]
        sent = self._idle.get(peer)
        if sent is not None and sent[0] == self._log_version:
            # The request holds the term, commit index and next index it was built from.
            request = sent[1]
            if request.leader_commit == self.commit_index and request.term == self.current_term \
                    and request.prev_log_index == next_idx - 1:
                return request
        prev_index = next_idx - 1
        prev_term = self.term_at(prev_index)
        if next_idx <= self.snapshot_index or prev_term is None:
            # The peer needs entries the log no longer holds; ship the snapshot.
            assert self._snapshot is not None
            return SnapshotRequest(
                src=self.config.node_id,
                dst=peer,
                term=self.current_term,
                last_included_index=self._snapshot.index,
                last_included_term=self._snapshot.term,
                state_blob=self._snapshot.blob,
            )
        offset = prev_index - self.snapshot_index
        entries = tuple(self._entries[offset:offset + MAX_APPEND_ENTRIES])
        request = AppendRequest(
            src=self.config.node_id,
            dst=peer,
            term=self.current_term,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=entries,
            leader_commit=self.commit_index,
        )
        if not entries:
            self._idle[peer] = (self._log_version, request)
        return request

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
        self._log_version += 1
        self.storage.save_snapshot(snapshot, self._entries)
        return snapshot

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def renew(self, msg: Message) -> tuple[Message, ...] | None:
        """The answer to ``msg`` if it changes nothing but this node's
        timers, else None: a follower's repeated heartbeat, or a leader's
        success that raises no match and leaves nothing to send. Either way
        the full path would reach the same answer and change nothing else."""
        if self.role is _LEADER:
            if msg.__class__ is AppendResponse and msg.success and msg.term == self.current_term:
                match = self._match_index.get(msg.src, 0)
                if msg.match_index <= match and self._next_index.get(msg.src) == match + 1 \
                        and match >= self.last_log_index:
                    return _NOTHING
            return None
        request, term, version, result = self._answered
        if msg is request and term == self.current_term and self.role is _FOLLOWER \
                and version == self._log_version:
            self.leader_id = msg.src
            self._reset_election_timer()
            return result
        return None

    def handle_message(self, msg: Message) -> tuple[Message, ...]:
        """The full path: any message, renewable or not, gets its answer."""
        if msg.term > self.current_term:
            self._step_down(msg.term)

        if isinstance(msg, AppendRequest):
            return self._on_append_request(msg)
        if isinstance(msg, AppendResponse):
            return self._on_append_response(msg)
        if isinstance(msg, VoteRequest):
            return self._on_vote_request(msg)
        if isinstance(msg, VoteResponse):
            return self._on_vote_response(msg)
        if isinstance(msg, SnapshotRequest):
            return self._on_snapshot_request(msg)
        if isinstance(msg, SnapshotResponse):
            return self._on_snapshot_response(msg)
        raise TypeError(f"unhandled message type: {type(msg)!r}")

    def _on_vote_request(self, msg: VoteRequest) -> tuple[Message, ...]:
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
        return (VoteResponse(
            src=self.config.node_id, dst=msg.src, term=self.current_term, granted=granted
        ),)

    def _on_vote_response(self, msg: VoteResponse) -> tuple[Message, ...]:
        if self.role is not _CANDIDATE or msg.term != self.current_term or not msg.granted:
            return _NOTHING
        self._votes.add(msg.src)
        if len(self._votes) * 2 > len(self.config.members):
            return tuple(self._become_leader())
        return _NOTHING

    def _append_reply(
        self, msg: AppendRequest, match_index: int = 0, conflict_index: int = 0
    ) -> tuple[Message, ...]:
        """Answer ``msg``: a success unless a ``conflict_index`` is given."""
        return (AppendResponse(
            src=self.config.node_id,
            dst=msg.src,
            term=self.current_term,
            success=conflict_index == 0,
            match_index=match_index,
            conflict_index=conflict_index,
        ),)

    def _on_append_request(self, msg: AppendRequest) -> tuple[Message, ...]:
        if msg.term < self.current_term:
            return self._append_reply(msg, conflict_index=self.last_log_index + 1)

        # Valid leader for this term.
        self.role = _FOLLOWER
        self.leader_id = msg.src
        self._reset_election_timer()

        prev_term_here = self.term_at(msg.prev_log_index)
        if msg.prev_log_index > self.snapshot_index and prev_term_here != msg.prev_log_term:
            if prev_term_here is None:
                return self._append_reply(msg, conflict_index=self.last_log_index + 1)
            return self._append_reply(msg, conflict_index=msg.prev_log_index)

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
            self._log_version += 1
            self.storage.append_entries(new_entries)

        result = self._append_reply(msg, match_index=appended_through)
        if msg.leader_commit > self.commit_index:
            # Never regress: a retransmission of an old prefix must not pull
            # the commit index back below what we already know is committed.
            self.commit_index = max(
                self.commit_index, min(msg.leader_commit, appended_through)
            )
        elif not msg.entries:
            self._answered = (msg, self.current_term, self._log_version, result)
        return result

    def _on_append_response(self, msg: AppendResponse) -> tuple[Message, ...]:
        if self.role is not _LEADER or msg.term != self.current_term:
            return _NOTHING
        if msg.success:
            return self._on_match(msg.src, msg.match_index)
        # Log mismatch: back up and retry immediately.
        self._next_index[msg.src] = max(1, min(msg.conflict_index, self.last_log_index + 1))
        return (self._append_for(msg.src),)

    def _on_match(self, peer: int, match_index: int) -> tuple[Message, ...]:
        """``peer`` holds the log through ``match_index``: advance its
        indexes and the commit index, then send it whatever follows."""
        if match_index > self._match_index.get(peer, 0):
            self._match_index[peer] = match_index
            # Only a rising match index can raise the quorum index.
            self._advance_commit()
        self._next_index[peer] = self._match_index[peer] + 1
        if self._next_index[peer] <= self.last_log_index:
            return (self._append_for(peer),)
        return _NOTHING

    def _advance_commit(self) -> None:
        matches = sorted(
            [self.last_log_index] + [self._match_index.get(p, 0) for p in self.config.peers],
            reverse=True,
        )
        quorum_index = matches[len(self.config.members) // 2]
        if quorum_index > self.commit_index and self.term_at(quorum_index) == self.current_term:
            self.commit_index = quorum_index

    def _on_snapshot_request(self, msg: SnapshotRequest) -> tuple[Message, ...]:
        """Install a newer snapshot from a current leader. Every request, a
        stale term's included, gets one reply with this node's snapshot
        index."""
        current = msg.term >= self.current_term
        if current:
            self.role = _FOLLOWER
            self.leader_id = msg.src
            self._reset_election_timer()

        if current and msg.last_included_index > self.snapshot_index:
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
            self._log_version += 1
            self.storage.save_snapshot(snapshot, self._entries)
            self.commit_index = max(self.commit_index, msg.last_included_index)
            self.last_applied = msg.last_included_index

        return (SnapshotResponse(
            src=self.config.node_id,
            dst=msg.src,
            term=self.current_term,
            match_index=self.snapshot_index,
        ),)

    def _on_snapshot_response(self, msg: SnapshotResponse) -> tuple[Message, ...]:
        if self.role is not _LEADER or msg.term != self.current_term:
            return _NOTHING
        return self._on_match(msg.src, msg.match_index)
