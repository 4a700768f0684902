"""The one apply path: ``Replica`` over a fake state machine.

Node 0 is driven by hand with the messages its peers would send, so each
test pins one step of handle → load → install → apply and the proposer
hand-off.
"""

from __future__ import annotations

import pytest

from qonnect.raft.messages import (
    AppendRequest,
    AppendResponse,
    LogEntry,
    SnapshotRequest,
    SnapshotResponse,
    VoteResponse,
)
from qonnect.raft.node import RaftConfig, RaftNode, Role
from qonnect.raft.replica import Replica
from support import entries_from


class FakeMachine:
    """Records every call; its state is the list of applied commands."""

    def __init__(self) -> None:
        self.state: list[str] = []
        self.calls: list[tuple] = []
        self.node: RaftNode | None = None  # set to compact at every apply

    def apply_committed(self, index: int, command: str) -> str:
        self.state.append(command)
        self.calls.append(("apply", index, command))
        if self.node is not None:  # at the entry being applied: the replica counted it already
            self.node.compact(self.node.last_applied, ",".join(self.state))
        return f"effect-{index}"

    def load_snapshot(self, blob: str) -> list[str]:
        if blob.startswith("!"):
            raise ValueError(f"not a snapshot: {blob!r}")
        return blob.split(",")

    def install_snapshot(self, state: list[str], blob: str) -> None:
        self.state = state
        self.calls.append(("restore", blob))

    def elected(self, term: int) -> None:
        self.calls.append(("elected", term))


def follower() -> tuple[Replica, FakeMachine]:
    machine = FakeMachine()
    return Replica(RaftNode(RaftConfig(node_id=0, members=(0, 1, 2))), machine), machine


def leader() -> tuple[Replica, FakeMachine]:
    """Node 0 elected with node 1's vote; its no-op sits at index 1. The
    election notice is taken off ``machine.calls``."""
    replica, machine = follower()
    replica.node.tick(1.0)  # past any election timeout
    term = replica.node.current_term
    replica.handle(VoteResponse(src=1, dst=0, term=term, granted=True))
    assert replica.node.role == Role.LEADER and replica.node.last_log_index == 1
    assert machine.calls.pop() == ("elected", term)
    return replica, machine


def append(term: int, prev: tuple[int, int], entries: list[tuple[int, str]], commit: int):
    return AppendRequest(
        src=1,
        dst=0,
        term=term,
        prev_log_index=prev[0],
        prev_log_term=prev[1],
        entries=tuple(LogEntry(index, term, command) for index, command in entries),
        leader_commit=commit,
    )


def acked(replica: Replica, match_index: int) -> tuple:
    """Node 1 acknowledges the leader's log through ``match_index``."""
    term = replica.node.current_term
    return replica.handle(
        AppendResponse(src=1, dst=0, term=term, success=True, match_index=match_index,
                       conflict_index=0)
    )


def test_the_machine_hears_of_each_term_won_once_before_its_entries_apply():
    replica, machine = follower()
    assert replica.node.tick(1.0)  # the election starts; a tick never wins one
    term = replica.node.current_term
    replica.handle(VoteResponse(src=1, dst=0, term=term, granted=True))
    replica.handle(VoteResponse(src=2, dst=0, term=term, granted=True))  # a vote too many
    replica.propose("a", lambda index: acked(replica, index))
    assert machine.calls == [("elected", term), ("apply", 2, "a")]
    # Deposed by node 1's next term, node 0 wins the term after it.
    replica.handle(append(term + 1, (2, term), [], commit=2))
    replica.node.tick(1.0)
    replica.handle(VoteResponse(src=2, dst=0, term=term + 2, granted=True))
    assert machine.calls[2:] == [("elected", term + 2)]


def test_leader_no_ops_are_not_applied():
    replica, machine = follower()
    replica.handle(append(1, (0, 0), [(1, ""), (2, "a"), (3, "")], commit=3))
    assert replica.node.last_applied == 3
    assert machine.calls == [("apply", 2, "a")]


def test_a_snapshot_install_restores_the_state_before_later_entries_apply():
    replica, machine = follower()
    replica.handle(
        SnapshotRequest(src=1, dst=0, term=1, last_included_index=5, last_included_term=1,
                        state_blob="x,y")
    )
    replica.handle(append(1, (5, 1), [(6, "z")], commit=6))
    assert machine.calls == [("restore", "x,y"), ("apply", 6, "z")]
    assert machine.state == ["x", "y", "z"]


def test_a_snapshot_below_the_commit_index_applies_the_suffix_it_keeps_at_once():
    replica, machine = follower()
    replica.handle(append(1, (0, 0), [(i, f"c{i}") for i in range(1, 11)], commit=10))
    machine.calls.clear()
    replica.handle(
        SnapshotRequest(src=1, dst=0, term=1, last_included_index=8, last_included_term=1,
                        state_blob="s")
    )
    assert machine.calls == [("restore", "s"), ("apply", 9, "c9"), ("apply", 10, "c10")]
    assert machine.state == ["s", "c9", "c10"] and replica.node.last_applied == 10


def test_only_a_snapshot_the_node_installs_reaches_the_machine():
    replica, machine = follower()

    def request(term: int, index: int, blob: str) -> SnapshotRequest:
        return SnapshotRequest(src=1, dst=0, term=term, last_included_index=index,
                               last_included_term=term, state_blob=blob)

    replica.handle(request(2, 5, "x,y"))
    refused = [
        request(1, 9, "stale"),  # a stale term's, however far ahead
        request(2, 5, "at"),  # at the node's snapshot index
        request(2, 3, "below"),  # below it
    ]
    for msg in refused:
        # Each is still answered, with the snapshot index the node keeps.
        assert replica.handle(msg) == (SnapshotResponse(src=0, dst=1, term=2, match_index=5),)
    assert machine.calls == [("restore", "x,y")]
    assert machine.state == ["x", "y"] and replica.node.snapshot.blob == "x,y"


def test_a_snapshot_the_machine_cannot_load_never_reaches_the_node():
    replica, machine = follower()
    replica.handle(append(1, (0, 0), [(1, "a"), (2, "b")], commit=2))
    before = (replica.node.current_term, replica.node.snapshot_index,
              entries_from(replica.node, 1))
    with pytest.raises(ValueError):
        replica.handle(
            SnapshotRequest(src=1, dst=0, term=2, last_included_index=5, last_included_term=2,
                            state_blob="!garbage")
        )
    after = (replica.node.current_term, replica.node.snapshot_index,
             entries_from(replica.node, 1))
    assert after == before
    assert machine.calls == [("apply", 1, "a"), ("apply", 2, "b")]


def test_a_restarted_node_restores_its_snapshot_once():
    replica, machine = follower()
    replica.handle(
        SnapshotRequest(src=1, dst=0, term=1, last_included_index=5, last_included_term=1,
                        state_blob="x,y")
    )
    reloaded = FakeMachine()
    Replica(RaftNode(replica.node.config, storage=replica.node.storage), reloaded)
    assert reloaded.calls == [("restore", "x,y")]


def test_effects_reach_the_proposer_once():
    replica, machine = leader()
    term = replica.node.current_term
    assert replica.propose("cmd", lambda index: acked(replica, index)) == "effect-2"
    assert machine.calls == [("apply", 2, "cmd")]
    assert replica.take_effects(2, term) is None  # handed over once


def test_a_proposer_that_gives_up_stops_waiting():
    replica, machine = leader()
    term = replica.node.current_term

    def give_up(index: int) -> None:
        raise TimeoutError(index)

    with pytest.raises(TimeoutError):
        replica.propose("slow", give_up)
    acked(replica, 2)  # the entry commits after all
    assert machine.calls == [("apply", 2, "slow")]
    assert replica.take_effects(2, term) is None  # nobody kept its effects


def test_effects_survive_a_compaction_past_the_awaited_entry():
    replica, machine = leader()
    machine.node = replica.node

    def commit_with_the_next(index: int) -> None:
        replica.node.propose("second")
        acked(replica, index + 1)  # both commit at once; applying the second compacts past it
        assert replica.node.snapshot_index == index + 1 and replica.node.term_at(index) is None

    assert replica.propose("first", commit_with_the_next) == "effect-2"


def test_a_superseded_entry_hands_the_proposer_none():
    replica, machine = leader()
    term = replica.node.current_term

    def overwritten(index: int) -> None:
        # Node 1 leads the next term and overwrites the entry with its own.
        replica.handle(append(term + 1, (index - 1, term), [(index, "winner")], commit=index))

    assert replica.propose("lost", overwritten) is None
    assert machine.calls == [("apply", 2, "winner")]


def test_an_entry_covered_by_a_snapshot_hands_the_proposer_none():
    replica, machine = leader()
    term = replica.node.current_term

    def covered(index: int) -> None:
        replica.handle(
            SnapshotRequest(src=1, dst=0, term=term + 1, last_included_index=index + 2,
                            last_included_term=term + 1, state_blob="s")
        )

    assert replica.propose("covered", covered) is None
    assert machine.calls == [("restore", "s")]
