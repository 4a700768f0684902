"""A node restarts from whatever its WAL holds after a crash.

A crash in mid-append leaves a torn last record: the node restarts with the
records before it, and the file is cut back to them. A bad record anywhere
else is corruption, and loading refuses it.
"""

from __future__ import annotations

import json
import os

import pytest
from test_commands import GOLDEN_ENTRIES, GOLDEN_V1_BATCH, THREE_COMPONENTS, decided_kb
from test_rla_service import follower_replica

from qonnect.kb.commands import decode_command, encode_command
from qonnect.raft import storage as storage_module
from qonnect.raft.messages import AppendRequest, LogEntry
from qonnect.raft.node import RaftConfig, RaftNode
from qonnect.raft.storage import WAL_FILE, FileStorage, Snapshot
from support import entries_from

ENTRIES = [LogEntry(i, 2, f"cmd-{i}") for i in range(1, 4)]


def _write_wal(data_dir) -> bytes:
    storage = FileStorage(data_dir)
    storage.save_state(2, 1)
    storage.append_entries(ENTRIES)
    storage.close()
    return (data_dir / WAL_FILE).read_bytes()


def test_a_cut_anywhere_in_the_last_record_restarts_with_the_prefix(tmp_path):
    full = _write_wal(tmp_path / "full")
    last_start = full.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(last_start, len(full)):
        data_dir = tmp_path / f"cut-{cut}"
        data_dir.mkdir()
        (data_dir / WAL_FILE).write_bytes(full[:cut])
        storage = FileStorage(data_dir)
        node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)), storage=storage)

        assert (node.current_term, node.voted_for) == (2, 1)
        assert entries_from(node, 1) == ENTRIES[:-1]
        assert (data_dir / WAL_FILE).read_bytes() == full[:last_start]
        # Appends after the restart follow the kept prefix.
        storage.append_entries([LogEntry(3, 3, "again")])
        storage.close()
        assert FileStorage(data_dir).load().entries == [*ENTRIES[:-1], LogEntry(3, 3, "again")]


def test_an_intact_wal_loads_whole_and_is_left_as_it_is(tmp_path):
    full = _write_wal(tmp_path)
    state = FileStorage(tmp_path).load()
    assert (state.term, state.voted_for, state.entries) == (2, 1, ENTRIES)
    assert (tmp_path / WAL_FILE).read_bytes() == full


@pytest.mark.parametrize(
    "bad",
    [b"{\"t\":\"entry\",\"i\":2,\"tm\":2,\"c\"", b"not json", b"[1, 2]", b"{\"t\":\"entry\",\"i\":\"2\"}"],
)
def test_a_bad_record_before_the_last_is_refused_with_its_line(tmp_path, bad):
    lines = _write_wal(tmp_path).splitlines(keepends=True)
    lines[2] = bad + b"\n"  # the second entry; the meta record is line 1
    (tmp_path / WAL_FILE).write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="line 3"):
        FileStorage(tmp_path).load()


def test_each_write_call_is_fsynced_once_and_a_snapshot_before_and_after_its_renames(
    tmp_path, monkeypatch
):
    storage = FileStorage(tmp_path)
    synced: list[int] = []
    monkeypatch.setattr(storage_module.os, "fsync", synced.append)
    storage.append_entries(ENTRIES)
    storage.save_state(2, 1)
    storage.truncate_from(3)
    assert len(synced) == 3
    synced.clear()
    renamed: list[int] = []  # fsyncs done at each rename
    rename = type(tmp_path).rename
    monkeypatch.setattr(
        type(tmp_path),
        "rename",
        lambda path, target: renamed.append(len(synced)) or rename(path, target),
    )
    storage.save_snapshot(Snapshot(2, 2, "blob-2"), ENTRIES[2:])
    # Each temp file is synced before its rename, the directory after it.
    assert renamed == [1, 3] and len(synced) == 4
    storage.close()
    assert FileStorage(tmp_path).load().entries == ENTRIES[2:]


def test_a_created_wal_and_data_directory_are_synced_into_their_parents(tmp_path, monkeypatch):
    opened: dict[int, object] = {}
    synced: list[object] = []
    open_fd = os.open

    def spy_open(path, flags, *args):
        fd = open_fd(path, flags, *args)
        opened[fd] = path
        return fd

    monkeypatch.setattr(storage_module.os, "open", spy_open)
    monkeypatch.setattr(storage_module.os, "fsync", lambda fd: synced.append(opened.get(fd)))
    data_dir = tmp_path / "rla" / "0"
    FileStorage(data_dir).close()
    # The WAL's entry in the data directory, and each new directory's in its parent.
    assert sorted(map(str, synced)) == sorted(map(str, [data_dir, data_dir.parent, tmp_path]))
    synced.clear()
    FileStorage(data_dir).close()
    assert synced == []  # nothing was created


def test_a_wal_holding_a_v1_decision_batch_replays_to_the_same_kb(tmp_path):
    # The decision batch as a binary from before log batch v2 wrote it.
    logged = [*GOLDEN_ENTRIES[:2], encode_command(THREE_COMPONENTS), GOLDEN_V1_BATCH]
    storage = FileStorage(tmp_path)
    storage.save_state(1, 1)
    storage.append_entries([LogEntry(i, 1, raw) for i, raw in enumerate(logged, start=1)])
    storage.close()

    reopened = FileStorage(tmp_path)
    replica = follower_replica(reopened)
    service = replica.machine
    assert [entry.command for entry in entries_from(service.node, 1)] == logged
    replica.handle(AppendRequest(
        src=1, dst=0, term=1, prev_log_index=4, prev_log_term=1, entries=(), leader_commit=4,
    ))
    reopened.close()
    assert service.node.last_applied == 4
    assert service.kb == decided_kb(decode_command(GOLDEN_V1_BATCH))


def test_a_truncated_suffix_stays_cut_when_no_compaction_rewrote_the_wal(tmp_path):
    storage = FileStorage(tmp_path)
    node = RaftNode(RaftConfig(node_id=0, members=(0, 1, 2)), storage=storage)
    entries = tuple(LogEntry(i, 2, f"c{i}") for i in range(1, 6))
    node.handle_message(AppendRequest(1, 0, 2, 0, 0, entries, leader_commit=2))
    # A new leader whose log disagrees from index 4 on.
    node.handle_message(AppendRequest(2, 0, 3, 3, 2, (LogEntry(4, 3, "x4"),), leader_commit=4))
    storage.close()

    lines = (tmp_path / WAL_FILE).read_text().splitlines(keepends=True)
    cut = [json.loads(line) for line in lines].index({"t": "trunc", "i": 4}) + 1
    reloaded = FileStorage(tmp_path).load().entries
    assert [entry.command for entry in reloaded] == ["c1", "c2", "c3", "x4"]
    assert reloaded == entries_from(node, 1)
    # A crash between the trunc record and the entry that follows it.
    crashed = tmp_path / "crashed"
    crashed.mkdir()
    (crashed / WAL_FILE).write_text("".join(lines[:cut]))
    assert [entry.command for entry in FileStorage(crashed).load().entries] == ["c1", "c2", "c3"]


def test_an_entry_logged_again_at_a_held_index_replaces_the_suffix_from_there(tmp_path):
    records = [{"t": "meta", "term": 2, "vote": 1}, {"t": "entry", "i": 1, "tm": 1, "c": "a"},
               {"t": "entry", "i": 2, "tm": 1, "c": "b"}, {"t": "entry", "i": 3, "tm": 1, "c": "c"},
               {"t": "entry", "i": 2, "tm": 2, "c": "B"}]  # no trunc before it
    (tmp_path / WAL_FILE).write_text("".join(json.dumps(record) + "\n" for record in records))
    state = FileStorage(tmp_path).load()
    assert state.entries == [LogEntry(1, 1, "a"), LogEntry(2, 2, "B")]
