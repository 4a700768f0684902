"""Durable Raft state: current term, vote, log entries, and the latest snapshot.

``FileStorage`` keeps an append-only JSONL write-ahead log plus a snapshot
file under a per-node data directory; a node restarted from that directory
resumes with identical term, vote, and log suffix. ``MemoryStorage`` offers
the same interface for deterministic in-process tests, where the storage
object surviving a "process" restart stands in for the disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

from qonnect import codec
from qonnect.raft.messages import LogEntry

WAL_FILE = "wal.jsonl"
SNAPSHOT_FILE = "snapshot.json"
SNAPSHOT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Snapshot:
    """Compacted state machine state up to and including ``index``."""

    index: int
    term: int
    blob: str


@dataclass
class PersistedState:
    term: int = 1
    voted_for: int | None = None
    snapshot: Snapshot | None = None
    entries: list[LogEntry] = field(default_factory=list)


class RaftStorage(Protocol):
    def load(self) -> PersistedState: ...

    def save_state(self, term: int, voted_for: int | None) -> None: ...

    def append_entries(self, entries: Iterable[LogEntry]) -> None: ...

    def truncate_from(self, index: int) -> None: ...

    def save_snapshot(self, snapshot: Snapshot, entries: Iterable[LogEntry]) -> None:
        """Store ``snapshot`` and keep exactly ``entries``, the log after it."""
        ...


@dataclass(frozen=True)
class _SnapshotFile:
    """The snapshot file: a ``Snapshot`` and its schema version."""

    v: int
    index: int
    term: int
    blob: str

    def __post_init__(self) -> None:
        if self.v != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(f"unsupported snapshot schema: {self.v!r}")


_encode_file = codec.encoder(_SnapshotFile)
_decode_file = codec.decoder(_SnapshotFile)


class MemoryStorage:
    """In-memory storage with FileStorage semantics."""

    def __init__(self) -> None:
        self._state = PersistedState()

    def load(self) -> PersistedState:
        return PersistedState(
            term=self._state.term,
            voted_for=self._state.voted_for,
            snapshot=self._state.snapshot,
            entries=list(self._state.entries),
        )

    def save_state(self, term: int, voted_for: int | None) -> None:
        self._state.term = term
        self._state.voted_for = voted_for

    def append_entries(self, entries: Iterable[LogEntry]) -> None:
        self._state.entries.extend(entries)

    def truncate_from(self, index: int) -> None:
        self._state.entries = [e for e in self._state.entries if e.index < index]

    def save_snapshot(self, snapshot: Snapshot, entries: Iterable[LogEntry]) -> None:
        self._state.snapshot = snapshot
        self._state.entries = list(entries)


class FileStorage:
    """WAL + snapshot files under a per-node data directory."""

    def __init__(self, data_dir: str | Path) -> None:
        self._dir = Path(data_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._wal_path = self._dir / WAL_FILE
        self._wal = self._wal_path.open("a", encoding="utf-8")
        # The term and vote last loaded or saved, for rewriting the WAL.
        fresh = PersistedState()
        self._meta = _meta_record(fresh.term, fresh.voted_for)

    def close(self) -> None:
        self._wal.close()

    def load(self) -> PersistedState:
        state = PersistedState()
        snap_path = self._dir / SNAPSHOT_FILE
        if snap_path.exists():
            doc = _decode_file(codec.loads(snap_path.read_text(encoding="utf-8")))
            state.snapshot = Snapshot(doc.index, doc.term, doc.blob)
        if self._wal_path.exists():
            by_index: dict[int, LogEntry] = {}
            with self._wal_path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    if rec["t"] == "meta":
                        state.term = rec["term"]
                        state.voted_for = rec["vote"]
                    elif rec["t"] == "entry":
                        # An append at an already-present index implies the old
                        # suffix was replaced, even without an explicit trunc.
                        if rec["i"] in by_index:
                            by_index = {i: e for i, e in by_index.items() if i < rec["i"]}
                        by_index[rec["i"]] = LogEntry(rec["i"], rec["tm"], rec["c"])
                    elif rec["t"] == "trunc":
                        by_index = {i: e for i, e in by_index.items() if i < rec["i"]}
            base = state.snapshot.index if state.snapshot else 0
            state.entries = [by_index[i] for i in sorted(by_index) if i > base]
        self._meta = _meta_record(state.term, state.voted_for)
        return state

    def _write(self, record: dict) -> None:
        self._wal.write(_line(record))
        self._wal.flush()

    def save_state(self, term: int, voted_for: int | None) -> None:
        self._meta = _meta_record(term, voted_for)
        self._write(self._meta)

    def append_entries(self, entries: Iterable[LogEntry]) -> None:
        for e in entries:
            self._write(_entry_record(e))

    def truncate_from(self, index: int) -> None:
        self._write({"t": "trunc", "i": index})

    def save_snapshot(self, snapshot: Snapshot, entries: Iterable[LogEntry]) -> None:
        snap_path = self._dir / SNAPSHOT_FILE
        tmp = snap_path.with_suffix(".tmp")
        doc = _SnapshotFile(SNAPSHOT_SCHEMA_VERSION, snapshot.index, snapshot.term, snapshot.blob)
        tmp.write_text(codec.dumps(_encode_file(doc)), encoding="utf-8")
        tmp.rename(snap_path)
        # Rewrite the WAL so the discarded log prefix does not grow unbounded.
        self._wal.close()
        tmp_wal = self._wal_path.with_suffix(".tmp")
        with tmp_wal.open("w", encoding="utf-8") as fh:
            fh.write(_line(self._meta))
            fh.writelines(_line(_entry_record(e)) for e in entries)
        tmp_wal.rename(self._wal_path)
        self._wal = self._wal_path.open("a", encoding="utf-8")


def _meta_record(term: int, voted_for: int | None) -> dict:
    return {"t": "meta", "term": term, "vote": voted_for}


def _entry_record(e: LogEntry) -> dict:
    return {"t": "entry", "i": e.index, "tm": e.term, "c": e.command}


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"
