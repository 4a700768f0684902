"""Durable Raft state: current term, vote, log entries, and the latest snapshot.

``FileStorage`` keeps an append-only JSONL write-ahead log plus a snapshot
file under a per-node data directory; a node restarted from that directory
resumes with identical term, vote, and log suffix. Every call that writes is
durable when it returns: the WAL is fsynced once per call, and a snapshot
file or rewritten WAL is fsynced before it is renamed into place, and the
directory after. A WAL or data directory that ``FileStorage`` creates has
its directory entry synced before the constructor returns. A crash in
mid-append leaves at most a torn last record; ``load`` drops it and cuts it
from the file, while a bad record anywhere else is corruption and raises
``ValueError``. ``MemoryStorage`` offers the same interface for
deterministic in-process tests, where the storage object surviving a
"process" restart stands in for the disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
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
        return replace(self._state, entries=list(self._state.entries))

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
        self._wal_path = self._dir / WAL_FILE
        # Each directory and file this creates, so that its entry is synced.
        created = [path for path in (self._wal_path, self._dir, *self._dir.parents)
                   if not path.exists()]
        self._dir.mkdir(parents=True, exist_ok=True)
        self._wal = self._wal_path.open("a", encoding="utf-8")
        for path in created:
            _sync_dir(path.parent)
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
            for rec in self._read_wal():
                if rec["t"] == "meta":
                    state.term = rec["term"]
                    state.voted_for = rec["vote"]
                elif rec["t"] == "entry":
                    # An append at an already-present index implies the old
                    # suffix was replaced, even without an explicit trunc.
                    if rec["i"] in by_index:
                        by_index = {i: e for i, e in by_index.items() if i < rec["i"]}
                    by_index[rec["i"]] = LogEntry(rec["i"], rec["tm"], rec["c"])
                else:  # trunc
                    by_index = {i: e for i, e in by_index.items() if i < rec["i"]}
            base = state.snapshot.index if state.snapshot else 0
            state.entries = [by_index[i] for i in sorted(by_index) if i > base]
        self._meta = _meta_record(state.term, state.voted_for)
        return state

    def _read_wal(self) -> list[dict]:
        """The WAL's records, after cutting a torn or unreadable last record
        from the file; ``ValueError`` names a bad record before the last."""
        data = self._wal_path.read_bytes()
        records: list[dict] = []
        start, number = 0, 0
        while start < len(data):
            end = data.find(b"\n", start) + 1 or len(data)
            number += 1
            line = data[start:end]
            if line.strip():
                # A line without its newline is torn, whatever it holds.
                record = _parse_record(line) if line.endswith(b"\n") else None
                if record is None:
                    if end < len(data):
                        raise ValueError(f"{self._wal_path}: corrupt record on line {number}")
                    with self._wal_path.open("r+b") as fh:
                        fh.truncate(start)
                        os.fsync(fh.fileno())
                    break
                records.append(record)
            start = end
        return records

    def _write(self, records: Iterable[dict]) -> None:
        self._wal.write("".join(_line(record) for record in records))
        self._wal.flush()
        os.fsync(self._wal.fileno())

    def save_state(self, term: int, voted_for: int | None) -> None:
        self._meta = _meta_record(term, voted_for)
        self._write([self._meta])

    def append_entries(self, entries: Iterable[LogEntry]) -> None:
        self._write(_entry_record(e) for e in entries)

    def truncate_from(self, index: int) -> None:
        self._write([{"t": "trunc", "i": index}])

    def save_snapshot(self, snapshot: Snapshot, entries: Iterable[LogEntry]) -> None:
        doc = _SnapshotFile(SNAPSHOT_SCHEMA_VERSION, snapshot.index, snapshot.term, snapshot.blob)
        self._replace(self._dir / SNAPSHOT_FILE, codec.dumps(_encode_file(doc)))
        # Rewrite the WAL so the discarded log prefix does not grow unbounded.
        self._wal.close()
        self._replace(
            self._wal_path,
            _line(self._meta) + "".join(_line(_entry_record(e)) for e in entries),
        )
        self._wal = self._wal_path.open("a", encoding="utf-8")

    def _replace(self, path: Path, text: str) -> None:
        """Durably replace ``path`` with ``text``: write and fsync a temp
        file, rename it over ``path``, then fsync the directory."""
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.rename(path)
        _sync_dir(self._dir)


def _sync_dir(path: Path) -> None:
    """fsync a directory, so that the entries made in it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# The fields of each WAL record kind and the types each may hold.
_RECORD_FIELDS = {
    "meta": {"term": (int,), "vote": (int, type(None))},
    "entry": {"i": (int,), "tm": (int,), "c": (str,)},
    "trunc": {"i": (int,)},
}


def _parse_record(line: bytes) -> dict | None:
    """The WAL record on ``line``, or None if it holds no valid one."""
    try:
        record = json.loads(line)
    except ValueError:  # includes UnicodeDecodeError
        return None
    kind = record.get("t") if type(record) is dict else None
    fields = _RECORD_FIELDS.get(kind) if type(kind) is str else None
    if fields is None or any(
        name not in record or type(record[name]) not in types for name, types in fields.items()
    ):
        return None
    return record


def _meta_record(term: int, voted_for: int | None) -> dict:
    return {"t": "meta", "term": term, "vote": voted_for}


def _entry_record(e: LogEntry) -> dict:
    return {"t": "entry", "i": e.index, "tm": e.term, "c": e.command}


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"
