"""Structured event log shared by services, agents, and the harness."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple


class Event(NamedTuple):
    """One logged event. A tuple, immutable and compared by value: it costs a
    fifth of what a frozen dataclass's ``__init__`` does to build, and a
    ``burst`` run builds tens of thousands."""

    at: float
    source: str
    kind: str
    detail: dict

    def to_line(self) -> str:
        return json.dumps(
            {"at": round(self.at, 6), "source": self.source, "kind": self.kind, "detail": self.detail},
            separators=(",", ":"),
            sort_keys=True,
        )


_new = tuple.__new__  # Event's own __new__ is a Python function around this


class EventLog:
    def __init__(self) -> None:
        self.events: list[Event] = []

    def append(self, at: float, source: str, kind: str, detail: dict | None = None) -> None:
        self.events.append(_new(Event, (at, source, kind, detail or {})))

    def matching(self, kind: str | None = None, source: str | None = None) -> list[Event]:
        return [
            e
            for e in self.events
            if (kind is None or e.kind == kind) and (source is None or e.source == source)
        ]

    def write_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(
            "".join(e.to_line() + "\n" for e in self.events), encoding="utf-8"
        )
