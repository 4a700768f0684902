"""Small helpers the tests share: reading a Raft log, writing a bundle as a
YAML stream, and the parameter table's decimal midpoint."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal

import yaml

from qonnect.raft import LogEntry, RaftNode


def entries_from(node: RaftNode, index: int) -> list[LogEntry]:
    """The entries ``node`` holds from ``index`` on (none its snapshot covers)."""
    first = max(index, node.snapshot_index + 1)
    return [node.entry_at(i) for i in range(first, node.last_log_index + 1)]


def bundle_to_yaml(bundle: dict) -> str:
    """One YAML stream: the application document, then one doc per component."""
    docs = [{"application": bundle["application"]}]
    docs.extend(bundle["components"])
    return yaml.safe_dump_all(docs, sort_keys=False)


def table_midpoint(low: float, high: float, places: int = 7) -> float:
    """Midpoint in exact decimal arithmetic (the parameter table is decimal)."""
    value = (Decimal(repr(low)) + Decimal(repr(high))) / 2
    return float(value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))
