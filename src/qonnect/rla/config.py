"""RLA process configuration."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RlaConfig:
    """What the RLA service reads. Its Raft node's timers and seed are not
    here: they reach the node only through ``TestbedSpec.raft_config``."""

    rla_id: int
    # Full member map (id -> address), identical across one deployment; a
    # live replica listens on its own entry.
    peers: dict[int, str] = field(default_factory=dict)
    data_dir: str | None = None
    tick_period: float = 5.0
    grace_period: float = 30.0
    # Snapshots older than this are ineligible: 3x the agents' snapshot
    # interval, so a dead cluster ages out before its grace expires.
    snapshot_staleness: float = 15.0
    telemetry_flush: float = 1.0

    def __post_init__(self) -> None:
        if self.peers and self.rla_id not in self.peers:
            raise ValueError("rla_id must appear in the peer map")

    def peer_address(self, rla_id: int | None) -> str | None:
        if rla_id is None:
            return None
        return self.peers.get(rla_id)
