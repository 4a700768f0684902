"""RLA process configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from qonnect.raft.node import RaftConfig


@dataclass
class RlaConfig:
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
    election_timeout: tuple[float, float] = (0.15, 0.30)
    heartbeat_interval: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.peers and self.rla_id not in self.peers:
            raise ValueError("rla_id must appear in the peer map")

    def raft_config(self, members: tuple[int, ...]) -> RaftConfig:
        return RaftConfig(
            node_id=self.rla_id,
            members=members,
            election_timeout=self.election_timeout,
            heartbeat_interval=self.heartbeat_interval,
            seed=self.seed,
        )

    def peer_address(self, rla_id: int | None) -> str | None:
        if rla_id is None:
            return None
        return self.peers.get(rla_id)
