"""RLA process configuration: file-based with environment overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from qonnect.raft.node import RaftConfig

ENV_PREFIX = "QONNECT_RLA_"


@dataclass
class RlaConfig:
    rla_id: int
    listen_address: str = "127.0.0.1:7400"
    # Full member map (id -> address), identical across one deployment.
    peers: dict[int, str] = field(default_factory=dict)
    data_dir: str | None = None
    tick_period: float = 5.0
    grace_period: float = 30.0
    snapshot_staleness: float = 15.0
    telemetry_flush: float = 1.0
    election_timeout: tuple[float, float] = (0.15, 0.30)
    heartbeat_interval: float = 0.05
    # Fewest applied commands between snapshots (a batch counts its members).
    # A replica also waits until the raw entries applied since its last
    # snapshot reach that snapshot's size; see ``qonnect.rla.service``.
    compact_every: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.peers and self.rla_id not in self.peers:
            raise ValueError("rla_id must appear in the peer map")
        if self.compact_every < 1:
            raise ValueError(f"compact_every must be at least 1, got {self.compact_every}")

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

    @classmethod
    def from_yaml(cls, path: str | Path, env: dict[str, str] | None = None) -> RlaConfig:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        env = env if env is not None else dict(os.environ)
        for key, value in env.items():
            if not key.startswith(ENV_PREFIX):
                continue
            field_name = key[len(ENV_PREFIX):].lower()
            data[field_name] = value
        peers = {int(k): str(v) for k, v in (data.get("peers") or {}).items()}
        timeout = data.get("election_timeout", (0.15, 0.30))
        return cls(
            rla_id=int(data["rla_id"]),
            listen_address=str(data.get("listen_address", "127.0.0.1:7400")),
            peers=peers,
            data_dir=data.get("data_dir"),
            tick_period=float(data.get("tick_period", 5.0)),
            grace_period=float(data.get("grace_period", 30.0)),
            snapshot_staleness=float(data.get("snapshot_staleness", 15.0)),
            telemetry_flush=float(data.get("telemetry_flush", 1.0)),
            election_timeout=(float(timeout[0]), float(timeout[1])),
            heartbeat_interval=float(data.get("heartbeat_interval", 0.05)),
            compact_every=int(data.get("compact_every", 1000)),
            seed=int(data.get("seed", 0)),
        )
