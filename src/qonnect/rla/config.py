"""RLA process configuration: file-based with environment overrides."""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from qonnect.raft.node import RaftConfig

ENV_PREFIX = "QONNECT_RLA_"


def election_timeout_from(data: dict, env: dict[str, str], prefix: str) -> tuple[float, float]:
    """The ``election_timeout`` of a config whose environment overrides are in ``data``.

    A YAML file gives two numbers; the variable ``<prefix>ELECTION_TIMEOUT``
    gives ``"lo,hi"``. Anything but ``0 < lo <= hi`` raises ``ValueError``
    naming where it came from.
    """
    value = data.get("election_timeout", (0.15, 0.30))
    try:
        lo, hi = value.split(",") if isinstance(value, str) else value
        lo, hi = float(lo), float(hi)
        valid = 0 < lo <= hi
    except (TypeError, ValueError):
        valid = False
    if not valid:
        variable = f"{prefix}ELECTION_TIMEOUT"
        source = variable if variable in env else "election_timeout"
        raise ValueError(f"{source} must be 'lo,hi' with 0 < lo <= hi, got {value!r}")
    return lo, hi


def fields_from_yaml(
    cls: type, path: str | Path, env: dict[str, str] | None, prefix: str
) -> tuple[dict, dict]:
    """A config file's mapping, with each ``<prefix><FIELD>`` variable of
    ``env`` (default: the process environment) overriding its key, and the
    constructor arguments of dataclass ``cls`` read from it: every ``int``,
    ``float`` or ``str`` field the mapping names, converted to its type, and
    ``election_timeout``. Other fields are left to the caller."""
    data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    env = env if env is not None else dict(os.environ)
    for key, value in env.items():
        if key.startswith(prefix):
            data[key[len(prefix):].lower()] = value
    types = typing.get_type_hints(cls)
    args = {
        f.name: types[f.name](data[f.name])
        for f in fields(cls)
        if f.name in data and types[f.name] in (int, float, str)
    }
    args["election_timeout"] = election_timeout_from(data, env, prefix)
    return data, args


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
        data, args = fields_from_yaml(cls, path, env, ENV_PREFIX)
        peers = {int(k): str(v) for k, v in (data.get("peers") or {}).items()}
        return cls(**args, peers=peers, data_dir=data.get("data_dir"))
