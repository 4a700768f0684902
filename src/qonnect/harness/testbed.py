"""Testbed layout: nine clusters, three RLAs, periods and seeds.

``TestbedSpec`` also derives what both deployments (the deterministic engine
and live HTTP mode) build from it: each RLA's config, the simulated clusters
and their resource agents.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from qonnect.agent.client import RlaClient
from qonnect.agent.ra import RaConfig, ResourceAgent
from qonnect.events import EventLog
from qonnect.kb.model import Domain
from qonnect.rla.config import RlaConfig
from qonnect.sim.cluster import SimCluster, make_cluster
from qonnect.sim.profiles import PROFILES

ENV_PREFIX = "QONNECT_TESTBED_"

DOMAINS = tuple(d.value for d in Domain)
PROFILE_NAMES = ("energy", "cost", "performance")


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    domain: str
    profile: str
    ingress_ip: str
    workers: int = 2


@dataclass
class TestbedSpec:
    __test__ = False  # not a pytest case, despite the name

    clusters: list[ClusterSpec] = field(default_factory=list)
    rla_count: int = 3
    seed: int = 0
    # RLA-side periods
    tick_period: float = 5.0
    grace_period: float = 30.0
    snapshot_staleness: float = 15.0
    telemetry_flush: float = 1.0
    # RA-side periods
    ra_snapshot_period: float = 5.0
    ra_poll_period: float = 5.0
    ra_heartbeat_period: float = 10.0
    rollout_timeout: float = 120.0
    rollout_latency: float = 2.0
    # Raft timers
    election_timeout: tuple[float, float] = (0.15, 0.30)
    heartbeat_interval: float = 0.05

    def __post_init__(self) -> None:
        if not self.clusters:
            self.clusters = default_clusters()
        self.validate()

    def validate(self) -> None:
        if self.rla_count < 3 or self.rla_count % 2 == 0:
            raise ValueError("rla_count must be odd and at least 3")
        seen = set()
        per_domain: dict[str, list[str]] = {}
        for cluster in self.clusters:
            if cluster.domain not in DOMAINS:
                raise ValueError(f"unknown domain: {cluster.domain}")
            if cluster.profile not in PROFILES:
                raise ValueError(f"unknown profile: {cluster.profile}")
            if cluster.name in seen:
                raise ValueError(f"duplicate cluster name: {cluster.name}")
            seen.add(cluster.name)
            per_domain.setdefault(cluster.domain, []).append(cluster.profile)
        # The federation shape is fixed: every profile exactly once per domain.
        if len(self.clusters) != 9 or any(
            sorted(per_domain.get(d, [])) != sorted(PROFILE_NAMES) for d in DOMAINS
        ):
            raise ValueError("testbed needs 3 domains x 3 profiles, each profile once per domain")

    def cluster(self, name: str) -> ClusterSpec:
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise KeyError(name)

    def rla_config(
        self, rla_id: int, peers: dict[int, str], data_dir: str | None = None
    ) -> RlaConfig:
        return RlaConfig(
            rla_id=rla_id,
            listen_address=peers[rla_id],
            peers=peers,
            data_dir=data_dir,
            tick_period=self.tick_period,
            grace_period=self.grace_period,
            snapshot_staleness=self.snapshot_staleness,
            telemetry_flush=self.telemetry_flush,
            election_timeout=self.election_timeout,
            heartbeat_interval=self.heartbeat_interval,
            seed=self.seed,
        )

    def make_agents(
        self, backends: dict, make_client: Callable[[], RlaClient], events: EventLog
    ) -> dict[str, ResourceAgent]:
        """One resource agent per cluster, over ``backends[name]``, each with its own client."""
        return {
            cluster.name: ResourceAgent(
                backend=backends[cluster.name],
                client=make_client(),
                config=RaConfig(
                    domain=cluster.domain,
                    snapshot_period=self.ra_snapshot_period,
                    poll_period=self.ra_poll_period,
                    heartbeat_period=self.ra_heartbeat_period,
                    rollout_timeout=self.rollout_timeout,
                ),
                events=events,
                name=f"ra-{cluster.name}",
            )
            for cluster in self.clusters
        }

    def make_clusters(self) -> dict[str, SimCluster]:
        """One simulated cluster per entry, seeded by the spec seed and position."""
        return {
            cluster.name: make_cluster(
                name=cluster.name,
                domain=Domain(cluster.domain),
                profile=cluster.profile,
                ingress_ip=cluster.ingress_ip,
                workers=cluster.workers,
                seed=self.seed ^ (index + 1),
                rollout_latency=self.rollout_latency,
            )
            for index, cluster in enumerate(self.clusters)
        }

    @classmethod
    def default(cls, seed: int = 0) -> TestbedSpec:
        return cls(clusters=default_clusters(), seed=seed)

    @classmethod
    def from_yaml(cls, path: str | Path, env: dict[str, str] | None = None) -> TestbedSpec:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        env = env if env is not None else dict(os.environ)
        for key, value in env.items():
            if key.startswith(ENV_PREFIX):
                data[key[len(ENV_PREFIX):].lower()] = value
        clusters = [
            ClusterSpec(
                name=c["name"],
                domain=c["domain"],
                profile=c["profile"],
                ingress_ip=c["ingress_ip"],
                workers=int(c.get("workers", 2)),
            )
            for c in (data.get("clusters") or [])
        ]
        timeout = data.get("election_timeout", (0.15, 0.30))
        return cls(
            clusters=clusters,
            rla_count=int(data.get("rla_count", 3)),
            seed=int(data.get("seed", 0)),
            tick_period=float(data.get("tick_period", 5.0)),
            grace_period=float(data.get("grace_period", 30.0)),
            snapshot_staleness=float(data.get("snapshot_staleness", 15.0)),
            telemetry_flush=float(data.get("telemetry_flush", 1.0)),
            ra_snapshot_period=float(data.get("ra_snapshot_period", 5.0)),
            ra_poll_period=float(data.get("ra_poll_period", 5.0)),
            ra_heartbeat_period=float(data.get("ra_heartbeat_period", 10.0)),
            rollout_timeout=float(data.get("rollout_timeout", 120.0)),
            rollout_latency=float(data.get("rollout_latency", 2.0)),
            election_timeout=(float(timeout[0]), float(timeout[1])),
            heartbeat_interval=float(data.get("heartbeat_interval", 0.05)),
        )


def default_clusters() -> list[ClusterSpec]:
    """Three domains x three profiles, every profile once per domain."""
    clusters = []
    for d_index, domain in enumerate(DOMAINS):
        for p_index, profile in enumerate(PROFILE_NAMES):
            clusters.append(
                ClusterSpec(
                    name=f"{domain}-{profile}",
                    domain=domain,
                    profile=profile,
                    ingress_ip=f"10.{d_index}.{p_index}.1",
                )
            )
    return clusters
