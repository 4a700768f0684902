"""Testbed layout: clusters per domain and profile, three RLAs, periods and seeds.

``TestbedSpec`` also derives what both deployments (the deterministic engine
and live HTTP mode) build from it: each RLA's config and Raft node settings,
the simulated clusters and their resource agents.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from qonnect import codec
from qonnect.agent.client import RlaClient
from qonnect.agent.ra import RaConfig, ResourceAgent
from qonnect.events import EventLog
from qonnect.kb.model import Domain
from qonnect.raft.node import RaftConfig
from qonnect.rla.config import RlaConfig
from qonnect.sim.cluster import SimCluster, make_cluster
from qonnect.sim.profiles import PROFILES

DOMAINS = tuple(d.value for d in Domain)
PROFILE_NAMES = tuple(PROFILES)
# The float settings that may be zero; ``grace_period`` must be positive.
NON_NEGATIVE = (
    "tick_period", "snapshot_staleness", "telemetry_flush", "ra_snapshot_period",
    "ra_poll_period", "ra_heartbeat_period", "rollout_latency", "heartbeat_interval",
)


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    domain: str
    profile: str
    ingress_ip: str
    workers: int = 2


@dataclass
class TestbedSpec:
    """The testbed, as a YAML file gives it: its keys are these fields, with
    exact JSON types (``codec.decoder``), and a missing key keeps its default.

    The Raft timers and ``seed`` reach each RLA's node only through
    ``raft_config``; ``RlaConfig`` carries no copy of them."""

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
        lo, hi = self.election_timeout
        if not 0 < lo <= hi < math.inf:
            raise ValueError(
                f"election_timeout must be [lo, hi] with 0 < lo <= hi < inf, got {[lo, hi]}"
            )
        for name in NON_NEGATIVE:
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and not negative, got {value}")
        if not 0 < self.grace_period < math.inf:
            raise ValueError(f"grace_period must be positive and finite, got {self.grace_period}")
        names: set[str] = set()
        ips: dict[str, str] = {}
        per_domain: dict[str, set[str]] = {}
        for cluster in self.clusters:
            if cluster.domain not in DOMAINS:
                raise ValueError(f"unknown domain: {cluster.domain}")
            if cluster.profile not in PROFILES:
                raise ValueError(f"unknown profile: {cluster.profile}")
            if cluster.workers < 1:  # a lone control-plane node can host nothing
                raise ValueError(f"{cluster.name}: needs 1 or more workers, not {cluster.workers}")
            if cluster.name in names:
                raise ValueError(f"duplicate cluster name: {cluster.name}")
            names.add(cluster.name)
            try:
                ipaddress.ip_address(cluster.ingress_ip)
            except ValueError:
                raise ValueError(
                    f"{cluster.name}: ingress_ip {cluster.ingress_ip!r} is not an IP address"
                ) from None
            # The ingress ip is the cluster's id in the KB.
            other = ips.setdefault(cluster.ingress_ip, cluster.name)
            if other != cluster.name:
                raise ValueError(f"{cluster.name}: ingress_ip {cluster.ingress_ip} is {other}'s")
            per_domain.setdefault(cluster.domain, set()).add(cluster.profile)
        # Any number of clusters, so long as each domain offers every profile.
        if any(per_domain.get(d, set()) != set(PROFILE_NAMES) for d in DOMAINS):
            raise ValueError("testbed needs every profile at least once in each of the 3 domains")

    def rla_config(
        self, rla_id: int, peers: dict[int, str], data_dir: str | None = None
    ) -> RlaConfig:
        return RlaConfig(
            rla_id=rla_id,
            peers=peers,
            data_dir=data_dir,
            tick_period=self.tick_period,
            grace_period=self.grace_period,
            snapshot_staleness=self.snapshot_staleness,
            telemetry_flush=self.telemetry_flush,
        )

    def raft_config(self, rla_id: int) -> RaftConfig:
        return RaftConfig(
            node_id=rla_id,
            members=tuple(range(self.rla_count)),
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
                ),
                events=events,
                name=f"ra-{cluster.name}",
            )
            for cluster in self.clusters
        }

    def make_clusters(self, events: EventLog) -> dict[str, SimCluster]:
        """One simulated cluster per entry, each logging to ``events``."""
        return {
            cluster.name: make_cluster(
                name=cluster.name,
                domain=Domain(cluster.domain),
                profile=cluster.profile,
                ingress_ip=cluster.ingress_ip,
                workers=cluster.workers,
                rollout_latency=self.rollout_latency,
                events=events,
            )
            for cluster in self.clusters
        }

    @classmethod
    def from_yaml(cls, path: str | Path) -> TestbedSpec:
        """A spec from a YAML file; an empty file is the default spec. A
        malformed one raises ``ValueError`` naming the file and the key."""
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError, LookupError, AttributeError, RecursionError) as exc:
            # PyYAML raises KeyError for ``!!bool x``, AttributeError for ``!!timestamp x``.
            raise ValueError(f"{path}: not YAML: {exc}") from None
        try:
            return codec.decoder(cls)({} if data is None else data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
