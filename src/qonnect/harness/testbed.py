"""Testbed layout: clusters per domain and profile, three RLAs, periods and seeds.

``TestbedSpec`` also derives each RLA's config and Raft node settings, and
``Members`` builds the simulated clusters and their resource agents from it
and steps them: both deployments (the deterministic engine and live HTTP
mode) drive their members through it.
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
from qonnect.sim.cluster import Fault, SimCluster, make_cluster
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


class Members:
    """The testbed's simulated clusters and their resource agents, one of
    each per spec entry, and the one round that steps them.

    A round visits only what has work, and each skip leaves every output as
    visiting them all would:

    - Clusters: only those with a Rolling or CrashLoop workload step, in
      spec order. A settled cluster's step would only set its clock, so its
      clock is set instead before what reads it: an agent round (an apply
      stamps its rollout start) and a fault (the fault's event). Either may
      unsettle the cluster, which then steps from the next round on.
    - Agents: the round runs only when some live agent has a duty due, the
      earliest ``ResourceAgent.next_due`` recorded after the last round.

    A clock is set to ``max(cluster.now, now)``, so a driver's clock that
    steps back (live mode's wall clock) never moves a cluster's back. An
    agent that raises is logged as ``agent-error`` and the round goes on to
    the next agent, so one agent's fault neither stops the others nor goes
    unseen.
    """

    def __init__(
        self, spec: TestbedSpec, make_client: Callable[[], RlaClient], events: EventLog
    ) -> None:
        self.events = events
        self.clusters: dict[str, SimCluster] = {}
        self.agents: dict[str, ResourceAgent] = {}
        for c in spec.clusters:
            cluster = self.clusters[c.name] = make_cluster(
                c.name, Domain(c.domain), c.profile, c.ingress_ip, c.workers,
                rollout_latency=spec.rollout_latency, events=events,
            )
            config = RaConfig(
                c.domain, spec.ra_snapshot_period, spec.ra_poll_period, spec.ra_heartbeat_period
            )
            self.agents[c.name] = ResourceAgent(
                cluster, make_client(), config, events=events, name=f"ra-{c.name}"
            )
        # The clusters with a Rolling or CrashLoop workload, in spec order:
        # the only ones whose step has work.
        self._unsettled: dict[str, SimCluster] = {}
        # No live agent has work before this time.
        self._due = 0.0

    def step(self, now: float) -> None:
        """One round at the driver's time ``now``."""
        if self._unsettled:
            for name, cluster in list(self._unsettled.items()):
                cluster.step(now)
                if not cluster.unsettled:
                    del self._unsettled[name]
        if now < self._due:
            return
        due = math.inf
        for name, agent in self.agents.items():
            cluster = self.clusters[name]
            if cluster.ra_alive:
                cluster.now = max(cluster.now, now)  # applies read it
                try:
                    agent.run_due(now)
                except Exception as exc:
                    self.events.append(now, agent.name, "agent-error", {"error": repr(exc)})
                due = min(due, agent.next_due)
                self._watch(name, cluster)
        self._due = due

    def inject_fault(self, name: str, fault: Fault, now: float) -> None:
        """Inject ``fault`` into cluster ``name`` at the driver's time ``now``."""
        cluster = self.clusters[name]
        cluster.now = max(cluster.now, now)  # the fault's event reads it
        cluster.inject_fault(fault)
        self._watch(name, cluster)

    def _watch(self, name: str, cluster: SimCluster) -> None:
        """Step ``cluster`` from the next round on if it has become unsettled."""
        if cluster.unsettled and name not in self._unsettled:
            self._unsettled[name] = cluster
            self._unsettled = {n: c for n, c in self.clusters.items() if n in self._unsettled}
