"""Deterministic deployment engine.

Runs the whole federation in one process on simulated time: three RLA
replicas over an instant-delivery Raft group, one simulated cluster plus
resource agent per testbed entry, and a single step loop that advances
Raft timers, cluster dynamics, agent duties, and the leader's scheduler in
a fixed order. With a fixed seed, every run is bit-identical; "within N
seconds" deadlines are measured on the simulated clock.

The RLA replicas are conceptually hosted on the cloud clusters (one per
cloud cluster); killing a cloud cluster's lead agent stops its Raft node.
"""

from __future__ import annotations

import random
import uuid
from typing import Callable

from qonnect.agent.client import InProcessRlaClient, RlaClientError
from qonnect.agent.ra import RaConfig, ResourceAgent
from qonnect.events import EventLog
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import Batch, KBCommand, encode_command
from qonnect.kb.model import Domain
from qonnect.kb.store import Effect, KnowledgeBase, cluster_id_for
from qonnect.raft.node import RaftConfig, Role
from qonnect.raft.simulation import SyncRaftGroup
from qonnect.rla.config import RlaConfig
from qonnect.rla.rest import RestApi
from qonnect.rla.service import RlaService, UnavailableError
from qonnect.sim.cluster import Fault, KillRa, KillRla, SimCluster, make_cluster


class EngineRlaClient(InProcessRlaClient):
    """In-process client that respects killed RLAs."""

    def __init__(self, apis: dict[str, RestApi], unreachable: set[str]) -> None:
        super().__init__(apis)
        self._unreachable = unreachable

    def _dispatch(self, target: str, method: str, path: str, body: dict | None):
        if target in self._unreachable:
            raise RlaClientError(f"RLA unreachable: {target}")
        return super()._dispatch(target, method, path, body)


class Deployment:
    def __init__(self, spec: TestbedSpec | None = None, seed: int | None = None) -> None:
        self.spec = spec if spec is not None else TestbedSpec.default()
        if seed is not None:
            self.spec.seed = seed
        self.now = 0.0
        self.events = EventLog()
        self.rng = random.Random(self.spec.seed)
        self.unreachable_rlas: set[str] = set()

        self.clusters: dict[str, SimCluster] = {}
        for c_index, cspec in enumerate(self.spec.clusters):
            self.clusters[cspec.name] = make_cluster(
                name=cspec.name,
                domain=Domain(cspec.domain),
                profile=cspec.profile,
                ingress_ip=cspec.ingress_ip,
                workers=cspec.workers,
                seed=self.spec.seed ^ (c_index + 1),
                rollout_latency=self.spec.rollout_latency,
            )

        self._build_control_plane()
        self._build_agents()
        # RLAs ride on the cloud clusters, one each, in spec order.
        cloud = [c.name for c in self.spec.clusters if c.domain == Domain.CLOUD.value]
        self.rla_hosts: dict[int, str] = {
            rla_id: cloud[rla_id % len(cloud)] for rla_id in self.services
        }
        self._last_roles: dict[int, Role] = {
            i: node.role for i, node in self.group.nodes.items()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_control_plane(self) -> None:
        members = tuple(range(self.spec.rla_count))
        addresses = {i: f"rla-{i}" for i in members}
        raft_configs = [
            RaftConfig(
                node_id=i,
                members=members,
                election_timeout=self.spec.election_timeout,
                heartbeat_interval=self.spec.heartbeat_interval,
                seed=self.spec.seed,
            )
            for i in members
        ]
        self.group = SyncRaftGroup(raft_configs)
        self.services: dict[int, RlaService] = {}
        self.apis: dict[str, RestApi] = {}
        for i in members:
            config = RlaConfig(
                rla_id=i,
                listen_address=addresses[i],
                peers=addresses,
                tick_period=self.spec.tick_period,
                grace_period=self.spec.grace_period,
                snapshot_staleness=self.spec.snapshot_staleness,
                telemetry_flush=self.spec.telemetry_flush,
                seed=self.spec.seed,
            )
            service = RlaService(
                config,
                node=self.group.nodes[i],
                kb=KnowledgeBase(),
                clock=lambda: self.now,
                id_factory=self._make_id,
                events=self.events,
            )
            service.proposer = self._make_proposer(i, service)
            self.group.apply_fns[i] = service.apply_committed
            self.group.restore_fns[i] = service.restore_from_snapshot
            self.services[i] = service
            self.apis[addresses[i]] = RestApi(service)

    def _make_id(self) -> str:
        return str(uuid.UUID(int=self.rng.getrandbits(128), version=4))

    def _make_proposer(self, rla_id: int, service: RlaService) -> Callable:
        def propose(entry: KBCommand | Batch) -> list[Effect]:
            term = self.group.nodes[rla_id].current_term
            index = self.group.propose(rla_id, encode_command(entry), service.await_effects)
            effects = service.take_effects(index, term)
            if effects is None:
                raise UnavailableError("proposal did not reach a quorum")
            return effects

        return propose

    def _build_agents(self) -> None:
        self.agents: dict[str, ResourceAgent] = {}
        for cspec in self.spec.clusters:
            client = EngineRlaClient(self.apis, self.unreachable_rlas)
            self.agents[cspec.name] = ResourceAgent(
                backend=self.clusters[cspec.name],
                client=client,
                config=RaConfig(
                    domain=cspec.domain,
                    snapshot_period=self.spec.ra_snapshot_period,
                    poll_period=self.spec.ra_poll_period,
                    heartbeat_period=self.spec.ra_heartbeat_period,
                    rollout_timeout=self.spec.rollout_timeout,
                ),
                events=self.events,
                name=f"ra-{cspec.name}",
            )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self, dt: float = 0.05) -> None:
        self.now += dt
        self.group.tick(dt)
        self._observe_leadership()
        for cluster in self.clusters.values():
            for event in cluster.step(dt):
                self.events.append(event.at, cluster.name, event.kind, event.detail)
        for name, agent in self.agents.items():
            if self.clusters[name].ra_alive:
                agent.run_due(self.now)
        for rla_id, service in self.services.items():
            if rla_id not in self.group.stopped:
                service.pump(self.now)

    def run(self, duration: float, dt: float = 0.05) -> None:
        steps = int(round(duration / dt))
        for _ in range(steps):
            self.step(dt)

    def run_until(self, predicate: Callable[[], bool], timeout: float, dt: float = 0.05) -> bool:
        deadline = self.now + timeout
        while self.now < deadline:
            if predicate():
                return True
            self.step(dt)
        return predicate()

    def _observe_leadership(self) -> None:
        for i, node in self.group.nodes.items():
            if node.role != self._last_roles[i]:
                self._last_roles[i] = node.role
                if node.role == Role.LEADER:
                    self.events.append(
                        self.now,
                        f"rla-{i}",
                        "leader-elected",
                        {"term": node.current_term},
                    )

    # ------------------------------------------------------------------
    # Introspection and control
    # ------------------------------------------------------------------

    def leader_id(self) -> int | None:
        node = self.group.leader()
        return node.config.node_id if node is not None else None

    def leader_service(self) -> RlaService | None:
        leader = self.leader_id()
        return self.services.get(leader) if leader is not None else None

    def kb(self) -> KnowledgeBase:
        service = self.leader_service()
        if service is None:
            # Any replica's applied view; reads tolerate bounded staleness.
            service = next(iter(self.services.values()))
        return service.kb

    def client(self) -> EngineRlaClient:
        return EngineRlaClient(self.apis, self.unreachable_rlas)

    def cluster_id_of(self, cluster_name: str) -> str:
        cluster = self.clusters[cluster_name]
        return cluster_id_for(cluster.ingress_ip, cluster.domain)

    def cluster_name_by_id(self, cluster_id: str) -> str | None:
        for name in self.clusters:
            if self.cluster_id_of(name) == cluster_id:
                return name
        return None

    def inject_fault(self, cluster_name: str, fault: Fault) -> None:
        cluster = self.clusters[cluster_name]
        event = cluster.inject_fault(fault)
        self.events.append(self.now, cluster_name, event.kind, event.detail)
        # A killed agent needs nothing here: ``step`` skips agents whose
        # cluster reports ``ra_alive`` false.
        if isinstance(fault, KillRla):
            for rla_id, host in self.rla_hosts.items():
                if host == cluster_name:
                    self._stop_rla(rla_id)

    def kill_ra(self, cluster_name: str) -> None:
        self.inject_fault(cluster_name, KillRa())

    def kill_rla(self, rla_id: int) -> None:
        host = self.rla_hosts.get(rla_id)
        if host is not None:
            cluster = self.clusters[host]
            event = cluster.inject_fault(KillRla())
            self.events.append(self.now, host, event.kind, event.detail)
        self._stop_rla(rla_id)

    def _stop_rla(self, rla_id: int) -> None:
        self.group.stop(rla_id)
        self.unreachable_rlas.add(f"rla-{rla_id}")
        self.events.append(self.now, f"rla-{rla_id}", "rla-stopped", {})

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def booted(self) -> bool:
        """Leader elected, every cluster registered, telemetry flowing."""
        service = self.leader_service()
        if service is None:
            return False
        kb = service.kb
        if len(kb.clusters) < len(self.clusters):
            return False
        reported = {cid for cid, _ in kb.nodes}
        return all(self.cluster_id_of(name) in reported for name in self.clusters)

    def boot(self, timeout: float = 30.0) -> None:
        if not self.run_until(self.booted, timeout):
            raise TimeoutError(f"testbed did not boot within {timeout} simulated seconds")
        self.events.append(self.now, "engine", "booted", {"clusters": len(self.clusters)})
