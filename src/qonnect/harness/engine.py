"""Deterministic deployment engine.

Runs the whole federation in one process on simulated time: three RLA
replicas over an instant-delivery Raft group, one simulated cluster plus
resource agent per testbed entry, and a single step loop that advances
Raft timers, cluster dynamics, agent duties, and the leader's scheduler in
a fixed order. With a fixed seed, every run is bit-identical; "within N
seconds" deadlines are measured on the simulated clock.

A step visits only the members with work due; each skip leaves every
output as visiting them all would:

- Raft: every live node ticks. The replicas are checked for a new leader
  only after some node became leader (``RaftNode.terms_led`` grew): until
  then each check would find a follower, or a leader of a term it already
  recorded.
- Clusters and agents: one ``Members`` round at the engine's ``now``,
  the one live mode runs on its wall clock. It steps only the clusters
  with a Rolling or CrashLoop workload and runs the agent round only when
  some live agent has a duty due.
- RLAs: a live RLA is pumped only when ``RlaService.due`` says its pump
  has work, by the comparisons the pump itself makes.

The RLA replicas are conceptually hosted on the cloud clusters (one per
cloud cluster); killing a cloud cluster's lead agent stops its Raft node.
"""

from __future__ import annotations

import random
import uuid
from functools import cached_property
from typing import Callable

from qonnect.agent.client import RlaClient, RlaClientError
from qonnect.events import EventLog
from qonnect.harness.testbed import Members, TestbedSpec
from qonnect.kb.model import Domain
from qonnect.kb.store import KnowledgeBase, cluster_id_for
from qonnect.raft.node import RaftNode
from qonnect.raft.replica import Replica
from qonnect.raft.simulation import SyncRaftGroup
from qonnect.rla.rest import RestApi
from qonnect.rla.service import RlaService
from qonnect.sim.cluster import Fault, KillRa


class Deployment:
    DT = 0.05  # simulated seconds per step

    def __init__(self, spec: TestbedSpec | None = None) -> None:
        self.spec = spec if spec is not None else TestbedSpec()
        self.now = 0.0
        self.events = EventLog()
        self.rng = random.Random(self.spec.seed)

        self._build_control_plane()
        self.members = Members(self.spec, self.client, self.events)
        self.clusters = self.members.clusters
        self.agents = self.members.agents
        # RLAs ride on the cloud clusters, one each, in spec order.
        cloud = [c.name for c in self.spec.clusters if c.domain == Domain.CLOUD.value]
        self.rla_hosts: dict[int, str] = {
            rla_id: cloud[rla_id % len(cloud)] for rla_id in self.services
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_control_plane(self) -> None:
        members = tuple(range(self.spec.rla_count))
        addresses = {i: f"rla-{i}" for i in members}
        self.services: dict[int, RlaService] = {}
        # Address -> REST API of each running RLA; a stopped one leaves.
        self.apis: dict[str, RestApi] = {}
        replicas: dict[int, Replica] = {}
        for i in members:
            node = RaftNode(self.spec.raft_config(i))
            service = RlaService(
                self.spec.rla_config(i, addresses),
                node=node,
                kb=KnowledgeBase(),
                clock=lambda: self.now,
                id_factory=self._make_id,
                events=self.events,
            )
            # Looked up at each call, so a wrapper of ``SyncRaftGroup.propose``
            # installed later still sees every proposal.
            service.proposer = lambda raw, i=i: self.group.propose(i, raw)
            replicas[i] = Replica(node, service)
            self.services[i] = service
            self.apis[addresses[i]] = RestApi(service)
        self.group = SyncRaftGroup(replicas)
        # The terms led that the last leader check counted.
        self._terms_led = 0

    def _make_id(self) -> str:
        return str(uuid.UUID(int=self.rng.getrandbits(128), version=4))

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> None:
        self.now += self.DT
        self.group.tick(self.DT)
        terms_led = sum(replica.node.terms_led for replica in self.group.replicas.values())
        if terms_led != self._terms_led:  # some node became leader
            self._terms_led = terms_led
            for i, replica in self.group.replicas.items():
                if self.group.observe(i):
                    term = replica.node.current_term
                    self.events.append(self.now, f"rla-{i}", "leader-elected", {"term": term})
        self.members.step(self.now)
        for rla_id, service in self.services.items():
            if rla_id not in self.group.stopped and service.due(self.now):
                service.pump(self.now)

    def run(self, duration: float) -> None:
        for _ in range(int(round(duration / self.DT))):
            self.step()

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        deadline = self.now + timeout
        while self.now < deadline:
            if predicate():
                return True
            self.step()
        return predicate()

    # ------------------------------------------------------------------
    # Introspection and control
    # ------------------------------------------------------------------

    def leader_id(self) -> int | None:
        return self.group.leader_id()

    def leader_service(self) -> RlaService | None:
        leader = self.leader_id()
        return self.services.get(leader) if leader is not None else None

    def kb(self) -> KnowledgeBase:
        service = self.leader_service()
        if service is None:
            # Any replica's applied view; reads tolerate bounded staleness.
            service = next(iter(self.services.values()))
        return service.kb

    def client(self) -> RlaClient:
        """A client that knows every RLA's address, stopped or not."""
        return RlaClient([f"rla-{i}" for i in self.services], self.send)

    def send(self, target: str, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        """Carry one REST call to the RLA at ``target``, unless it was stopped."""
        api = self.apis.get(target)
        if api is None:
            raise RlaClientError(f"RLA unreachable: {target}")
        return api.dispatch(method, path, body)

    @cached_property
    def _cluster_ids(self) -> dict[str, str]:
        """Cluster name -> id, built on first use so that ``Deployment()``
        stays cheap."""
        return {name: cluster_id_for(c.ingress_ip, c.domain) for name, c in self.clusters.items()}

    @cached_property
    def _cluster_names(self) -> dict[str, str]:
        return {cluster_id: name for name, cluster_id in self._cluster_ids.items()}

    def cluster_name_by_id(self, cluster_id: str) -> str | None:
        return self._cluster_names.get(cluster_id)

    def inject_fault(self, cluster_name: str, fault: Fault) -> None:
        # A killed agent needs nothing more: the agent round skips agents
        # whose cluster reports ``ra_alive`` false.
        self.members.inject_fault(cluster_name, fault, self.now)

    def kill_ra(self, cluster_name: str) -> None:
        self.inject_fault(cluster_name, KillRa())

    def kill_rla(self, rla_id: int) -> None:
        """Stop RLA ``rla_id``; an id that names no RLA raises ``KeyError``,
        and one already stopped is left as it is."""
        if rla_id in self.group.stopped:
            return
        self.events.append(self.now, self.rla_hosts[rla_id], "fault-killrla", {})
        self.group.stop(rla_id)
        self.apis.pop(f"rla-{rla_id}", None)
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
        return all(cluster_id in reported for cluster_id in self._cluster_ids.values())

    def boot(self, timeout: float = 30.0) -> None:
        if not self.run_until(self.booted, timeout):
            raise TimeoutError(f"testbed did not boot within {timeout} simulated seconds")
        self.events.append(self.now, "engine", "booted", {"clusters": len(self.clusters)})
