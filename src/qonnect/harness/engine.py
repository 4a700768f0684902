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
- Clusters: only those with a Rolling or CrashLoop workload step, in
  ``clusters`` order, each to the engine's ``now``. A settled cluster's
  step would only set its clock, so the engine sets it instead before what
  reads it: an agent round (an apply stamps its rollout start) and a fault
  (the fault's event). Either may unsettle the cluster, which then steps
  from the next step on.
- Agents: the round runs only on steps where some live agent has a duty
  due, the earliest ``ResourceAgent.next_due`` recorded after the last
  round; on any other step every agent would do nothing.
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
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.model import Domain
from qonnect.kb.store import KnowledgeBase, cluster_id_for
from qonnect.raft.node import RaftNode
from qonnect.raft.replica import Replica
from qonnect.raft.simulation import SyncRaftGroup
from qonnect.rla.rest import RestApi
from qonnect.rla.service import RlaService
from qonnect.sim.cluster import Fault, KillRa, SimCluster


class Deployment:
    DT = 0.05  # simulated seconds per step

    def __init__(self, spec: TestbedSpec | None = None) -> None:
        self.spec = spec if spec is not None else TestbedSpec()
        self.now = 0.0
        self.events = EventLog()
        self.rng = random.Random(self.spec.seed)

        self.clusters: dict[str, SimCluster] = self.spec.make_clusters(self.events)
        # The clusters with a Rolling or CrashLoop workload, in ``clusters``
        # order: the only ones whose step has work.
        self._unsettled: dict[str, SimCluster] = {}

        self._build_control_plane()
        self.agents = self.spec.make_agents(self.clusters, self.client, self.events)
        # The earliest ``next_due`` of the live agents after the last agent
        # round: no agent has work before it.
        self._agents_due = 0.0
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
        for name, cluster in list(self._unsettled.items()):
            cluster.step(self.now)
            if not cluster.unsettled:
                del self._unsettled[name]
        if self.now >= self._agents_due:
            due = float("inf")
            for name, agent in self.agents.items():
                cluster = self.clusters[name]
                if cluster.ra_alive:
                    cluster.now = self.now  # applies read it
                    agent.run_due(self.now)
                    due = min(due, agent.next_due)
                    self._watch(name, cluster)
            self._agents_due = due
        for rla_id, service in self.services.items():
            if rla_id not in self.group.stopped and service.due(self.now):
                service.pump(self.now)

    def _watch(self, name: str, cluster: SimCluster) -> None:
        """Step ``cluster`` from the next step on if it has become unsettled."""
        if cluster.unsettled and name not in self._unsettled:
            self._unsettled[name] = cluster
            self._unsettled = {n: c for n, c in self.clusters.items() if n in self._unsettled}

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
        cluster = self.clusters[cluster_name]
        cluster.now = self.now  # the fault's event reads it
        cluster.inject_fault(fault)
        self._watch(cluster_name, cluster)
        # A killed agent needs nothing here: ``step`` skips agents whose
        # cluster reports ``ra_alive`` false.

    def kill_ra(self, cluster_name: str) -> None:
        self.inject_fault(cluster_name, KillRa())

    def kill_rla(self, rla_id: int) -> None:
        """Stop RLA ``rla_id``; an id that names no RLA raises ``KeyError``."""
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
