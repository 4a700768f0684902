"""Small helpers the tests share: reading a Raft log, a log entry no
replica can apply, writing a bundle as a YAML stream, a cluster's id in an engine deployment, the engine step that
visits every member, and the parameter table's derivation (the energy
coefficients and the decimal midpoint).

The energy coefficient of a node-hour is ((W_idle + W_max) / 2) x PUE / 1000
kWh. The two provider presets bracket the profile table: the AWS-derived
value is the lowest (energy-efficient profile), the GCP-derived value the
highest (performance profile), and the cost profile takes their midpoint.
The GCP preset uses the published average idle/max watts and PUE verbatim;
the AWS preset's max watts is back-solved so the formula lands on the
published 0.0024042 kWh coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import yaml

from qonnect.harness.engine import Deployment
from qonnect.kb.store import cluster_id_for
from qonnect.raft.messages import LogEntry
from qonnect.raft.node import RaftNode, Role


# A batch entry no replica can decode: its schema version is unknown.
UNDECODABLE_BATCH = '{"kind":"batch","v":3,"commands":[]}'


def entries_from(node: RaftNode, index: int) -> list[LogEntry]:
    """The entries ``node`` holds from ``index`` on (none its snapshot covers)."""
    first = max(index, node.snapshot_index + 1)
    return [node.entry_at(i) for i in range(first, node.last_log_index + 1)]


def bundle_to_yaml(bundle: dict) -> str:
    """One YAML stream: the application document, then one doc per component."""
    docs = [{"application": bundle["application"]}]
    docs.extend(bundle["components"])
    return yaml.safe_dump_all(docs, sort_keys=False)


def cluster_id_of(dep: Deployment, cluster_name: str) -> str:
    """The KB id of ``dep``'s cluster named ``cluster_name``."""
    cluster = dep.clusters[cluster_name]
    return cluster_id_for(cluster.ingress_ip, cluster.domain)


def visit_everything_step(dep: Deployment) -> None:
    """``Deployment.step`` as it was before it skipped members with nothing
    due: every step steps every cluster and pumps every live RLA, and a
    pump of a non-leader drops its queued telemetry and its lease. Agents
    run only when one is due, as then."""
    dep.now += dep.DT
    dep.group.tick(dep.DT)
    for cluster in dep.clusters.values():
        cluster.step(dep.now)
    if dep.now >= dep.members._due:
        due = float("inf")
        for name, agent in dep.agents.items():
            if dep.clusters[name].ra_alive:
                agent.run_due(dep.now)
                due = min(due, agent.next_due)
        dep.members._due = due
    for rla_id, service in dep.services.items():
        if rla_id not in dep.group.stopped:
            if service.node.role != Role.LEADER:
                service._telemetry.clear()
                service._status_queued.clear()
                service._lease = None
            service.pump(dep.now)


def table_midpoint(low: float, high: float, places: int = 7) -> float:
    """Midpoint in exact decimal arithmetic (the parameter table is decimal)."""
    value = (Decimal(repr(low)) + Decimal(repr(high))) / 2
    return float(value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class EnergyCoefficientInput:
    w_idle: float  # watts
    w_max: float  # watts
    pue: float  # power usage effectiveness, dimensionless

    def __post_init__(self) -> None:
        if self.w_idle > self.w_max:
            raise ValueError("idle wattage cannot exceed max wattage")
        if self.pue < 1.0:
            raise ValueError("PUE is at least 1")


AWS_COEFFICIENTS = EnergyCoefficientInput(w_idle=0.74, w_max=3.4965, pue=1.135)
GCP_COEFFICIENTS = EnergyCoefficientInput(w_idle=0.71, w_max=4.26, pue=1.1)


def energy_coefficient(coefficients: EnergyCoefficientInput) -> float:
    """kWh consumed per node-hour at average load."""
    return (coefficients.w_idle + coefficients.w_max) / 2.0 * coefficients.pue / 1000.0
