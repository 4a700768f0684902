"""The four evaluation scenarios, driven end-to-end on a deployment.

1. Deploy the storefront app with a performance-weighted QoS vector and
   expect every component on the performance cluster of its domain.
2. Flip the QoS vector to energy and expect migration to the energy
   clusters plus cleanup of the old namespaces via the heartbeat-404 path.
3. Kill the resource agent of the edge performance cluster and expect the
   ratings component requeued (after the grace period) onto another edge
   cluster.
4. Kill the Raft leader and expect a new leader plus normal scheduling of
   a subsequently submitted application.

Scenarios compose back-to-back on one deployment: 2 reuses 1's application,
3 and 4 bring their own instances, so earlier outcomes are never undone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.kb.model import ComponentStatus
from qonnect.sim.cluster import WorkloadPhase

PLACEMENT_DEADLINE = 60.0
MIGRATION_DEADLINE = 90.0
REELECTION_DEADLINE = 30.0
BOOT_DEADLINE = 30.0

QOS_PERFORMANCE = {"performance": 1.0, "energy": 0.0, "pricing": 0.0}
QOS_ENERGY = {"performance": 0.0, "energy": 1.0, "pricing": 0.0}


@dataclass
class StepCheck:
    description: str
    deadline: float
    met: bool
    elapsed: float | None
    observed: str


@dataclass
class ScenarioReport:
    scenario: int
    seed: int
    steps: list[StepCheck] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if all(s.met for s in self.steps) else "fail"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "verdict": self.verdict,
            "started_at": round(self.started_at, 3),
            "finished_at": round(self.finished_at, 3),
            "steps": [
                {
                    "description": s.description,
                    "deadline_s": s.deadline,
                    "met": s.met,
                    "elapsed_s": round(s.elapsed, 3) if s.elapsed is not None else None,
                    "observed": s.observed,
                }
                for s in self.steps
            ],
        }

    def render_text(self) -> str:
        lines = [f"scenario {self.scenario}: {self.verdict.upper()} (seed {self.seed})"]
        for s in self.steps:
            mark = "ok " if s.met else "FAIL"
            took = f"{s.elapsed:.1f}s" if s.elapsed is not None else "-"
            lines.append(f"  [{mark}] {s.description} ({took} of {s.deadline:.0f}s) {s.observed}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _profile_cluster(dep: Deployment, domain: str, profile: str) -> str:
    for name, cluster in dep.clusters.items():
        if cluster.domain.value == domain and cluster.profile == profile:
            return name
    raise KeyError(f"no {profile} cluster in domain {domain}")


def _component_placement(dep: Deployment, app_name: str) -> dict[str, str | None]:
    """component -> hosting cluster name (None while pending)."""
    app = dep.kb().live_application(app_name)
    if app is None:
        return {}
    out: dict[str, str | None] = {}
    for comp in app.components:
        if comp.decision is None:
            out[comp.name] = None
        else:
            out[comp.name] = dep.cluster_name_by_id(comp.decision.cluster_id)
    return out


def _running_on_profile(dep: Deployment, app_name: str, profile: str) -> bool:
    """Every component Healthy in the KB and Ready in the sim on the
    profile cluster of its target domain."""
    app = dep.kb().live_application(app_name)
    if app is None:
        return False
    for comp in app.components:
        expected = _profile_cluster(dep, comp.target_domain.value, profile)
        if comp.status != ComponentStatus.HEALTHY or comp.decision is None:
            return False
        if dep.cluster_name_by_id(comp.decision.cluster_id) != expected:
            return False
        workload = dep.clusters[expected].workload_state(app_name, comp.name)
        if workload is None or workload.phase != WorkloadPhase.READY:
            return False
    return True


def _deploy_running(
    dep: Deployment, report: ScenarioReport, app_name: str, qos: dict, profile: str
) -> None:
    client = dep.client()
    started = dep.now
    client.submit_application(bookinfo_bundle(app_name, qos))
    met = dep.run_until(
        lambda: _running_on_profile(dep, app_name, profile), PLACEMENT_DEADLINE
    )
    placement = _component_placement(dep, app_name)
    report.steps.append(
        StepCheck(
            description=f"{app_name}: all components running on {profile} clusters",
            deadline=PLACEMENT_DEADLINE,
            met=met,
            elapsed=dep.now - started,
            observed=str(placement),
        )
    )


def _boot(dep: Deployment, report: ScenarioReport) -> bool:
    started = dep.now
    met = dep.run_until(dep.booted, BOOT_DEADLINE)
    leader = dep.leader_id()
    report.steps.append(
        StepCheck(
            description="control plane elected a leader and all clusters registered",
            deadline=BOOT_DEADLINE,
            met=met,
            elapsed=dep.now - started,
            observed=f"leader=rla-{leader}, clusters={len(dep.kb().clusters)}",
        )
    )
    return met


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _scenario_1(dep: Deployment, report: ScenarioReport) -> None:
    if not _boot(dep, report):
        return
    _deploy_running(dep, report, "bookinfo", QOS_PERFORMANCE, "performance")


def _scenario_2(dep: Deployment, report: ScenarioReport) -> None:
    if not _boot(dep, report):
        return
    if dep.kb().live_application("bookinfo") is None:
        _deploy_running(dep, report, "bookinfo", QOS_PERFORMANCE, "performance")
        if not report.steps[-1].met:
            return
    old_hosts = {
        comp: cluster for comp, cluster in _component_placement(dep, "bookinfo").items()
    }
    started = dep.now
    dep.client().update_qos("bookinfo", QOS_ENERGY)

    met = dep.run_until(
        lambda: _running_on_profile(dep, "bookinfo", "energy"), MIGRATION_DEADLINE
    )
    report.steps.append(
        StepCheck(
            description="bookinfo: all components migrated to energy clusters",
            deadline=MIGRATION_DEADLINE,
            met=met,
            elapsed=dep.now - started,
            observed=str(_component_placement(dep, "bookinfo")),
        )
    )

    old_clusters = {c for c in old_hosts.values() if c is not None}
    cleaned = dep.run_until(
        lambda: all(
            not dep.clusters[c].namespace_exists("bookinfo") for c in old_clusters
        ),
        max(0.0, MIGRATION_DEADLINE - (dep.now - started)),
    )
    cleanup_events = [
        e
        for e in dep.events.matching(kind="cleanup")
        if e.at >= started and e.source in {f"ra-{c}" for c in old_clusters}
    ]
    report.steps.append(
        StepCheck(
            description="old namespaces removed via heartbeat-404 cleanup",
            deadline=MIGRATION_DEADLINE,
            met=cleaned and bool(cleanup_events),
            elapsed=dep.now - started,
            observed=f"cleanup events from {sorted({e.source for e in cleanup_events})}",
        )
    )


def _scenario_3(dep: Deployment, report: ScenarioReport) -> None:
    if not _boot(dep, report):
        return
    app_name = "bookinfo-resilience"
    _deploy_running(dep, report, app_name, QOS_PERFORMANCE, "performance")
    if not report.steps[-1].met:
        return

    edge_perf = _profile_cluster(dep, "edge", "performance")
    started = dep.now
    scanned = len(dep.events.events)
    dep.kill_ra(edge_perf)

    def requeued() -> bool:
        # Only an event logged since the kill can be the requeue; each is read once.
        nonlocal scanned
        fresh = dep.events.events[scanned:]
        scanned += len(fresh)
        return any(
            e.kind == "scheduler-component-requeued"
            and e.detail.get("component") == "ratings"
            and e.detail.get("app") == app_name
            for e in fresh
        )

    grace = dep.spec.grace_period
    met_requeue = dep.run_until(requeued, MIGRATION_DEADLINE)
    requeue_elapsed = dep.now - started
    # The stall clock starts at the last heartbeat, which may predate the
    # kill by up to one heartbeat period.
    min_expected = grace - dep.spec.ra_heartbeat_period
    report.steps.append(
        StepCheck(
            description="ratings requeued after the heartbeat grace period",
            deadline=MIGRATION_DEADLINE,
            met=met_requeue and requeue_elapsed >= min_expected,
            elapsed=requeue_elapsed,
            observed=f"grace={grace:.0f}s",
        )
    )
    if not met_requeue:
        return

    def relocated() -> bool:
        app = dep.kb().live_application(app_name)
        if app is None:
            return False
        comp = app.component("ratings")
        if comp is None or comp.decision is None or comp.status != ComponentStatus.HEALTHY:
            return False
        host = dep.cluster_name_by_id(comp.decision.cluster_id)
        if host is None or host == edge_perf or dep.clusters[host].domain.value != "edge":
            return False
        workload = dep.clusters[host].workload_state(app_name, "ratings")
        return workload is not None and workload.phase == WorkloadPhase.READY

    met_move = dep.run_until(relocated, max(0.0, MIGRATION_DEADLINE - (dep.now - started)))
    placement = _component_placement(dep, app_name)
    report.steps.append(
        StepCheck(
            description="ratings redeployed to a different edge cluster",
            deadline=MIGRATION_DEADLINE,
            met=met_move,
            elapsed=dep.now - started,
            observed=f"ratings -> {placement.get('ratings')}",
        )
    )


def _scenario_4(dep: Deployment, report: ScenarioReport) -> None:
    if not _boot(dep, report):
        return
    old_leader = dep.leader_id()
    started = dep.now
    dep.kill_rla(old_leader)

    met_election = dep.run_until(
        lambda: dep.leader_id() is not None and dep.leader_id() != old_leader,
        REELECTION_DEADLINE,
    )
    new_leader = dep.leader_id()
    report.steps.append(
        StepCheck(
            description="a surviving RLA took over leadership",
            deadline=REELECTION_DEADLINE,
            met=met_election,
            elapsed=dep.now - started,
            observed=f"rla-{old_leader} -> rla-{new_leader}",
        )
    )
    if not met_election:
        return

    app_name = "bookinfo-postfailover"
    submit_at = dep.now
    dep.client().submit_application(bookinfo_bundle(app_name, QOS_PERFORMANCE))

    def scheduled() -> bool:
        app = dep.kb().live_application(app_name)
        return app is not None and all(c.decision is not None for c in app.components)

    met_schedule = dep.run_until(scheduled, PLACEMENT_DEADLINE)
    report.steps.append(
        StepCheck(
            description=f"{app_name} scheduled by the new leader",
            deadline=PLACEMENT_DEADLINE,
            met=met_schedule,
            elapsed=dep.now - submit_at,
            observed=str(_component_placement(dep, app_name)),
        )
    )


_SCENARIOS = {1: _scenario_1, 2: _scenario_2, 3: _scenario_3, 4: _scenario_4}


def run_scenario(dep: Deployment, scenario: int) -> ScenarioReport:
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario: {scenario} (valid: 1-4)")
    report = ScenarioReport(scenario=scenario, seed=dep.spec.seed, started_at=dep.now)
    _SCENARIOS[scenario](dep, report)
    report.finished_at = dep.now
    dep.events.append(
        dep.now, "harness", "scenario-finished",
        {"scenario": scenario, "verdict": report.verdict},
    )
    return report


def run_all(dep: Deployment) -> list[ScenarioReport]:
    """All four scenarios back-to-back on one deployment."""
    return [run_scenario(dep, n) for n in (1, 2, 3, 4)]
