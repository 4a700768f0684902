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
from typing import Callable

from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.kb.model import ComponentStatus
from qonnect.sim.cluster import WorkloadPhase

PLACEMENT_DEADLINE = 60.0
MIGRATION_DEADLINE = 90.0
REELECTION_DEADLINE = 30.0
BOOT_DEADLINE = 30.0

_HEALTHY, _READY = ComponentStatus.HEALTHY, WorkloadPhase.READY  # bound once: see raft.node

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
        if comp.status is not _HEALTHY or comp.decision is None:
            return False
        if dep.cluster_name_by_id(comp.decision.cluster_id) != expected:
            return False
        workload = dep.clusters[expected].workload_state(app_name, comp.name)
        if workload is None or workload.phase is not _READY:
            return False
    return True


def _await(
    dep: Deployment,
    report: ScenarioReport,
    description: str,
    until: Callable[[], bool],
    deadline: float,
    observe: Callable[[], str],
    started: float | None = None,
    check: Callable[[], bool] = lambda: True,
) -> bool:
    """Run until ``until`` holds, at most ``deadline`` seconds after
    ``started`` (default: now), and record the step; ``check`` is a further
    condition of the step's verdict. Returns whether ``until`` held."""
    if started is None:
        started = dep.now
    held = dep.run_until(until, max(0.0, deadline - (dep.now - started)))
    report.steps.append(
        StepCheck(description, deadline, held and check(), dep.now - started, observe())
    )
    return held


def _deploy_running(
    dep: Deployment, report: ScenarioReport, app_name: str, qos: dict, profile: str
) -> bool:
    started = dep.now
    dep.client().submit_application(bookinfo_bundle(app_name, qos))
    return _await(
        dep, report, f"{app_name}: all components running on {profile} clusters",
        lambda: _running_on_profile(dep, app_name, profile), PLACEMENT_DEADLINE,
        lambda: str(_component_placement(dep, app_name)), started,
    )


def _boot(dep: Deployment, report: ScenarioReport) -> bool:
    return _await(
        dep, report, "control plane elected a leader and all clusters registered",
        dep.booted, BOOT_DEADLINE,
        lambda: f"leader=rla-{dep.leader_id()}, clusters={len(dep.kb().clusters)}",
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _scenario_1(dep: Deployment, report: ScenarioReport) -> None:
    if _boot(dep, report):
        _deploy_running(dep, report, "bookinfo", QOS_PERFORMANCE, "performance")


def _scenario_2(dep: Deployment, report: ScenarioReport) -> None:
    if not _boot(dep, report):
        return
    if dep.kb().live_application("bookinfo") is None and not _deploy_running(
        dep, report, "bookinfo", QOS_PERFORMANCE, "performance"
    ):
        return
    old_clusters = {c for c in _component_placement(dep, "bookinfo").values() if c is not None}
    started = dep.now
    dep.client().update_qos("bookinfo", QOS_ENERGY)
    _await(
        dep, report, "bookinfo: all components migrated to energy clusters",
        lambda: _running_on_profile(dep, "bookinfo", "energy"), MIGRATION_DEADLINE,
        lambda: str(_component_placement(dep, "bookinfo")), started,
    )

    def cleaners() -> list[str]:
        return sorted({
            e.source
            for e in dep.events.matching(kind="cleanup")
            if e.at >= started and e.source in {f"ra-{c}" for c in old_clusters}
        })

    _await(
        dep, report, "old namespaces removed via heartbeat-404 cleanup",
        lambda: all(not dep.clusters[c].namespace_exists("bookinfo") for c in old_clusters),
        MIGRATION_DEADLINE, lambda: f"cleanup events from {cleaners()}", started,
        check=lambda: bool(cleaners()),
    )


def _scenario_3(dep: Deployment, report: ScenarioReport) -> None:
    app_name = "bookinfo-resilience"
    if not _boot(dep, report) or not _deploy_running(
        dep, report, app_name, QOS_PERFORMANCE, "performance"
    ):
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
    # The stall clock starts at the last heartbeat, which may predate the
    # kill by up to one heartbeat period.
    min_expected = grace - dep.spec.ra_heartbeat_period
    if not _await(
        dep, report, "ratings requeued after the heartbeat grace period",
        requeued, MIGRATION_DEADLINE, lambda: f"grace={grace:.0f}s", started,
        check=lambda: dep.now - started >= min_expected,
    ):
        return

    def relocated() -> bool:
        app = dep.kb().live_application(app_name)
        if app is None:
            return False
        comp = app.component("ratings")
        if comp is None or comp.decision is None or comp.status is not _HEALTHY:
            return False
        host = dep.cluster_name_by_id(comp.decision.cluster_id)
        if host is None or host == edge_perf or dep.clusters[host].domain.value != "edge":
            return False
        workload = dep.clusters[host].workload_state(app_name, "ratings")
        return workload is not None and workload.phase is _READY

    _await(
        dep, report, "ratings redeployed to a different edge cluster",
        relocated, MIGRATION_DEADLINE,
        lambda: f"ratings -> {_component_placement(dep, app_name).get('ratings')}", started,
    )


def _scenario_4(dep: Deployment, report: ScenarioReport) -> None:
    if not _boot(dep, report):
        return
    old_leader = dep.leader_id()
    started = dep.now
    dep.kill_rla(old_leader)
    if not _await(
        dep, report, "a surviving RLA took over leadership",
        lambda: dep.leader_id() is not None and dep.leader_id() != old_leader,
        REELECTION_DEADLINE, lambda: f"rla-{old_leader} -> rla-{dep.leader_id()}", started,
    ):
        return

    app_name = "bookinfo-postfailover"
    started = dep.now
    dep.client().submit_application(bookinfo_bundle(app_name, QOS_PERFORMANCE))

    def scheduled() -> bool:
        app = dep.kb().live_application(app_name)
        return app is not None and all(c.decision is not None for c in app.components)

    _await(
        dep, report, f"{app_name} scheduled by the new leader", scheduled,
        PLACEMENT_DEADLINE, lambda: str(_component_placement(dep, app_name)), started,
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
