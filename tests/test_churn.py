"""Submit/delete churn: a deleted application leaves nothing in the KB.

Each cycle submits one bookinfo app over the REST API, lets it become
Healthy, deletes it, and lets the agents remove its objects. Every run
lasts the same number of simulated steps, so two runs that differ only in
how many apps they churned must hold the same KB.
"""

from __future__ import annotations

from typing import Callable

from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.model import ComponentStatus

CYCLES = 50
# 40 simulated s: an app is Healthy within about 16 s of its submit, and
# its objects are gone within about 10 s of its delete.
CYCLE_STEPS = 800


def steps_until(dep: Deployment, done: Callable[[], bool]) -> int:
    """Step ``dep`` until ``done()`` holds; the number of steps it took."""
    steps = 0
    while not done():
        assert steps < CYCLE_STEPS, "a cycle ran out of steps"
        dep.step()
        steps += 1
    return steps


def churned(apps: int) -> Deployment:
    """A deployment that ran ``CYCLES`` cycles, churning an app in the first ``apps``."""
    dep = Deployment(TestbedSpec(seed=11))
    dep.boot()
    client = dep.client()
    for i in range(CYCLES):
        steps = 0
        if i < apps:
            name = f"churn-{i}"
            client.submit_application(bookinfo_bundle(name))
            steps += steps_until(
                dep,
                lambda: all(
                    c.status == ComponentStatus.HEALTHY
                    for c in dep.kb().live_application(name).components
                ),
            )
            client.delete_application(name)
            steps += steps_until(
                dep, lambda: not any(cluster.namespaces for cluster in dep.clusters.values())
            )
        assert steps <= CYCLE_STEPS
        for _ in range(CYCLE_STEPS - steps):
            dep.step()
    return dep


def test_kb_and_snapshot_size_do_not_grow_with_deleted_applications():
    snapshot_bytes = {}
    for apps in (5, CYCLES):
        dep = churned(apps)
        kb = dep.kb()
        assert kb.applications == {}
        assert all(service.kb == kb for service in dep.services.values())
        snapshot_bytes[apps] = len(kb.snapshot_state())
    assert snapshot_bytes[5] == snapshot_bytes[CYCLES]
