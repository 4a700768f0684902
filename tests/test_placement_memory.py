"""A memory guard on what placing a fleet leaves behind on the replicas.

Each replica keeps every component's record and decision, slotted, and each
decision shares its cluster record's id string and its node list's tuple.
"""

from __future__ import annotations

import gc
import tracemalloc

from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment

APPS = 50
# Bytes that submitting and placing a bookinfo application leaves allocated,
# per application, across the three replicas, their logs and the event log,
# as ``tracemalloc`` counts them on CPython 3.11 (from run to run, the figure
# moves by about 500 bytes as containers resize). With unslotted records,
# and each follower's decisions holding the cluster id decoded from the log,
# it was 31 200-31 700 bytes at 50 apps; with slotted records and shared
# ids, 28 800-29 300.
RETAINED_PER_APP = 30_300


def placed_everywhere(dep: Deployment, apps: int) -> bool:
    """Every replica holds ``apps`` applications and a decision for each
    of their components."""
    return all(
        len(service.kb.applications) == apps
        and all(comp.decision for app in service.kb.applications.values() for comp in app.components)
        for service in dep.services.values()
    )


def place_fleet(dep: Deployment, apps: int) -> float:
    """Submit ``apps`` bookinfo applications at one instant and run until
    every replica holds a decision for each component; the bytes that
    leaves allocated, per application."""
    client = dep.client()
    client.submit_application(bookinfo_bundle("warm-up"))
    assert dep.run_until(lambda: placed_everywhere(dep, 1), 30.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for i in range(apps):
            client.submit_application(bookinfo_bundle(f"app-{i}"))
        assert dep.run_until(lambda: placed_everywhere(dep, apps + 1), 30.0)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return grown / apps


def test_placing_fifty_apps_keeps_slotted_records_and_shared_strings():
    dep = Deployment()
    dep.boot()
    per_app = place_fleet(dep, APPS)
    assert per_app < RETAINED_PER_APP, per_app

    for service in dep.services.values():
        kb = service.kb
        assert len(kb.applications) == APPS + 1
        for app in kb.applications.values():
            for comp in app.components:
                decision = comp.decision
                assert not hasattr(comp, "__dict__") and not hasattr(decision, "__dict__")
                assert decision.cluster_id is kb.clusters[decision.cluster_id].cluster_id
                assert decision.node_names is kb._node_lists[decision.node_names]
