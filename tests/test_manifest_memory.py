"""Each replica holds a manifest once, as its canonical text.

Validation writes a manifest's text, the KB keeps it, a poll forwards that
very string, and the agent substitutes in it and keeps it in its record.
A memory guard holds the bytes a submit leaves behind per application.
"""

from __future__ import annotations

import gc
import tracemalloc

from qonnect.agent.ra import ResourceAgent
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment

APPS = 50
# Bytes a bookinfo submit leaves allocated, per application, across the
# three replicas, their logs and the event log, as ``tracemalloc`` counts
# them on CPython 3.11. Keeping each manifest as a decoded dict tree on
# every replica, and its text for snapshots as well, retained about 43 KB
# per app at 50 apps; one text per replica retains about 19.5 KB.
RETAINED_PER_APP = 30_000


def submit_fleet(dep: Deployment, apps: int) -> float:
    """Submit ``apps`` bookinfo applications at one instant; the bytes they
    leave allocated, per application."""
    client = dep.client()
    client.submit_application(bookinfo_bundle("warm-up"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for i in range(apps):
            client.submit_application(bookinfo_bundle(f"app-{i}"))
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return grown / apps


def test_fifty_submits_keep_one_manifest_text_per_replica(monkeypatch):
    dep = Deployment()
    dep.boot()
    per_app = submit_fleet(dep, APPS)
    assert per_app < RETAINED_PER_APP, per_app

    # The agents get the leader KB's own string, and keep it in their record.
    leader_kb = dep.leader_service().kb
    got = []
    reconcile = ResourceAgent.reconcile_payload

    def spied(agent, payload, record, now):
        got.append(payload)
        applied = reconcile(agent, payload, record, now)
        kept = record[payload["app_id"]]["components"][payload["component"]]["manifest"]
        assert kept is payload["manifest"]
        return applied

    monkeypatch.setattr(ResourceAgent, "reconcile_payload", spied)
    assert dep.run_until(lambda: len(got) >= 8, 30.0)
    for payload in got:
        comp = leader_kb.applications[payload["app_id"]].component(payload["component"])
        assert payload["manifest"] is comp.manifest
    # Followers have applied every submit by now.
    for service in dep.services.values():
        apps = service.kb.applications.values()
        assert len(apps) == APPS + 1
        assert all(type(comp.manifest) is str for app in apps for comp in app.components)
