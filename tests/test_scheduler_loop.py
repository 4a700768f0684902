"""Leader scheduling loop: place pending, requeue stalled, halt on stale."""

from __future__ import annotations

import random
from dataclasses import replace
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from placement_oracle import random_instance
from qonnect.kb import (
    KnowledgeBase,
    PutNodeSnapshot,
    QoSVector,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    SubmitApplication,
)
from qonnect.kb.commands import RequeueComponent
from qonnect.kb.model import Domain
from qonnect.scheduler import BordaCountStrategy, borda, eligibility_filter, scheduler_tick
from qonnect.sim.profiles import PROFILES

PERIODS = {"grace_period": 30.0, "snapshot_staleness": 15.0}


def profile_nodes(profile: str) -> tuple[dict, ...]:
    spec = PROFILES[profile]
    return tuple(
        {
            "node_name": f"{profile}-w{i}",
            "ready": True,
            "schedulable": True,
            "pressured": False,
            "energy": spec.energy,
            "pricing": spec.pricing,
            "cpu": spec.cpu,
            "memory": spec.memory,
            "bandwidth": spec.bandwidth,
            "storage": spec.storage,
            "role": "worker",
        }
        for i in range(2)
    )


def build_kb(now: float = 0.0) -> tuple[KnowledgeBase, dict[str, str]]:
    """Nine-cluster KB with fresh snapshots everywhere."""
    kb = KnowledgeBase()
    ids: dict[str, str] = {}
    for d_idx, domain in enumerate(Domain):
        for p_idx, profile in enumerate(("energy", "cost", "performance")):
            effect = kb.apply(
                RegisterCluster(f"10.{d_idx}.{p_idx}.1", domain, registered_at=now)
            )
            cid = effect.detail["cluster_id"]
            ids[f"{domain.value}-{profile}"] = cid
            kb.apply(PutNodeSnapshot(cid, profile_nodes(profile), taken_at=now))
    return kb, ids


def submit(kb: KnowledgeBase, qos: QoSVector, name: str = "bookinfo", at: float = 0.0) -> str:
    manifest = {"objects": []}
    kb.apply(
        SubmitApplication(
            app_id=f"{name}-id",
            name=name,
            labels=(),
            qos=qos,
            components=(
                ("productpage", Domain.CLOUD, manifest),
                ("details", Domain.FOG, manifest),
                ("reviews", Domain.FOG, manifest),
                ("ratings", Domain.EDGE, manifest),
            ),
            submitted_at=at,
        )
    )
    return f"{name}-id"


def test_four_pending_components_yield_four_decisions_on_performance():
    kb, ids = build_kb()
    submit(kb, QoSVector(performance=1.0))
    commands = scheduler_tick(kb, now=1.0, term=2, **PERIODS)
    decisions = [c for c in commands if isinstance(c, RecordDecision)]
    assert len(decisions) == 4
    by_component = {c.component: c for c in decisions}
    assert by_component["productpage"].cluster_id == ids["cloud-performance"]
    assert by_component["details"].cluster_id == ids["fog-performance"]
    assert by_component["reviews"].cluster_id == ids["fog-performance"]
    assert by_component["ratings"].cluster_id == ids["edge-performance"]
    assert all(c.deciding_term == 2 for c in decisions)
    assert all(len(c.node_names) >= 1 for c in decisions)


def test_energy_qos_places_on_energy_clusters():
    kb, ids = build_kb()
    submit(kb, QoSVector(energy=1.0))
    commands = scheduler_tick(kb, now=1.0, term=2, **PERIODS)
    targets = {c.component: c.cluster_id for c in commands if isinstance(c, RecordDecision)}
    assert targets["ratings"] == ids["edge-energy"]
    assert targets["productpage"] == ids["cloud-energy"]


def test_stalled_component_requeues_then_places_elsewhere_next_tick():
    kb, ids = build_kb()
    app_id = submit(kb, QoSVector(performance=1.0))
    for command in scheduler_tick(kb, now=1.0, term=2, **PERIODS):
        kb.apply(command)
    edge_perf = ids["edge-performance"]
    kb.apply(RecordHeartbeat(app_id, "ratings", edge_perf, 1, "healthy", at=2.0))
    # Keep the healthy components' heartbeats fresh; `ratings` goes silent.
    for comp, cid in (
        ("productpage", ids["cloud-performance"]),
        ("details", ids["fog-performance"]),
        ("reviews", ids["fog-performance"]),
    ):
        kb.apply(RecordHeartbeat(app_id, comp, cid, 1, "healthy", at=40.0))

    # Refresh every cluster's snapshots except the dead edge-performance one.
    for key, cid in ids.items():
        if key == "edge-performance":
            continue
        profile = key.split("-", 1)[1]
        kb.apply(PutNodeSnapshot(cid, profile_nodes(profile), taken_at=40.0))

    commands = scheduler_tick(kb, now=40.0, term=2, **PERIODS)
    requeues = [c for c in commands if isinstance(c, RequeueComponent)]
    assert [r.component for r in requeues] == ["ratings"]
    # Requeue wins this tick: no placement yet for ratings.
    assert not any(
        isinstance(c, RecordDecision) and c.component == "ratings" for c in commands
    )
    for command in commands:
        kb.apply(command)

    next_commands = scheduler_tick(kb, now=45.0, term=2, **PERIODS)
    placements = [c for c in next_commands if isinstance(c, RecordDecision)]
    assert len(placements) == 1
    assert placements[0].component == "ratings"
    # Stale snapshots keep the dead cluster out; capacity QoS picks energy
    # (better bandwidth than cost) among the survivors.
    assert placements[0].cluster_id == ids["edge-energy"]


def test_all_snapshots_stale_halts_and_component_stays_pending():
    kb, ids = build_kb(now=0.0)
    submit(kb, QoSVector(performance=1.0))
    commands = scheduler_tick(kb, now=100.0, term=2, **PERIODS)
    assert commands == []
    assert len(kb.pending_components()) == 4


def test_quiet_kb_produces_no_commands():
    kb, _ = build_kb()
    assert scheduler_tick(kb, now=1.0, term=2, **PERIODS) == []


def random_federation(seed: int) -> KnowledgeBase:
    """One random domain per ``Domain`` and apps whose QoS vectors repeat."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    qos_pool = []
    for d_idx, domain in enumerate(Domain):
        snapshots, qos = random_instance(rng)
        qos_pool.append(qos)
        cluster_ids: dict[str, str] = {}
        for snap in snapshots:
            if snap.cluster_id not in cluster_ids:
                ip = f"10.{d_idx}.{len(cluster_ids)}.1"
                effect = kb.apply(RegisterCluster(ip, domain, registered_at=0.0))
                cluster_ids[snap.cluster_id] = effect.detail["cluster_id"]
            cid = cluster_ids[snap.cluster_id]
            kb.nodes[(cid, snap.node_name)] = replace(snap, cluster_id=cid)
    for i in range(rng.randint(1, 8)):
        components = tuple(
            (f"c{j}", rng.choice(list(Domain)), {}) for j in range(rng.randint(1, 4))
        )
        kb.apply(
            SubmitApplication(
                app_id=f"app-{i}",
                name=f"app-{i}",
                labels=(),
                qos=rng.choice(qos_pool),
                components=components,
                submitted_at=float(i),
            )
        )
    return kb


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_memoized_tick_equals_placing_each_component_on_its_own(seed):
    kb = random_federation(seed)
    place = BordaCountStrategy.place
    calls = []

    # Counts through the same class attribute, and reads the same keyword
    # ``now``, that the benchmark tracer's wrapper does.
    def counting_place(*args, **kwargs):
        calls.append(kwargs["now"])
        return place(*args, **kwargs)

    with patch.object(BordaCountStrategy, "place", counting_place):
        commands = scheduler_tick(
            kb, now=100.0, term=3, grace_period=30.0, snapshot_staleness=60.0
        )

    expected = []
    for app, comp in kb.pending_components():
        result = BordaCountStrategy().place(
            kb.nodes_in_domain(comp.target_domain), app.qos, now=100.0, staleness=60.0
        )
        if result is not None:
            expected.append(
                RecordDecision(
                    app_id=app.app_id,
                    component=comp.name,
                    cluster_id=result.cluster_id,
                    node_names=result.node_names,
                    decided_at=100.0,
                    deciding_term=3,
                    version=app.version,
                )
            )
    assert commands == expected
    classes = {(comp.target_domain, app.qos) for app, comp in kb.pending_components()}
    assert calls == [100.0] * len(classes)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), apps=st.integers(10, 40))
def test_a_tick_ranks_each_domain_once_whatever_the_number_of_classes(seed, apps):
    kb = random_federation(seed)
    rng = random.Random(seed)
    for i in range(apps):
        kb.apply(
            SubmitApplication(
                app_id=f"many-{i}",
                name=f"many-{i}",
                labels=(),
                qos=QoSVector(rng.random(), rng.random(), rng.random()),
                components=tuple((f"c{j}", domain, {}) for j, domain in enumerate(Domain)),
                submitted_at=10.0,
            )
        )
    rank, place = borda.borda_rank, BordaCountStrategy.place
    calls = {"rank": 0, "place": 0}

    def counting_rank(*args, **kwargs):
        calls["rank"] += 1
        return rank(*args, **kwargs)

    def counting_place(*args, **kwargs):
        calls["place"] += 1
        return place(*args, **kwargs)

    with patch.object(borda, "borda_rank", counting_rank), patch.object(
        BordaCountStrategy, "place", counting_place
    ):
        scheduler_tick(kb, now=100.0, term=3, grace_period=30.0, snapshot_staleness=60.0)

    classes = {(comp.target_domain, app.qos) for app, comp in kb.pending_components()}
    ranked = {
        domain
        for domain, _ in classes
        if eligibility_filter(kb.nodes_in_domain(domain), now=100.0, staleness=60.0)
    }
    assert len(classes) >= 3 * apps
    assert calls == {"rank": 6 * len(ranked), "place": len(classes)}
