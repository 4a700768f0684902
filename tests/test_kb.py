"""Knowledge base apply semantics, queries, and snapshot round-trips."""

from __future__ import annotations

import pytest
from test_commands import REPEATED_SNAPSHOT, REPEATED_STATE

from qonnect import codec
from qonnect.kb.commands import (
    Batch,
    DeleteApplication,
    PutNodeSnapshot,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    SubmitApplication,
    UpdateQoS,
    decode_command,
    encode_command,
)
from qonnect.kb.model import ComponentStatus, Domain, QoSVector
from qonnect.kb.store import KnowledgeBase, cluster_id_for


def node_wire(name: str, **overrides) -> dict:
    wire = {
        "node_name": name,
        "ready": True,
        "schedulable": True,
        "pressured": False,
        "energy": 0.002,
        "pricing": 1.0,
        "cpu": 4.0,
        "memory": 8.0,
        "bandwidth": 10.0,
        "storage": 50.0,
        "role": "worker",
    }
    wire.update(overrides)
    return wire


def submit_bookinfo(kb: KnowledgeBase, app_id: str = "app-1", at: float = 1.0) -> None:
    manifest = codec.dumps({"objects": []})
    kb.apply(
        SubmitApplication(
            app_id=app_id,
            name="bookinfo",
            labels=(("app", "bookinfo"),),
            qos=QoSVector(performance=1.0),
            components=(
                ("productpage", Domain.CLOUD, manifest),
                ("details", Domain.FOG, manifest),
                ("reviews", Domain.FOG, manifest),
                ("ratings", Domain.EDGE, manifest),
            ),
            submitted_at=at,
        )
    )


def register(kb: KnowledgeBase, ip: str, domain: Domain, at: float = 0.0) -> str:
    effect = kb.apply(RegisterCluster(external_ip=ip, domain=domain, registered_at=at))
    return effect.detail["cluster_id"]


def test_register_cluster_is_idempotent_on_ip_and_domain():
    kb = KnowledgeBase()
    first = kb.apply(RegisterCluster("10.0.0.5", Domain.EDGE, registered_at=1.0))
    second = kb.apply(RegisterCluster("10.0.0.5", Domain.EDGE, registered_at=2.0))
    assert first.kind == "cluster-registered"
    assert second.kind == "cluster-exists"
    assert first.detail["cluster_id"] == second.detail["cluster_id"]
    assert len(kb.clusters) == 1
    # Same ip in a different domain is a distinct cluster.
    kb.apply(RegisterCluster("10.0.0.5", Domain.FOG, registered_at=3.0))
    assert len(kb.clusters) == 2


def test_cluster_config_is_kept_by_registration_and_built_by_restore():
    kb = KnowledgeBase()
    config = kb.cluster_config()
    assert config == {}
    first = register(kb, "10.0.0.1", Domain.CLOUD)
    register(kb, "10.0.0.1", Domain.CLOUD)  # exists: no change
    second = register(kb, "10.0.0.2", Domain.EDGE)
    assert kb.cluster_config() is config
    assert config == {first: "10.0.0.1", second: "10.0.0.2"}
    restored = KnowledgeBase.restore(kb.snapshot_state())
    assert restored.cluster_config() == config
    assert restored.cluster_config() is restored.cluster_config()


def test_update_qos_bumps_version_and_resets_components():
    kb = KnowledgeBase()
    cid = register(kb, "10.1.0.1", Domain.CLOUD)
    fog = register(kb, "10.2.0.1", Domain.FOG)
    edge = register(kb, "10.3.0.1", Domain.EDGE)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    targets = {"productpage": cid, "details": fog, "reviews": fog, "ratings": edge}
    for comp_name, cluster in targets.items():
        kb.apply(
            RecordDecision(
                app_id=app.app_id,
                component=comp_name,
                cluster_id=cluster,
                node_names=("w1",),
                decided_at=5.0,
                deciding_term=2,
                version=1,
            )
        )
    assert all(c.status == ComponentStatus.SCHEDULED for c in app.components)

    effect = kb.apply(UpdateQoS("bookinfo", QoSVector(energy=1.0), updated_at=10.0))
    assert effect.kind == "qos-updated"
    assert app.version == 2
    assert all(c.status == ComponentStatus.PENDING for c in app.components)
    assert all(c.decision is None for c in app.components)
    assert len(effect.transitions) == 4


def test_heartbeat_for_withdrawn_app_is_flagged_noop():
    kb = KnowledgeBase()
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    kb.apply(DeleteApplication("bookinfo"))
    effect = kb.apply(
        RecordHeartbeat(
            app_id=app.app_id,
            component="ratings",
            cluster_id="whatever",
            version=1,
            status="healthy",
            at=3.0,
        )
    )
    assert effect.is_noop
    assert effect.detail["reason"] == "unknown-application"


def test_decision_requires_matching_domain_and_version():
    kb = KnowledgeBase()
    fog = register(kb, "10.2.0.1", Domain.FOG)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    wrong_domain = kb.apply(
        RecordDecision(app.app_id, "productpage", fog, ("w1",), 2.0, 2, version=1)
    )
    assert wrong_domain.is_noop and wrong_domain.detail["reason"] == "domain-mismatch"
    stale = kb.apply(
        RecordDecision(app.app_id, "details", fog, ("w1",), 2.0, 2, version=99)
    )
    assert stale.is_noop and stale.detail["reason"] == "stale-version"
    ok = kb.apply(RecordDecision(app.app_id, "details", fog, ("w1",), 2.0, 2, version=1))
    assert ok.kind == "decision-recorded"


@pytest.mark.parametrize(
    "cmd", [None, "record-decision", Batch((UpdateQoS("bookinfo", QoSVector(), 1.0),))]
)
def test_apply_refuses_what_is_not_a_command(cmd):
    with pytest.raises(TypeError):
        populated_kb().apply(cmd)


def test_a_decision_or_heartbeat_naming_what_is_unknown_is_a_noop_that_changes_nothing():
    kb = populated_kb()
    app = kb.live_application("bookinfo")
    edge = app.component("ratings").decision.cluster_id
    before = KnowledgeBase.restore(kb.snapshot_state())
    refused = {
        "unknown-component": RecordDecision(app.app_id, "cart", edge, ("w1",), 5.0, 2, 1),
        "unknown-cluster": RecordDecision(app.app_id, "details", "no-such-cluster", ("w1",),
                                          5.0, 2, 1),
        "unknown-status": RecordHeartbeat(app.app_id, "ratings", edge, 1, "asleep", 5.0),
    }
    for reason, cmd in refused.items():
        effect = kb.apply(cmd)
        assert effect.is_noop and effect.detail["reason"] == reason
        assert kb == before
    assert kb.snapshot_state() == before.snapshot_state()


def test_pending_components_ordering_and_progression():
    kb = KnowledgeBase()
    assert kb.pending_components() == []
    fog = register(kb, "10.2.0.1", Domain.FOG)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    pending = kb.pending_components()
    assert [c.name for _, c in pending] == ["details", "productpage", "ratings", "reviews"]
    kb.apply(RecordDecision(app.app_id, "details", fog, ("w1",), 2.0, 2, version=1))
    assert len(kb.pending_components()) == 3


def test_a_kb_restored_mid_placement_has_the_same_pending_components():
    kb = KnowledgeBase()
    fog = register(kb, "10.2.0.1", Domain.FOG)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    kb.apply(RecordDecision(app.app_id, "details", fog, ("w1",), 2.0, 2, version=1))
    kb.apply(RecordDecision(app.app_id, "reviews", fog, ("w1",), 2.0, 2, version=1))
    kb.apply(RequeueComponent(app.app_id, "reviews", version=1, reason="stalled"))
    restored = KnowledgeBase.restore(kb.snapshot_state())
    assert restored._pending == kb._pending == {
        (app.app_id, name) for name in ("productpage", "ratings", "reviews")
    }
    assert restored.pending_components() == kb.pending_components()
    assert [c.name for _, c in restored.pending_components()] == [
        "productpage", "ratings", "reviews"
    ]


def test_a_submit_that_reuses_an_app_id_drops_the_replaced_records_pending_pairs():
    kb = KnowledgeBase()
    fog = register(kb, "10.2.0.1", Domain.FOG)
    submit_bookinfo(kb, app_id="app-1")
    kb.apply(RecordDecision("app-1", "details", fog, ("w1",), 2.0, 2, version=1))
    kb.apply(
        SubmitApplication(
            app_id="app-1",
            name="other",
            labels=(),
            qos=QoSVector(),
            components=(("reviews", Domain.FOG, "{}"), ("web", Domain.CLOUD, "{}")),
            submitted_at=3.0,
        )
    )
    assert kb._pending == {("app-1", "reviews"), ("app-1", "web")}
    pending = kb.pending_components()
    assert [(a.name, c.name) for a, c in pending] == [("other", "reviews"), ("other", "web")]
    assert all(a is kb.applications["app-1"] for a, _ in pending)


def test_pending_components_with_equal_submit_times_come_in_name_order():
    kb = KnowledgeBase()
    for app_id, name in (("id-1", "zeta"), ("id-2", "alpha"), ("id-3", "mid")):
        kb.apply(
            SubmitApplication(
                app_id=app_id,
                name=name,
                labels=(),
                qos=QoSVector(),
                components=(("web", Domain.CLOUD, "{}"), ("db", Domain.CLOUD, "{}")),
                submitted_at=1.0,
            )
        )
    assert [(a.name, c.name) for a, c in kb.pending_components()] == [
        ("alpha", "db"), ("alpha", "web"), ("mid", "db"), ("mid", "web"),
        ("zeta", "db"), ("zeta", "web"),
    ]


def test_stalled_components_honors_grace_boundaries():
    kb = KnowledgeBase()
    edge = register(kb, "10.3.0.1", Domain.EDGE)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    kb.apply(RecordDecision(app.app_id, "ratings", edge, ("w1",), 0.0, 2, version=1))
    kb.apply(
        RecordHeartbeat(app.app_id, "ratings", edge, version=1, status="healthy", at=100.0)
    )
    # 5 s old at grace 30 s: not stalled; 31 s old: stalled. The floor is
    # the earliest reference of an active component.
    assert kb.stalled_components(now=105.0, grace=30.0) == ([], 100.0)
    stalled, floor = kb.stalled_components(now=131.0, grace=30.0)
    assert [c.name for _, c in stalled] == ["ratings"] and floor == 100.0
    # Scheduled-but-never-beaten components stall from decided_at.
    kb2 = KnowledgeBase()
    edge2 = register(kb2, "10.3.0.1", Domain.EDGE)
    submit_bookinfo(kb2)
    app2 = kb2.live_application("bookinfo")
    kb2.apply(RecordDecision(app2.app_id, "ratings", edge2, ("w1",), 0.0, 2, version=1))
    stalled, floor = kb2.stalled_components(now=31.0, grace=30.0)
    assert [c.name for _, c in stalled] == ["ratings"] and floor == 0.0
    with pytest.raises(ValueError):
        kb2.stalled_components(now=0.0, grace=0.0)


def test_stall_epoch_moves_when_a_stall_reference_can_move_earlier():
    kb = KnowledgeBase()
    edge = register(kb, "10.3.0.1", Domain.EDGE)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    epochs = []

    def apply(cmd) -> None:
        kb.apply(cmd)
        epochs.append(kb.stall_epoch)

    def beat(status: str, at: float) -> RecordHeartbeat:
        return RecordHeartbeat(app.app_id, "ratings", edge, version=1, status=status, at=at)

    apply(RecordDecision(app.app_id, "ratings", edge, ("w1",), 10.0, 2, version=1))  # active
    apply(beat("healthy", 12.0))
    apply(beat("progressing", 20.0))
    apply(beat("failed", 25.0))
    apply(beat("healthy", 30.0))  # active again
    apply(beat("healthy", 29.0))  # the replicated time moves back
    apply(RequeueComponent(app.app_id, "ratings", version=1, reason="stalled"))
    apply(UpdateQoS("bookinfo", QoSVector(energy=1.0), updated_at=40.0))
    assert epochs == [1, 1, 1, 1, 2, 3, 3, 3]


def test_requeue_clears_decision_and_is_version_guarded():
    kb = KnowledgeBase()
    edge = register(kb, "10.3.0.1", Domain.EDGE)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    kb.apply(RecordDecision(app.app_id, "ratings", edge, ("w1",), 0.0, 2, version=1))
    effect = kb.apply(RequeueComponent(app.app_id, "ratings", version=1, reason="stalled"))
    assert effect.kind == "component-requeued"
    comp = app.component("ratings")
    assert comp.status == ComponentStatus.PENDING and comp.decision is None
    again = kb.apply(RequeueComponent(app.app_id, "ratings", version=1, reason="stalled"))
    assert again.is_noop and again.detail["reason"] == "already-pending"


def test_node_snapshot_freshness_is_monotone():
    kb = KnowledgeBase()
    cid = register(kb, "10.1.0.1", Domain.CLOUD)
    kb.apply(PutNodeSnapshot(cid, (node_wire("w1", cpu=4.0),), taken_at=10.0))
    effect = kb.apply(PutNodeSnapshot(cid, (node_wire("w1", cpu=8.0),), taken_at=5.0))
    assert effect.detail["stored"] == 0
    assert any(f.startswith("stale-snapshot") for f in effect.detail["flags"])
    assert kb.nodes[(cid, "w1")].cpu == 4.0
    assert kb.nodes[(cid, "w1")].taken_at == 10.0


def test_a_report_replaces_its_clusters_nodes_but_never_drops_a_newer_one():
    kb = KnowledgeBase()
    cid = register(kb, "10.1.0.1", Domain.CLOUD)
    other = register(kb, "10.1.0.2", Domain.CLOUD)
    kb.apply(PutNodeSnapshot(cid, (node_wire("w1"), node_wire("w2")), taken_at=10.0))
    kb.apply(PutNodeSnapshot(other, (node_wire("w2"),), taken_at=10.0))
    # Older than the stored nodes: it stores nothing and removes nothing.
    effect = kb.apply(PutNodeSnapshot(cid, (node_wire("w1"),), taken_at=5.0))
    assert effect.detail["stored"] == 0
    assert list(kb.nodes) == [(cid, "w1"), (cid, "w2"), (other, "w2")]
    # A newer one drops what it leaves out, in its own cluster only.
    effect = kb.apply(PutNodeSnapshot(cid, (node_wire("w1"),), taken_at=20.0))
    assert effect.detail == {"stored": 1, "flags": []}
    assert list(kb.nodes) == [(cid, "w1"), (other, "w2")]
    assert KnowledgeBase.restore(kb.snapshot_state()) == kb


def test_control_plane_node_is_stored_but_flagged():
    kb = KnowledgeBase()
    cid = register(kb, "10.1.0.1", Domain.CLOUD)
    effect = kb.apply(
        PutNodeSnapshot(cid, (node_wire("cp-1", role="control-plane"),), taken_at=1.0)
    )
    assert any(f.startswith("control-plane-node-reported") for f in effect.detail["flags"])
    assert (cid, "cp-1") in kb.nodes


def test_committed_malformed_nodes_are_flagged_and_skipped():
    # Entries logged before leaders checked node reports may hold such nodes.
    kb = KnowledgeBase()
    cid = register(kb, "10.1.0.1", Domain.CLOUD)
    bad = (
        {"bogus": 1},
        node_wire("w2", energy=-1),
        node_wire("w3", cluster_id="x"),
        node_wire(["w4"]),
        node_wire("w5", ready=1),
    )
    logged = Batch((PutNodeSnapshot(cid, (node_wire("w1"), *bad), taken_at=1.0),))
    (cmd,) = decode_command(encode_command(logged)).commands
    effect = kb.apply(cmd)
    assert effect.detail["stored"] == 1
    assert effect.detail["flags"] == [f"malformed-node:{i}" for i in range(1, 6)]
    assert list(kb.nodes) == [(cid, "w1")]


def test_a_logged_node_report_holding_non_objects_replays():
    # Such an entry decoded nowhere, so it stopped replay on every replica.
    logged = Batch((PutNodeSnapshot("c", ({"node_name": "w1"}, "w4"), 1.0),))
    (cmd,) = decode_command(encode_command(logged)).commands
    assert cmd == logged.commands[0]
    assert KnowledgeBase().apply(cmd).detail["reason"] == "unknown-cluster"

    kb = KnowledgeBase()
    cid = register(kb, "10.1.0.1", Domain.CLOUD)
    nodes = ({"node_name": "w1"}, "w4", None, 3, ["w5"], node_wire("w6"))
    (cmd,) = decode_command(encode_command(Batch((PutNodeSnapshot(cid, nodes, 1.0),)))).commands
    effect = kb.apply(cmd)
    assert effect.detail["flags"] == [f"malformed-node:{i}" for i in range(5)]
    assert list(kb.nodes) == [(cid, "w6")]


def populated_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    ids = []
    for d_idx, domain in enumerate(Domain):
        for p_idx in range(3):
            cid = register(kb, f"10.{d_idx}.{p_idx}.1", domain, at=float(p_idx))
            kb.apply(
                PutNodeSnapshot(cid, (node_wire("w1"), node_wire("w2")), taken_at=2.0)
            )
            ids.append(cid)
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    edge_cluster = next(
        cid for cid, rec in kb.clusters.items() if rec.domain == Domain.EDGE
    )
    kb.apply(RecordDecision(app.app_id, "ratings", edge_cluster, ("w1",), 3.0, 2, version=1))
    kb.apply(
        RecordHeartbeat(app.app_id, "ratings", edge_cluster, version=1, status="healthy", at=4.0)
    )
    return kb


def test_snapshot_roundtrip_identity():
    empty = KnowledgeBase()
    assert KnowledgeBase.restore(empty.snapshot_state()) == empty

    kb = populated_kb()
    assert len(kb.clusters) == 9
    restored = KnowledgeBase.restore(kb.snapshot_state())
    assert restored == kb
    assert restored.snapshot_state() == kb.snapshot_state()


def test_snapshot_rejects_unknown_schema_and_truncated_blob():
    kb = populated_kb()
    blob = kb.snapshot_state()
    with pytest.raises(ValueError):
        KnowledgeBase.restore(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        KnowledgeBase.restore('{"v": 999}')


@pytest.mark.parametrize(
    "blob",
    [
        '{"v": 1}',
        '{"v": 1, "clusters": 3, "nodes": [], "applications": []}',
        '{"v": 1, "clusters": [{"cluster_id": "c"}], "nodes": [], "applications": []}',
        '{"v": 1, "clusters": [], "nodes": [{"bogus": 1}], "applications": []}',
        '{"v": 1, "clusters": [], "nodes": [], "applications": [[]]}',
    ],
)
def test_snapshot_with_a_malformed_record_raises_value_error(blob):
    with pytest.raises(ValueError):
        KnowledgeBase.restore(blob)


def test_same_command_sequence_yields_identical_kbs():
    commands = []
    kb_a = KnowledgeBase()
    kb_b = KnowledgeBase()
    commands.append(RegisterCluster("10.0.0.1", Domain.CLOUD, registered_at=0.0))
    cid = cluster_id_for("10.0.0.1", Domain.CLOUD)
    commands.append(PutNodeSnapshot(cid, (node_wire("w1"),), taken_at=1.0))
    commands.append(
        SubmitApplication(
            app_id="a1",
            name="demo",
            labels=(),
            qos=QoSVector(),
            components=(("web", Domain.CLOUD, codec.dumps({"objects": []})),),
            submitted_at=1.0,
        )
    )
    commands.append(RecordDecision("a1", "web", cid, ("w1",), 2.0, 2, version=1))
    commands.append(RecordHeartbeat("a1", "web", cid, version=1, status="healthy", at=3.0))
    for cmd in commands:
        # Route through the wire encoding, as Raft replication does.
        kb_a.apply(decode_command(encode_command(cmd)))
        kb_b.apply(decode_command(encode_command(cmd)))
    assert kb_a == kb_b
    assert kb_a.snapshot_state() == kb_b.snapshot_state()


def test_delete_then_resubmit_under_same_name():
    kb = KnowledgeBase()
    submit_bookinfo(kb, app_id="app-1", at=1.0)
    dup = kb.apply(
        SubmitApplication(
            app_id="app-dup",
            name="bookinfo",
            labels=(),
            qos=QoSVector(),
            components=(("x", Domain.CLOUD, "{}"),),
            submitted_at=2.0,
        )
    )
    assert dup.is_noop and dup.detail["reason"] == "name-in-use"
    kb.apply(DeleteApplication("bookinfo"))
    submit_bookinfo(kb, app_id="app-2", at=3.0)
    assert kb.live_application("bookinfo").app_id == "app-2"


def test_a_follower_keeps_its_clusters_own_id_string_in_decisions_and_nodes():
    """A follower decodes each entry afresh, so every command's cluster id
    is a new string; the KB stores the cluster record's one instead."""
    kb = KnowledgeBase()
    cid = kb.apply(decode_command(encode_command(
        RegisterCluster("10.0.0.1", Domain.EDGE, registered_at=0.0)
    ))).detail["cluster_id"]
    own = kb.clusters[cid].cluster_id
    put = PutNodeSnapshot(cid, (node_wire("w1"), node_wire("w2")), taken_at=1.0)
    kb.apply(decode_command(encode_command(put)))
    submit_bookinfo(kb)
    app = kb.live_application("bookinfo")
    decision = Batch((RecordDecision(app.app_id, "ratings", cid, ("w1",), 3.0, 2, version=1),))
    (replayed,) = decode_command(encode_command(decision)).commands
    assert replayed.cluster_id == own and replayed.cluster_id is not own
    effect = kb.apply(replayed)
    assert effect.kind == "decision-recorded"
    assert effect.detail["cluster_id"] is own
    assert app.component("ratings").decision.cluster_id is own
    assert all(key[0] is own and snap.cluster_id is own for key, snap in kb.nodes.items())


@pytest.mark.parametrize("blob", [REPEATED_STATE, REPEATED_SNAPSHOT], ids=["v1", "v2"])
def test_a_restored_snapshots_decisions_carry_its_table_tuples(blob):
    kb = KnowledgeBase.restore(blob)
    assert kb == KnowledgeBase.restore(REPEATED_SNAPSHOT)
    assert kb.snapshot_state() == REPEATED_SNAPSHOT
    decisions = [comp.decision for app in kb.applications.values() for comp in app.components]
    assert [d.node_names for d in decisions] == [
        ("edge-w0", "edge-w1"), ("edge-w1",), ("edge-w0", "edge-w1"),
    ]
    assert all(d.node_names is kb._node_lists[d.node_names] for d in decisions)
    assert decisions[0].node_names is decisions[2].node_names
    assert not any(hasattr(d, "__dict__") for d in decisions)
