"""Borda pipeline: ranking rules, filters, aggregation, and oracle equivalence."""

from __future__ import annotations

import random

import pytest

from placement_oracle import oracle_place, oracle_ranking, random_instance
from qonnect.kb.model import NodeSnapshot, QoSVector
from qonnect.scheduler import (
    BordaCountStrategy,
    borda_rank,
    eligibility_filter,
    score_and_filter_nodes,
    weighted_scores,
)


def snap(name: str, cluster: str = "c1", taken_at: float = 100.0, **overrides) -> NodeSnapshot:
    attrs = {
        "ready": True,
        "schedulable": True,
        "pressured": False,
        "energy": 0.002,
        "pricing": 1.0,
        "cpu": 4.0,
        "memory": 8.0,
        "bandwidth": 10.0,
        "storage": 50.0,
    }
    attrs.update(overrides)
    return NodeSnapshot(cluster_id=cluster, node_name=name, taken_at=taken_at, **attrs)


# Table 1 profile rows (energy kWh, cost EUR/h, bandwidth Gbps) plus the
# synthetic capacity baseline used by the simulator.
PROFILE_ROWS = {
    "energy": dict(energy=0.0024042, pricing=16.3884, bandwidth=52.5, cpu=4, memory=11, storage=98),
    "cost": dict(energy=0.0025689, pricing=0.0042, bandwidth=5.0, cpu=4, memory=11, storage=98),
    "performance": dict(energy=0.0027335, pricing=32.7726, bandwidth=100.0, cpu=8, memory=16, storage=100),
}


def test_borda_rank_lower_wins_convention():
    assert borda_rank([2, 1, 3], lower_wins=True) == [1, 2, 0]


def test_borda_rank_ties_share_top_of_group():
    assert borda_rank([1, 1, 2], lower_wins=True) == [2, 2, 0]


def test_borda_rank_bandwidth_column_higher_wins():
    assert borda_rank([5, 52.5, 100], lower_wins=False) == [0, 1, 2]


def test_borda_rank_rejects_empty():
    with pytest.raises(ValueError):
        borda_rank([], lower_wins=True)


def test_eligibility_filter_drops_flagged_and_stale_nodes():
    ready = snap("ok")
    pressured = snap("hot", pressured=True)
    assert eligibility_filter([ready, pressured], now=100.0, staleness=15.0) == [ready]

    stale = [snap(f"n{i}", taken_at=10.0) for i in range(3)]
    assert eligibility_filter(stale, now=100.0, staleness=15.0) == []

    fresh = [snap(f"n{i}") for i in range(6)]
    assert eligibility_filter(fresh, now=100.0, staleness=15.0) == fresh


def test_single_node_scores_zero():
    assert weighted_scores([snap("only")], QoSVector(performance=1.0)) == [0.0]


def test_zero_qos_equals_unit_weights():
    nodes = [
        snap("a", energy=0.001, pricing=5.0, cpu=2),
        snap("b", energy=0.003, pricing=1.0, cpu=8),
        snap("c", energy=0.002, pricing=3.0, cpu=4),
    ]
    assert weighted_scores(nodes, QoSVector()) == weighted_scores(nodes, QoSVector(1.0, 1.0, 1.0))


def test_performance_profile_wins_capacity_only_qos():
    # Derived by hand from the profile rows: capacity Bordas are
    # energy=4, cost=3, performance=8, so (0,0,1) must pick performance.
    nodes = [snap(profile, **row) for profile, row in PROFILE_ROWS.items()]
    scores = weighted_scores(nodes, QoSVector(performance=1.0))
    assert dict(zip(PROFILE_ROWS, scores)) == {"energy": 4.0, "cost": 3.0, "performance": 8.0}
    result = score_and_filter_nodes(nodes, QoSVector(performance=1.0), now=100.0, staleness=15.0)
    assert result.node_names == ("performance",)


def test_threshold_filter_keeps_at_or_above_mean():
    nodes = [
        snap("a", cluster="c1", cpu=1),
        snap("b", cluster="c1", cpu=2),
        snap("c", cluster="c1", cpu=3),
    ]
    qos = QoSVector(performance=1.0)
    # cpu ranks 0, 1, 2 plus 2 points each for the three tied capacity columns.
    assert weighted_scores(nodes, qos) == [6.0, 7.0, 8.0]
    # The mean is 7: "a" drops, and the rest come best first.
    result = score_and_filter_nodes(nodes, qos, now=100.0, staleness=15.0)
    assert result.node_names == ("c", "b")

    all_equal = score_and_filter_nodes([snap("y"), snap("x")], qos, now=100.0, staleness=15.0)
    assert all_equal.node_names == ("x", "y")

    single = score_and_filter_nodes([snap("solo")], QoSVector(), now=100.0, staleness=15.0)
    assert single.node_names == ("solo",)


def test_cluster_tiebreak_prefers_higher_total_score():
    nodes = [
        snap("a1", cluster="cluster-a", cpu=10.0),
        snap("a2", cluster="cluster-a", cpu=1.0),
        snap("b1", cluster="cluster-b", cpu=10.0),
        snap("b2", cluster="cluster-b", cpu=5.0),
    ]
    # Scores a1=b1=12, b2=10, a2=9; the mean is 10.75, so only a1 and b1
    # are retained and the clusters tie at 12 until totals 21 < 22 split them.
    result = score_and_filter_nodes(nodes, QoSVector(performance=1.0), now=100.0, staleness=15.0)
    assert [(c.cluster_id, c.retained_score, c.total_score) for c in result.ranking] == [
        ("cluster-b", 12.0, 22.0),
        ("cluster-a", 12.0, 21.0),
    ]
    assert result.cluster_id == "cluster-b" and result.node_names == ("b1",)


def test_single_cluster_ranks_first_and_halt_on_empty():
    nodes = [snap("a"), snap("b")]
    result = score_and_filter_nodes(nodes, QoSVector(), now=100.0, staleness=15.0)
    assert result is not None and result.cluster_id == "c1"
    assert len(result.node_names) == 2

    halted = score_and_filter_nodes(nodes, QoSVector(), now=1000.0, staleness=15.0)
    assert halted is None


def test_domain_restricted_profile_selection():
    # One cluster per profile in a domain: qos (0,0,1) picks performance,
    # qos (1,0,0) picks the energy profile.
    nodes = []
    for profile, row in PROFILE_ROWS.items():
        for i in range(2):
            nodes.append(snap(f"{profile}-w{i}", cluster=f"edge-{profile}", **row))
    perf = score_and_filter_nodes(nodes, QoSVector(performance=1.0), now=100.0, staleness=15.0)
    assert perf.cluster_id == "edge-performance"
    energy = score_and_filter_nodes(nodes, QoSVector(energy=1.0), now=100.0, staleness=15.0)
    assert energy.cluster_id == "edge-energy"


def test_oracle_equivalence_on_random_instances():
    rng = random.Random(20250811)
    agreements = 0
    for _ in range(200):
        snapshots, qos = random_instance(rng)
        expected = oracle_place(snapshots, qos, now=100.0, staleness=60.0)
        result = score_and_filter_nodes(snapshots, qos, now=100.0, staleness=60.0)
        if expected is None:
            assert result is None
        else:
            assert result is not None
            assert (result.cluster_id, result.node_names) == expected
        agreements += 1
    assert agreements == 200


def test_full_ranking_matches_oracle_on_random_instances():
    rng = random.Random(20251018)
    for _ in range(1000):
        snapshots, qos = random_instance(rng)
        expected = oracle_ranking(snapshots, qos, now=100.0, staleness=60.0)
        result = score_and_filter_nodes(snapshots, qos, now=100.0, staleness=60.0)
        if expected is None:
            assert result is None
            continue
        assert result is not None
        ranking = [(c.cluster_id, c.retained_score, c.total_score) for c in result.ranking]
        assert ranking == expected


def test_retained_nodes_live_in_chosen_cluster():
    rng = random.Random(99)
    for _ in range(100):
        snapshots, qos = random_instance(rng)
        result = score_and_filter_nodes(snapshots, qos, now=100.0, staleness=60.0)
        if result is None:
            continue
        eligible_names = {
            s.node_name
            for s in eligibility_filter(snapshots, 100.0, 60.0)
            if s.cluster_id == result.cluster_id
        }
        assert result.node_names
        assert set(result.node_names) <= eligible_names


def test_one_strategy_reuses_ranks_only_for_the_same_list_now_and_staleness():
    # One instance, as in a scheduler tick, but over several lists and
    # ``now``/``staleness`` values: taken_at is 0, 50 or 100, so each ``now``
    # below makes a different set of nodes eligible, or none.
    rng = random.Random(20261019)
    lists = [random_instance(rng)[0] for _ in range(5)]
    qos_pool = [random_instance(rng)[1] for _ in range(6)] + [QoSVector()]
    strategy = BordaCountStrategy()
    for _ in range(600):
        snapshots = rng.choice(lists)
        qos = rng.choice(qos_pool)
        now = rng.choice([60.0, 100.0, 150.0, 200.0])
        staleness = rng.choice([30.0, 60.0])
        result = strategy.place(snapshots, qos, now=now, staleness=staleness)
        assert result == score_and_filter_nodes(snapshots, qos, now=now, staleness=staleness)
        expected = oracle_ranking(snapshots, qos, now=now, staleness=staleness)
        if expected is None:
            assert result is None
            continue
        assert (result.cluster_id, result.node_names) == oracle_place(
            snapshots, qos, now=now, staleness=staleness
        )
        assert [(c.cluster_id, c.retained_score, c.total_score) for c in result.ranking] == expected
