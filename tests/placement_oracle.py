"""Independent brute-force oracle for the placement pipeline.

Deliberately written straight-line and differently from the production
code: ranks are derived from strictly-better counts rather than sort
positions, and aggregation walks plain dicts. Used to cross-check
``BordaCountStrategy.place``, the scheduler's placement path, on randomized
instances.
"""

from __future__ import annotations

import random

from qonnect.kb.model import NodeSnapshot, QoSVector

ATTRS_LOWER_WINS = ("energy", "pricing")
ATTRS_HIGHER_WINS = ("cpu", "memory", "bandwidth", "storage")


def oracle_borda(values: list[float], lower_wins: bool) -> list[int]:
    n = len(values)
    scores = []
    for i in range(n):
        better = 0
        for j in range(n):
            if j == i:
                continue
            if lower_wins and values[j] < values[i]:
                better += 1
            if not lower_wins and values[j] > values[i]:
                better += 1
        scores.append(n - 1 - better)
    return scores


def oracle_place(
    snapshots: list[NodeSnapshot], qos: QoSVector, now: float, staleness: float
):
    eligible = []
    for node in snapshots:
        if not node.ready:
            continue
        if not node.schedulable:
            continue
        if node.pressured:
            continue
        if now - node.taken_at > staleness:
            continue
        eligible.append(node)
    if len(eligible) == 0:
        return None

    q_energy, q_pricing, q_perf = qos.energy, qos.pricing, qos.performance
    if q_energy == 0 and q_pricing == 0 and q_perf == 0:
        q_energy = q_pricing = q_perf = 1.0

    energy = oracle_borda([n.energy for n in eligible], True)
    pricing = oracle_borda([n.pricing for n in eligible], True)
    capacity = [0] * len(eligible)
    for attr in ATTRS_HIGHER_WINS:
        ranks = oracle_borda([getattr(n, attr) for n in eligible], False)
        for i in range(len(eligible)):
            capacity[i] += ranks[i]

    weighted = []
    for i in range(len(eligible)):
        weighted.append(energy[i] * q_energy + pricing[i] * q_pricing + capacity[i] * q_perf)

    mean = sum(weighted) / len(weighted)
    retained_idx = [i for i in range(len(eligible)) if weighted[i] >= mean]

    retained_by_cluster: dict[str, float] = {}
    total_by_cluster: dict[str, float] = {}
    for i, node in enumerate(eligible):
        total_by_cluster[node.cluster_id] = total_by_cluster.get(node.cluster_id, 0.0) + weighted[i]
        if node.cluster_id not in retained_by_cluster:
            retained_by_cluster[node.cluster_id] = 0.0
    for i in retained_idx:
        cid = eligible[i].cluster_id
        retained_by_cluster[cid] += weighted[i]

    ordered = sorted(
        total_by_cluster,
        key=lambda cid: (-retained_by_cluster[cid], -total_by_cluster[cid], cid),
    )
    best = ordered[0]
    chosen = [
        (weighted[i], eligible[i].node_name) for i in retained_idx if eligible[i].cluster_id == best
    ]
    chosen.sort(key=lambda pair: (-pair[0], pair[1]))
    return best, tuple(name for _, name in chosen)


def oracle_ranking(
    snapshots: list[NodeSnapshot], qos: QoSVector, now: float, staleness: float
):
    """Every cluster's ``(cluster_id, retained, total)``, best first; None if none eligible."""
    eligible = []
    for node in snapshots:
        if not node.ready:
            continue
        if not node.schedulable:
            continue
        if node.pressured:
            continue
        if now - node.taken_at > staleness:
            continue
        eligible.append(node)
    if len(eligible) == 0:
        return None

    q_energy, q_pricing, q_perf = qos.energy, qos.pricing, qos.performance
    if q_energy == 0 and q_pricing == 0 and q_perf == 0:
        q_energy = q_pricing = q_perf = 1.0

    energy = oracle_borda([n.energy for n in eligible], True)
    pricing = oracle_borda([n.pricing for n in eligible], True)
    capacity = [0] * len(eligible)
    for attr in ATTRS_HIGHER_WINS:
        ranks = oracle_borda([getattr(n, attr) for n in eligible], False)
        for i in range(len(eligible)):
            capacity[i] += ranks[i]

    weighted = []
    for i in range(len(eligible)):
        weighted.append(energy[i] * q_energy + pricing[i] * q_pricing + capacity[i] * q_perf)

    mean = sum(weighted) / len(weighted)
    retained_idx = [i for i in range(len(eligible)) if weighted[i] >= mean]

    retained_by_cluster: dict[str, float] = {}
    total_by_cluster: dict[str, float] = {}
    for i, node in enumerate(eligible):
        total_by_cluster[node.cluster_id] = total_by_cluster.get(node.cluster_id, 0.0) + weighted[i]
        if node.cluster_id not in retained_by_cluster:
            retained_by_cluster[node.cluster_id] = 0.0
    for i in retained_idx:
        cid = eligible[i].cluster_id
        retained_by_cluster[cid] += weighted[i]

    ordered = sorted(
        total_by_cluster,
        key=lambda cid: (-retained_by_cluster[cid], -total_by_cluster[cid], cid),
    )
    return [(cid, retained_by_cluster[cid], total_by_cluster[cid]) for cid in ordered]


def random_instance(rng: random.Random) -> tuple[list[NodeSnapshot], QoSVector]:
    """A small random domain: up to 4 clusters, up to 12 nodes, tie-prone values."""
    n_clusters = rng.randint(1, 4)
    n_nodes = rng.randint(1, 12)
    cluster_ids = [f"cluster-{rng.randrange(10**6):06d}-{i}" for i in range(n_clusters)]

    def attr(discrete_pool: list[float]) -> float:
        # Half the time, draw from a tiny pool so ties are common.
        if rng.random() < 0.5:
            return rng.choice(discrete_pool)
        return round(rng.uniform(0.0, 100.0), 3)

    snapshots = []
    for i in range(n_nodes):
        snapshots.append(
            NodeSnapshot(
                cluster_id=rng.choice(cluster_ids),
                node_name=f"node-{i}",
                ready=rng.random() > 0.15,
                schedulable=rng.random() > 0.15,
                pressured=rng.random() < 0.15,
                energy=attr([0.001, 0.002, 0.003]),
                pricing=attr([0.1, 1.0, 10.0]),
                cpu=attr([2.0, 4.0, 8.0]),
                memory=attr([4.0, 8.0, 16.0]),
                bandwidth=attr([5.0, 52.5, 100.0]),
                storage=attr([50.0, 100.0]),
                taken_at=rng.choice([0.0, 50.0, 100.0]),
            )
        )
    if rng.random() < 0.2:
        qos = QoSVector()  # all-zero: must behave as (1,1,1)
    else:
        qos = QoSVector(
            energy=round(rng.uniform(0, 5), 2),
            pricing=round(rng.uniform(0, 5), 2),
            performance=round(rng.uniform(0, 5), 2),
        )
    return snapshots, qos
