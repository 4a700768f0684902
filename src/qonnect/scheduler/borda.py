"""Rank-based node scoring and cluster selection.

The pipeline runs in seven steps over the node snapshots of one target
domain: filter out ineligible nodes, rank every attribute by Borda count
(lower values win for energy and pricing, higher for the four capacity
attributes), fold the capacity ranks into one score, weight the three
criteria by the user's QoS vector, keep nodes at or above the mean score,
aggregate per cluster, and return the top cluster with its retained nodes.

Because Borda scores depend only on ordering, the outcome is invariant
under positive scaling of any attribute column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from qonnect.kb.model import NodeSnapshot, QoSVector


@dataclass(frozen=True)
class ClusterScore:
    cluster_id: str
    retained_score: float
    total_score: float


@dataclass(frozen=True)
class PlacementResult:
    cluster_id: str
    node_names: tuple[str, ...]
    ranking: tuple[ClusterScore, ...]


def eligibility_filter(
    nodes: Sequence[NodeSnapshot], now: float, staleness: float
) -> list[NodeSnapshot]:
    """Drop unready, unschedulable, pressured, or stale-snapshot nodes."""
    return [
        n
        for n in nodes
        if n.ready and n.schedulable and not n.pressured and now - n.taken_at <= staleness
    ]


def borda_rank(values: Sequence[float], lower_wins: bool) -> list[int]:
    """Competition-ranked Borda scores: best value gets n-1 points, worst 0.

    Ties share the score of the first position of their tie group.
    """
    if not values:
        raise ValueError("cannot rank an empty value list")
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i], reverse=not lower_wins)
    scores = [0] * n
    position = 0
    while position < n:
        tie_end = position
        while tie_end + 1 < n and values[order[tie_end + 1]] == values[order[position]]:
            tie_end += 1
        for i in range(position, tie_end + 1):
            scores[order[i]] = n - 1 - position
        position = tie_end + 1
    return scores


def weighted_scores(eligible: Sequence[NodeSnapshot], qos: QoSVector) -> list[float]:
    """Each eligible node's per-attribute Borda ranks, folded by QoS weights."""
    weights = qos.normalized()
    energy = borda_rank([n.energy for n in eligible], lower_wins=True)
    pricing = borda_rank([n.pricing for n in eligible], lower_wins=True)
    cpu = borda_rank([n.cpu for n in eligible], lower_wins=False)
    memory = borda_rank([n.memory for n in eligible], lower_wins=False)
    bandwidth = borda_rank([n.bandwidth for n in eligible], lower_wins=False)
    storage = borda_rank([n.storage for n in eligible], lower_wins=False)
    return [
        e * weights.energy + p * weights.pricing + (c + m + b + s) * weights.performance
        for e, p, c, m, b, s in zip(energy, pricing, cpu, memory, bandwidth, storage)
    ]


def score_and_filter_nodes(
    snapshots: Sequence[NodeSnapshot],
    qos: QoSVector,
    now: float,
    staleness: float,
) -> PlacementResult | None:
    """Full pipeline over one domain's snapshots; None when nothing is eligible.

    Nodes scoring at or above the mean are retained (never none). Clusters
    rank by retained score, then total score, then id; both sums run in
    eligible order.
    """
    eligible = eligibility_filter(snapshots, now=now, staleness=staleness)
    if not eligible:
        return None
    scores = weighted_scores(eligible, qos)
    mean = sum(scores) / len(scores)
    retained: dict[str, float] = {}
    total: dict[str, float] = {}
    for node, score in zip(eligible, scores):
        cid = node.cluster_id
        total[cid] = total.get(cid, 0.0) + score
        if score >= mean:
            retained[cid] = retained.get(cid, 0.0) + score
    ranking = sorted(
        (ClusterScore(cid, retained.get(cid, 0.0), t) for cid, t in total.items()),
        key=lambda c: (-c.retained_score, -c.total_score, c.cluster_id),
    )
    top = ranking[0].cluster_id
    chosen = sorted(
        (-score, node.node_name)
        for node, score in zip(eligible, scores)
        if node.cluster_id == top and score >= mean
    )
    return PlacementResult(
        cluster_id=top,
        node_names=tuple(name for _, name in chosen),
        ranking=tuple(ranking),
    )


class BordaCountStrategy:
    """The placement entry point: ``scheduler_tick`` places every class
    through ``place``, and ``benchmark/tracing.py`` wraps it to time and
    count placements."""

    def place(
        self,
        snapshots: Sequence[NodeSnapshot],
        qos: QoSVector,
        now: float,
        staleness: float,
    ) -> PlacementResult | None:
        return score_and_filter_nodes(snapshots, qos, now=now, staleness=staleness)
