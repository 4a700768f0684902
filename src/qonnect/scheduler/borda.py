"""Rank-based node scoring and cluster selection.

The pipeline runs in seven steps over the node snapshots of one target
domain: filter out ineligible nodes, rank every attribute by Borda count
(lower values win for energy and pricing, higher for the four capacity
attributes), fold the capacity ranks into one score, weight the three
criteria by the user's QoS vector, keep nodes at or above the mean score,
aggregate per cluster, and return the top cluster with its retained nodes.

The first three steps do not depend on the QoS vector, so they run once
per domain (``rank_domain``, giving a ``DomainRanks``). The last four run
once per QoS class (``DomainRanks.place``). ``BordaCountStrategy.place``
composes the two.

Because Borda scores depend only on ordering, the outcome is invariant
under positive scaling of any attribute column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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
    nodes: Sequence[NodeSnapshot],
    now: float,
    staleness: float,
    heard: Mapping[str, float] | None = None,
) -> list[NodeSnapshot]:
    """Drop unready, unschedulable, pressured, or stale nodes.

    A node is fresh while the latest of its snapshot's ``taken_at`` and its
    cluster's time in ``heard`` (cluster id -> when the leader last heard its
    report) is within ``staleness`` of ``now``.
    """
    heard = heard or {}
    return [
        n
        for n in nodes
        if n.ready
        and n.schedulable
        and not n.pressured
        and now - max(n.taken_at, heard.get(n.cluster_id, n.taken_at)) <= staleness
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


@dataclass(frozen=True, slots=True)
class DomainRanks:
    """The QoS-independent half of a placement: one domain's eligible nodes,
    in snapshot order, with their Borda ranks.

    ``capacity`` is the sum of the four capacity ranks.
    """

    cluster_ids: tuple[str, ...]
    node_names: tuple[str, ...]
    energy: list[int]
    pricing: list[int]
    capacity: list[int]

    def weighted(self, qos: QoSVector) -> list[float]:
        """Each node's ranks folded by the QoS weights."""
        weights = qos.normalized()
        we, wp, wf = weights.energy, weights.pricing, weights.performance
        return [
            e * we + p * wp + cap * wf
            for e, p, cap in zip(self.energy, self.pricing, self.capacity)
        ]

    def place(self, qos: QoSVector) -> PlacementResult:
        """Keep nodes scoring at or above the mean (never none) and pick the
        top cluster. Clusters rank by retained score, then total score, then
        id; both sums run in eligible order."""
        scores = self.weighted(qos)
        mean = sum(scores) / len(scores)
        retained: dict[str, float] = {}
        total: dict[str, float] = {}
        for cid, score in zip(self.cluster_ids, scores):
            total[cid] = total.get(cid, 0.0) + score
            if score >= mean:
                retained[cid] = retained.get(cid, 0.0) + score
        ranking = sorted(
            (ClusterScore(cid, retained.get(cid, 0.0), t) for cid, t in total.items()),
            key=lambda c: (-c.retained_score, -c.total_score, c.cluster_id),
        )
        top = ranking[0].cluster_id
        chosen = sorted(
            (-score, name)
            for cid, name, score in zip(self.cluster_ids, self.node_names, scores)
            if cid == top and score >= mean
        )
        return PlacementResult(
            cluster_id=top,
            node_names=tuple(name for _, name in chosen),
            ranking=tuple(ranking),
        )


def rank_nodes(eligible: Sequence[NodeSnapshot]) -> DomainRanks:
    """The six Borda rankings of a non-empty list of eligible nodes."""
    cpu = borda_rank([n.cpu for n in eligible], lower_wins=False)
    memory = borda_rank([n.memory for n in eligible], lower_wins=False)
    bandwidth = borda_rank([n.bandwidth for n in eligible], lower_wins=False)
    storage = borda_rank([n.storage for n in eligible], lower_wins=False)
    return DomainRanks(
        cluster_ids=tuple(n.cluster_id for n in eligible),
        node_names=tuple(n.node_name for n in eligible),
        energy=borda_rank([n.energy for n in eligible], lower_wins=True),
        pricing=borda_rank([n.pricing for n in eligible], lower_wins=True),
        capacity=[c + m + b + s for c, m, b, s in zip(cpu, memory, bandwidth, storage)],
    )


def rank_domain(
    snapshots: Sequence[NodeSnapshot],
    now: float,
    staleness: float,
    heard: Mapping[str, float] | None = None,
) -> DomainRanks | None:
    """The per-domain step; None when nothing is eligible."""
    eligible = eligibility_filter(snapshots, now=now, staleness=staleness, heard=heard)
    return rank_nodes(eligible) if eligible else None


class BordaCountStrategy:
    """The placement entry point for one scheduler tick.

    ``scheduler_tick`` makes one instance per tick and places every
    (domain, QoS) class through ``place``; ``benchmark/tracing.py`` wraps
    ``place`` to time and count placements. The instance holds the rank
    table of each snapshot list it has placed on, keyed by that list with
    ``now`` and ``staleness``, so the classes of one domain share one
    ranking. A list, and the ``heard`` map passed with it, must therefore not
    change while the instance lives.
    """

    def __init__(self) -> None:
        # Each entry holds its list, so the list's id cannot be reused by
        # another object while the entry is cached.
        self._tables: dict[
            tuple[int, float, float], tuple[Sequence[NodeSnapshot], DomainRanks | None]
        ] = {}

    def place(
        self,
        snapshots: Sequence[NodeSnapshot],
        qos: QoSVector,
        now: float,
        staleness: float,
        heard: Mapping[str, float] | None = None,
    ) -> PlacementResult | None:
        key = (id(snapshots), now, staleness)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = (
                snapshots,
                rank_domain(snapshots, now=now, staleness=staleness, heard=heard),
            )
        ranks = table[1]
        return None if ranks is None else ranks.place(qos)
