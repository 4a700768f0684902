"""QoS-weighted Borda placement pipeline and the leader's scheduling loop."""

from qonnect.scheduler.borda import (
    BordaCountStrategy,
    ClusterScore,
    PlacementResult,
    borda_rank,
    eligibility_filter,
    score_and_filter_nodes,
    weighted_scores,
)
from qonnect.scheduler.loop import scheduler_tick

__all__ = [
    "BordaCountStrategy",
    "ClusterScore",
    "PlacementResult",
    "borda_rank",
    "eligibility_filter",
    "score_and_filter_nodes",
    "scheduler_tick",
    "weighted_scores",
]
