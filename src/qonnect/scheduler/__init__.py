"""QoS-weighted Borda placement pipeline and the leader's scheduling loop."""

from qonnect.scheduler.borda import (
    BordaCountStrategy,
    ClusterScore,
    PlacementResult,
    borda_rank,
    eligibility_filter,
)
from qonnect.scheduler.loop import Lease, scheduler_tick

__all__ = [
    "BordaCountStrategy",
    "ClusterScore",
    "Lease",
    "PlacementResult",
    "borda_rank",
    "eligibility_filter",
    "scheduler_tick",
]
