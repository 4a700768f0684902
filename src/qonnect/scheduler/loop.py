"""The periodic placement loop run by the Raft leader.

Each tick requeues stalled components and places pending ones. A component
requeued in a tick is deliberately not placed until the next tick, so its
placement uses snapshots that postdate the stall.

The KB does not change within a tick, so a placement depends only on the
component's target domain and its application's QoS vector. Each tick
places every such class once and reuses the result (the equivalence-class
cache of the Kubernetes scheduler). Below that, a tick computes once per
domain what no QoS vector affects: the domain's node list, its eligible
nodes and their six Borda rankings, held by the tick's own
``BordaCountStrategy``. Each class then only weights those ranks.
"""

from __future__ import annotations

from typing import Mapping

from qonnect.kb.commands import KBCommand, RecordDecision, RequeueComponent
from qonnect.kb.model import Domain, NodeSnapshot, QoSVector
from qonnect.kb.store import KnowledgeBase
from qonnect.scheduler.borda import BordaCountStrategy, PlacementResult


def scheduler_tick(
    kb: KnowledgeBase,
    now: float,
    term: int,
    grace_period: float,
    snapshot_staleness: float,
    seen: Mapping[tuple[str, str], float] | None = None,
    lease_start: float | None = None,
    heard: Mapping[str, float] | None = None,
) -> list[KBCommand]:
    """Compute this tick's commands from a consistent KB view.

    A component silent for ``grace_period`` is requeued; a node neither
    reported nor heard from within ``snapshot_staleness`` is ineligible.
    ``seen``, ``lease_start`` and ``heard`` are the leader's lease soft
    state: the first two are passed on to ``KnowledgeBase.stalled_components``,
    and ``heard``, its last-heard time per cluster, to ``eligibility_filter``.
    """
    commands: list[KBCommand] = []
    stalled = kb.stalled_components(
        now=now, grace=grace_period, seen=seen, lease_start=lease_start
    )
    for app, comp in stalled:
        commands.append(
            RequeueComponent(
                app_id=app.app_id,
                component=comp.name,
                version=app.version,
                reason="heartbeat-stalled",
            )
        )
    strategy = BordaCountStrategy()
    domains: dict[Domain, list[NodeSnapshot]] = {}
    placements: dict[tuple[Domain, QoSVector], PlacementResult | None] = {}
    for app, comp in kb.pending_components():
        key = (comp.target_domain, app.qos)
        if key not in placements:
            if comp.target_domain not in domains:
                domains[comp.target_domain] = kb.nodes_in_domain(comp.target_domain)
            placements[key] = strategy.place(
                domains[comp.target_domain],
                app.qos,
                now=now,
                staleness=snapshot_staleness,
                heard=heard,
            )
        result = placements[key]
        if result is None:
            continue  # nothing eligible; the component stays pending
        commands.append(
            RecordDecision(
                app_id=app.app_id,
                component=comp.name,
                cluster_id=result.cluster_id,
                node_names=result.node_names,
                decided_at=now,
                deciding_term=term,
                version=app.version,
            )
        )
    return commands
