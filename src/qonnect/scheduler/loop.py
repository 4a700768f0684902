"""The periodic placement loop run by the Raft leader.

Each tick requeues stalled components and places pending ones. A component
requeued in a tick is deliberately not placed until the next tick, so its
placement uses snapshots that postdate the stall.

A tick visits only what is due, as a next-expiry timer does (Varghese and
Lauck, "Hashed and Hierarchical Timing Wheels", SOSP 1987). Pending
components come from the KB's pending index, so a settled federation's
tick reads no application for them. The stall scan walks every active
component, so a leader skips it while its lease's ``floor`` and ``epoch``
show that none can have passed its grace: a scan that found the earliest
stall reference at ``floor`` needs no successor before ``floor + grace``.
In a beating federation every reference is at most one heartbeat period
old, so a leader scans at most once per grace period minus heartbeat
period, not on every tick.

The KB does not change within a tick, so a placement depends only on the
component's target domain and its application's QoS vector. Each tick
places every such class once and reuses the result (the equivalence-class
cache of the Kubernetes scheduler). Below that, a tick computes once per
domain what no QoS vector affects: the domain's node list, its eligible
nodes and their six Borda rankings, held by the tick's own
``BordaCountStrategy``. Each class then only weights those ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from qonnect.kb.commands import KBCommand, RecordDecision, RequeueComponent
from qonnect.kb.model import Domain, NodeSnapshot, QoSVector
from qonnect.kb.store import KnowledgeBase
from qonnect.scheduler.borda import BordaCountStrategy, PlacementResult


@dataclass
class Lease:
    """A leader's soft state for one term, made at its first leader work in
    the term (``qonnect.rla.service``'s docstring says what renews it).

    ``floor`` and ``epoch`` are what the term's last full stall scan found,
    so later ticks can skip one. ``floor`` is the earliest stall reference
    of an active component at that scan, or the scan time if earlier
    (``KnowledgeBase.stalled_components``), and ``epoch`` the KB's
    ``stall_epoch`` then. Heartbeats only move a reference later. It can
    move earlier only when a component becomes active or a replicated
    heartbeat time goes back, which moves the KB's epoch, or when a beat is
    stamped before ``floor``, which takes a clock that stepped back; the
    leader then drops ``floor``. Until one of those, no component can stall
    before ``floor + grace``. A fresh ``Lease(term, -math.inf)`` for each
    tick scans on every tick and moves no stall reference later.
    """

    term: int
    start: float
    # (app id, component) -> time of its last accepted heartbeat.
    seen: dict[tuple[str, str], float] = field(default_factory=dict)
    # Cluster -> time of its last accepted node report.
    heard: dict[str, float] = field(default_factory=dict)
    # Cluster -> the fingerprint of its last report queued or committed in
    # this term (None if it had none).
    reports: dict[str, bytes | None] = field(default_factory=dict)
    floor: float = -math.inf
    epoch: int = -1


def scheduler_tick(
    kb: KnowledgeBase,
    now: float,
    term: int,
    grace_period: float,
    snapshot_staleness: float,
    lease: Lease,
) -> list[KBCommand]:
    """Compute this tick's commands from a consistent KB view: requeues of
    stalled components, then decisions for pending ones, each in the scans'
    (submitted_at, app name, component name) order.

    A component silent for ``grace_period`` is requeued; a node neither
    reported nor heard from within ``snapshot_staleness`` is ineligible.
    The leader's ``lease`` gives ``KnowledgeBase.stalled_components`` its
    ``seen`` times and ``start``, and ``eligibility_filter`` its ``heard``
    times; its ``floor`` and ``epoch`` decide whether the stall scan runs,
    and keep what a scan found.
    """
    commands: list[KBCommand] = []
    if now - lease.floor > grace_period or kb.stall_epoch != lease.epoch:
        stalled, lease.floor = kb.stalled_components(
            now=now, grace=grace_period, seen=lease.seen, lease_start=lease.start
        )
        lease.epoch = kb.stall_epoch
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
                heard=lease.heard,
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
