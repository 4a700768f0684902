"""Spans around the public entry points of each qonnect layer.

The tracer patches functions from outside the program: class methods for
the layers' entry points, the two names that ``qonnect.rla.service``
imports into its own namespace (``scheduler_tick`` and ``decode_command``
must be wrapped where they are looked up), and per-instance attributes such
as a live RLA's ``proposer``. ``install`` and ``uninstall`` swap the
wrappers in and out, so untraced work runs the unmodified code.

A span is ``(span_id, parent_id, name, start, end)`` with ``perf_counter``
times; parent ids come from a per-thread stack, so live-mode HTTP threads
nest correctly. Counts that depend on a call's arguments or result (HTTP
status, no-op applies, placements) are recorded next to the span.
"""

from __future__ import annotations

import gzip
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import qonnect.rla.service as rla_service
from qonnect.agent.ra import ResourceAgent
from qonnect.harness.engine import Deployment
from qonnect.kb.commands import RecordDecision, RequeueComponent
from qonnect.kb.store import KnowledgeBase
from qonnect.raft.node import RaftNode
from qonnect.raft.simulation import SyncRaftGroup
from qonnect.rla.rest import RestApi
from qonnect.rla.service import RlaService
from qonnect.scheduler.borda import BordaCountStrategy
from qonnect.sim.cluster import SimCluster

LAYERS = ("raft", "kb", "scheduler", "rla", "agent", "sim", "harness")
ROUTES = ("nodes", "poll", "heartbeat", "submit", "qos")
KB_SCANS = ("pending_components", "stalled_components", "nodes_in_domain", "live_application")


def route_of(method: str, path: str) -> str:
    """Classify a REST call into the routes the benchmark reports."""
    segments = [s for s in path.split("/") if s]
    method = method.upper()
    if method == "POST" and segments[-1:] == ["nodes"]:
        return "nodes"
    if method == "GET" and len(segments) == 3 and segments[-1] == "applications":
        return "poll"
    if method == "POST" and segments[-1:] == ["heartbeat"]:
        return "heartbeat"
    if method == "POST" and segments == ["applications"]:
        return "submit"
    if method == "PUT" and segments[-1:] == ["qos"]:
        return "qos"
    return "other"


@dataclass
class Recording:
    """Spans and result-derived counts of the traced unit of work."""

    spans: list[tuple] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    snapshot_bytes: int = 0
    seen_classes: set = field(default_factory=set)


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.recording = Recording()

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, observe=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable of the args."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                tracer.recording.spans.append((span_id, parent, label, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        self.patch(SyncRaftGroup, "propose", "raft.propose")
        self.patch(SyncRaftGroup, "tick", "raft.tick")
        self.patch(RaftNode, "tick", "raft.node_tick")
        self.patch(RaftNode, "handle_message", "raft.handle_message")
        self.patch(RaftNode, "compact", "raft.compact")
        self.patch(KnowledgeBase, "apply", "kb.apply", self._observe_apply)
        self.patch(KnowledgeBase, "snapshot_state", "kb.snapshot", self._observe_snapshot)
        for scan in KB_SCANS:
            self.patch(KnowledgeBase, scan, f"kb.scan.{scan}")
        self.patch(rla_service, "decode_command", "kb.decode")
        self.patch(rla_service, "scheduler_tick", "scheduler.tick", self._observe_tick)
        self.patch(BordaCountStrategy, "place", "scheduler.place", self._observe_place)
        self.patch(
            RestApi,
            "dispatch",
            lambda api, method, path, body=None: f"rla.dispatch.{route_of(method, path)}",
            self._observe_dispatch,
        )
        self.patch(RlaService, "pump", "rla.pump")
        self.patch(ResourceAgent, "run_due", "agent.run_due")
        self.patch(SimCluster, "step", "sim.step")
        self.patch(Deployment, "step", "harness.step")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- result observers -------------------------------------------------

    def _observe_apply(self, args, kwargs, effect) -> None:
        counts = self.recording.counts
        cmd = args[1]
        counts["kb.applies"] += 1
        if effect.is_noop:
            counts["kb.noops"] += 1
        if isinstance(cmd, RecordDecision):
            counts["kb.decision_applies"] += 1
            if effect.is_noop:
                counts["kb.decision_noops"] += 1

    def _observe_snapshot(self, args, kwargs, blob) -> None:
        rec = self.recording
        rec.snapshot_bytes = max(rec.snapshot_bytes, len(blob))

    def _observe_tick(self, args, kwargs, commands) -> None:
        counts = self.recording.counts
        counts["scheduler.placements"] += sum(isinstance(c, RecordDecision) for c in commands)
        counts["scheduler.requeues"] += sum(isinstance(c, RequeueComponent) for c in commands)

    def _observe_place(self, args, kwargs, result) -> None:
        if result is None:
            return
        snapshots, qos = args[1], args[2]
        # All snapshots come from one domain, so the first one's cluster
        # stands for it; ``now`` separates scheduler ticks.
        key = (kwargs.get("now"), snapshots[0].cluster_id, qos.normalized())
        with self._lock:
            rec = self.recording
            rec.counts["scheduler.places"] += 1
            if key in rec.seen_classes:
                rec.counts["scheduler.repeat_class"] += 1
            rec.seen_classes.add(key)

    def _observe_dispatch(self, args, kwargs, result) -> None:
        method, path = args[1], args[2]
        status, payload = result
        counts = self.recording.counts
        counts[f"rla.status.{status // 100}xx"] += 1
        if route_of(method, path) == "poll" and status == 200:
            counts["rla.polls"] += 1
            if payload.get("applications"):
                counts["rla.poll_hits"] += 1


# ---------------------------------------------------------------------------
# Per-layer metrics from recordings
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time (s) per layer: span duration minus its children's durations."""
    child = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        out[layer_of(name)] += (end - start) - child.get(sid, 0.0)
    return out


def durations(spans: list[tuple], prefix: str) -> list[float]:
    return [end - start for _s, _p, name, start, end in spans if name.startswith(prefix)]


@dataclass
class UnitTotals:
    """Whole-system counts of one unit, read from outside after it ran."""

    entries: int
    elections: int
    agent_applies: int
    agent_cleanups: int
    agent_skipped: int
    events: int


def layer_metrics(rec: Recording, totals: UnitTotals) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced unit.

    The unit's inputs depend only on the seed, so on the engine workloads
    its counts repeat exactly. Busy times (``*_ms`` without a percentile)
    are summed over the unit.
    """
    spans = rec.spans
    counts = rec.counts
    m: dict[str, tuple[float, str]] = {}

    def busy_ms(prefix: str) -> float:
        return sum(durations(spans, prefix)) * 1e3

    us = lambda xs, q: percentile(xs, q) * 1e6  # noqa: E731
    ms = lambda xs, q: percentile(xs, q) * 1e3  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    propose = durations(spans, "raft.propose")
    m["raft.propose_us.p50"] = (us(propose, 50), "us")
    m["raft.propose_us.p99"] = (us(propose, 99), "us")
    m["raft.entries"] = (totals.entries, "count")
    handled = len(durations(spans, "raft.handle_message"))
    m["raft.msgs_per_entry"] = (ratio(handled, totals.entries), "msgs/entry")
    m["raft.compactions"] = (len(durations(spans, "raft.compact")), "count")
    m["raft.compact_ms"] = (busy_ms("raft.compact"), "ms")
    # The engine ticks the whole group; live RLAs tick their own node.
    tick = "raft.tick" if durations(spans, "raft.tick") else "raft.node_tick"
    m["raft.tick_ms"] = (busy_ms(tick), "ms")
    m["raft.elections"] = (totals.elections, "count")

    apply = durations(spans, "kb.apply")
    m["kb.applies"] = (counts["kb.applies"], "count")
    m["kb.apply_us.p50"] = (us(apply, 50), "us")
    m["kb.apply_us.p99"] = (us(apply, 99), "us")
    m["kb.noop_ratio"] = (ratio(counts["kb.noops"], counts["kb.applies"]), "share")
    m["kb.decode_us.p50"] = (us(durations(spans, "kb.decode"), 50), "us")
    m["kb.snapshot_ms.p50"] = (ms(durations(spans, "kb.snapshot"), 50), "ms")
    m["kb.snapshot_bytes"] = (rec.snapshot_bytes, "bytes")
    m["kb.scan_ms"] = (busy_ms("kb.scan."), "ms")

    ticks = durations(spans, "scheduler.tick")
    m["scheduler.tick_ms.p50"] = (ms(ticks, 50), "ms")
    m["scheduler.tick_ms.max"] = (max(ticks) * 1e3 if ticks else 0.0, "ms")
    m["scheduler.place_us.p50"] = (us(durations(spans, "scheduler.place"), 50), "us")
    m["scheduler.placements"] = (counts["scheduler.placements"], "count")
    m["scheduler.repeat_class_ratio"] = (
        ratio(counts["scheduler.repeat_class"], counts["scheduler.places"]), "share")
    m["scheduler.decision_noop_ratio"] = (
        ratio(counts["kb.decision_noops"], counts["kb.decision_applies"]), "share")
    m["scheduler.requeues"] = (counts["scheduler.requeues"], "count")

    for route in ROUTES:
        lat = durations(spans, f"rla.dispatch.{route}")
        m[f"rla.dispatch_us.{route}.p50"] = (us(lat, 50), "us")
        m[f"rla.dispatch_us.{route}.p99"] = (us(lat, 99), "us")
    m["rla.pump_ms"] = (busy_ms("rla.pump"), "ms")
    m["rla.poll_hit_ratio"] = (ratio(counts["rla.poll_hits"], counts["rla.polls"]), "share")
    for cls in ("2xx", "3xx", "4xx", "5xx"):
        m[f"rla.status.{cls}"] = (counts[f"rla.status.{cls}"], "count")

    m["agent.run_due_ms"] = (busy_ms("agent.run_due"), "ms")
    m["agent.applies"] = (totals.agent_applies, "count")
    m["agent.cleanups"] = (totals.agent_cleanups, "count")
    m["agent.skipped"] = (totals.agent_skipped, "count")

    m["sim.step_ms"] = (busy_ms("sim.step"), "ms")

    selfs = self_times(spans)
    m["engine.step_self_ms"] = (selfs.get("harness", 0.0) * 1e3, "ms")
    m["events.count"] = (totals.events, "count")

    calls = Counter(layer_of(name) for _s, _p, name, _a, _b in spans)
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = (selfs.get(layer, 0.0) * 1e3, "ms")
        m[f"layer.{layer}.calls"] = (calls.get(layer, 0), "count")
    return m


def write_spans(path, recording: Recording) -> None:
    """Gzipped, one tab-separated line per span: id, parent, name, start, end."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("span\tparent\tname\tstart\tend\n")
        out.writelines(
            f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n"
            for sid, parent, name, start, end in recording.spans
        )
