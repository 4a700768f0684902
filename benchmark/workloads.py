"""The benchmark's four workloads, driven through qonnect's public API.

Every workload takes its inputs from the seed it is given and hands the
program only what it generated: testbed seeds, application bundles and QoS
vectors. Load comes from one client thread. Work the benchmark does to
observe or check the program (KB scans, snapshot comparisons) runs outside
the timed blocks and, in a traced run, with the wrappers removed.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import socket
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter, process_time, thread_time

from qonnect.agent.client import RlaClientError
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.live import LiveDeployment
from qonnect.harness.scenarios import run_all
from qonnect.harness.testbed import TestbedSpec, default_clusters
from qonnect.kb.model import ComponentStatus, Domain
from qonnect.kb.store import cluster_id_for
from qonnect.raft.node import Role

from tracing import Tracer, UnitTotals

PURE = {
    "performance": {"performance": 1.0, "energy": 0.0, "pricing": 0.0},
    "energy": {"performance": 0.0, "energy": 1.0, "pricing": 0.0},
    "cost": {"performance": 0.0, "energy": 0.0, "pricing": 1.0},
}
PROFILE_CYCLE = ("performance", "energy", "cost")
RPC_METHODS = ("register", "cluster_config", "put_nodes", "poll_applications", "heartbeat")
PLACEMENT_DEADLINE = 60.0  # simulated s, as in the scenarios
# Burst phases run fixed simulated spans, so that every unit simulates the
# same time. Placing and migrating each take ~10 s; the old copies go at
# the first heartbeat after the QoS update, within one period.
BURST_PLACE_S = 20.0
BURST_MIGRATE_S = 20.0
BOOKINFO_COMPONENTS = len(bookinfo_bundle()["components"])


@dataclass(frozen=True)
class Size:
    """How much work one run does; ``TINY`` is for the benchmark's tests."""

    workers: int = 30  # per cluster in burst and steady
    apps: int = 300  # burst and steady fleet
    setup_repeats: int = 3
    scenario_setup_repeats: int = 21
    steady_window: float = 100.0  # simulated s per steady unit: 10 heartbeat periods
    live_rate: float = 0.25  # submissions per wall second
    live_drain: float = 30.0  # wall s allowed after the last submission
    live_limit: float = 5.0  # wall s submit->Healthy limit at p95


FULL = Size()
TINY = Size(workers=3, apps=6, setup_repeats=1, scenario_setup_repeats=3,
            steady_window=20.0, live_drain=20.0)


@dataclass
class _Record:
    name: str
    cpu: float
    memory: int
    labels: dict


def reference_kernel() -> int:
    """Fixed work in the program's own mix: dataclass records, dicts built
    from them, two JSON round trips and a sort.

    A tight dict loop was tried first; on the shared reference host its
    time did not follow the program's through the host's slow phases (it
    even moved against it), while this mix did.
    """
    records = [_Record(f"n-{i}", i * 0.5, i * 1024, {"domain": "edge", "profile": i % 3})
               for i in range(400)]
    doc = {r.name: {"cpu": r.cpu, "memory": r.memory, "labels": r.labels} for r in records}
    for _ in range(2):
        doc = json.loads(json.dumps(doc, sort_keys=True))
    ranked = sorted(((v["cpu"] / (1 + v["memory"]), k) for k, v in doc.items()), reverse=True)
    return len(ranked)


class Speed:
    """How fast the host runs Python right now, against a nominal machine.

    On a shared host the same work can take ~2x longer in phases lasting
    seconds to minutes, in CPU time as well as in wall time. Timing the
    reference kernel next to each block of work gives a factor that scales
    the block's times to the nominal machine, on which the kernel takes
    ``NOMINAL`` seconds of thread CPU time. A change to qonnect moves the
    block's time and not the kernel's, so it shows in full.
    """

    NOMINAL = 0.006

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._last = (0.0, -1.0)  # (kernel time, perf_counter when taken)

    def sample(self) -> float:
        start = thread_time()
        reference_kernel()
        taken = thread_time() - start
        self._last = (taken, perf_counter())
        return taken

    def recent(self) -> float:
        """The sample just taken, if the caller did nothing since; else a new one."""
        taken, at = self._last
        return taken if perf_counter() - at < 0.001 else self.sample()

    def factor(self, kernel_time: float) -> float:
        factor = self.NOMINAL / kernel_time
        self.factors.append(factor)
        return factor


class RpcTimer:
    """Times agent->RLA calls on each agent's client object."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # scaled to the nominal machine
        self.pending: list[float] = []  # raw, of the block in progress
        self.unit_means: list[float] = []  # mean latency of each untraced unit
        self.active = False
        self._unit_start = 0

    def close_block(self, factor: float) -> None:
        pending, self.pending = self.pending, []
        self.latencies.extend(x * factor for x in pending)

    def end_unit(self, keep: bool) -> None:
        """Close a unit; ``keep`` records the mean of the calls it timed."""
        calls = self.latencies[self._unit_start:]
        self._unit_start = len(self.latencies)
        if keep and calls:
            self.unit_means.append(statistics.fmean(calls))

    def attach(self, agents) -> None:
        for agent in agents:
            for name in RPC_METHODS:
                setattr(agent.client, name, self._timed(getattr(agent.client, name)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            if self.active:
                self.pending.append(perf_counter() - start)
            return result

        return timed


class Run:
    """State of one benchmark run: meters, samples, checks and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: Size) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = Tracer() if trace else None
        self.rpc = RpcTimer()
        self.speed = Speed()
        self.setup_s: list[float] = []
        self.sim_rate: dict[bool, list[float]] = {False: [], True: []}
        self.sim_rate_raw: list[float] = []
        self.sim_rate_wall: list[float] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.extra: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traced_totals: UnitTotals | None = None
        self.peak_rss_mb: float | None = None
        self._traced = False
        self._cpu = 0.0
        self._cpu_raw = 0.0
        self._wall = 0.0
        self._setup: float | None = None

    # -- bookkeeping ------------------------------------------------------

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation or per-item check; a failure fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def note_peak_rss(self) -> None:
        """Peak RSS after set-up and the first measured unit: later units
        would add growth that depends on how many fit in the time."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def unit_seed(self, index: int) -> int:
        return random.Random(f"{self.workload}/{self.seed}/{index}").randrange(1, 2**31)

    @contextmanager
    def timed(self):
        """A block of system work, scaled by its own speed factor: metered
        and traced in a unit, added to the set-up time during set-up."""
        before = self.speed.recent()
        measuring = self._setup is None
        if self._traced:
            self.tracer.install()
        self.rpc.active = measuring
        cpu, wall = process_time(), perf_counter()
        try:
            yield
        finally:
            cpu, wall = process_time() - cpu, perf_counter() - wall
            self.rpc.active = False
            if self._traced:
                self.tracer.uninstall()
            factor = self.speed.factor((before + self.speed.sample()) / 2.0)
            if measuring:
                self._cpu += cpu * factor
                self._cpu_raw += cpu
                self._wall += wall
                self.rpc.close_block(factor)
            else:
                self._setup += wall * factor

    def timed_setup(self, build):
        """One set-up: the scaled wall time of the ``timed`` blocks in ``build``."""
        gc.collect()
        self._setup = 0.0
        state = build()
        self.setup_s.append(self._setup)
        self._setup = None
        return state

    def loop(self, unit, nominal_unit_s: float) -> None:
        """Run ``unit(index)`` as many times as take ``seconds`` on the
        reference machine of ``benchmark/baseline.md``.

        The count depends on ``seconds`` alone, never on how fast a run
        goes, so every run of a seed does the same work. ``unit`` returns
        the simulated seconds its timed blocks advanced and the unit's
        whole-system counts. A traced run traces the first unit and reruns
        it untraced, which gives the tracing overhead.
        """
        for index in range(max(1, round(self.seconds / nominal_unit_s))):
            if self.tracer is not None and index == 0:
                self._run_unit(unit, index, traced=True)
            self._run_unit(unit, index, traced=False)

    def _run_unit(self, unit, index: int, traced: bool) -> None:
        self._traced, self._cpu, self._cpu_raw, self._wall = traced, 0.0, 0.0, 0.0
        sim_s, totals = unit(index)
        self._traced = False
        self.rpc.end_unit(keep=not traced)
        self.sim_rate[traced].append(sim_s / self._cpu)
        if traced:
            self.traced_totals = totals
        else:
            self.sim_rate_raw.append(sim_s / self._cpu_raw)
            self.sim_rate_wall.append(sim_s / self._wall)
            self.note_peak_rss()


# ---------------------------------------------------------------------------
# Engine helpers
# ---------------------------------------------------------------------------


def make_spec(seed: int, workers: int | None = None) -> TestbedSpec:
    clusters = default_clusters()
    if workers is not None:
        clusters = [replace(c, workers=workers) for c in clusters]
    return TestbedSpec(clusters=clusters, seed=seed)


def position(nodes, events) -> tuple[int, int, int]:
    """(highest commit index, highest term, event count) right now."""
    nodes = list(nodes)
    return (
        max(n.commit_index for n in nodes),
        max(n.current_term for n in nodes),
        len(events),
    )


def engine_position(dep: Deployment) -> tuple[int, int, int]:
    return position(dep.group.nodes.values(), dep.events.events)


def agent_counts(events) -> tuple[int, int, int]:
    applies = cleanups = skipped = 0
    for event in events:
        if not event.source.startswith("ra-"):
            continue
        if event.kind == "applied":
            applies += 1
        elif event.kind == "cleanup":
            cleanups += 1
        elif event.kind.endswith("-skipped") or event.kind == "registration-retry":
            skipped += 1
    return applies, cleanups, skipped


def unit_totals(before, after, events) -> UnitTotals:
    """Whole-system counts between two ``position`` readings."""
    applies, cleanups, skipped = agent_counts(events[before[2]:after[2]])
    return UnitTotals(
        entries=after[0] - before[0],
        elections=after[1] - before[1],
        agent_applies=applies,
        agent_cleanups=cleanups,
        agent_skipped=skipped,
        events=after[2] - before[2],
    )


def engine_totals(dep: Deployment, before: tuple[int, int, int]) -> UnitTotals:
    return unit_totals(before, engine_position(dep), dep.events.events)


def check_replicas(run: Run, dep: Deployment, label: str) -> None:
    """After catch-up, every live replica's KB snapshot must be byte-identical."""
    leader = dep.group.leader()
    if leader is not None:
        dep.group.pump(leader.broadcast_append())
    states = {
        rla_id: service.kb.snapshot_state()
        for rla_id, service in dep.services.items()
        if rla_id not in dep.group.stopped
    }
    run.require(len(set(states.values())) == 1, f"{label}: replica KB snapshots differ")


def cluster_index(clusters) -> dict[str, tuple[str, str, bool]]:
    """cluster id -> (domain, profile, agent alive)."""
    return {
        cluster_id_for(c.ingress_ip, c.domain): (c.domain.value, c.profile, c.ra_alive)
        for c in clusters.values()
    }


def live_apps(kb) -> dict:
    """name -> live application record, built once per check."""
    return {app.name: app for app in kb.applications.values() if not app.withdrawn}


def check_fleet(run: Run, kb, clusters, fleet, label: str) -> None:
    """Every component Healthy; a pure-QoS one on its domain's ``profile`` cluster.

    A cluster whose agent was killed cannot host the component, so any
    other cluster of the domain is accepted instead.
    """
    apps = live_apps(kb)
    index = cluster_index(clusters)
    for name, _qos, profile in fleet:
        app = apps.get(name)
        if app is None:
            run.op(False, f"{label}: {name} missing")
            continue
        for comp in app.components:
            ok = comp.status == ComponentStatus.HEALTHY and comp.decision is not None
            if ok and profile is not None:
                domain = comp.target_domain.value
                host_profile = index[comp.decision.cluster_id][1]
                expected_alive = any(
                    alive for d, p, alive in index.values() if d == domain and p == profile
                )
                ok = host_profile == profile or not expected_alive
            run.op(ok, f"{label}: {name}/{comp.name} not Healthy on the expected cluster")


def all_healthy(kb, names) -> bool:
    apps = live_apps(kb)
    for name in names:
        app = apps.get(name)
        if app is None or any(c.status != ComponentStatus.HEALTHY for c in app.components):
            return False
    return True


def healthy_times(events, source: str, names: set[str]) -> dict[str, float]:
    """Simulated time at which each app first had every component Healthy,
    from the status transitions that replica ``source`` applied in ``events``."""
    status: dict[str, dict[str, str]] = defaultdict(dict)
    done: dict[str, float] = {}
    for event in events:
        if event.source != source or not event.kind.startswith("kb-"):
            continue
        for t in event.detail.get("transitions", ()):
            app = t["app"]
            if app not in names or app in done:
                continue
            comps = status[app]
            comps[t["component"]] = t["to"]
            if len(comps) == BOOKINFO_COMPONENTS and all(
                s == ComponentStatus.HEALTHY.value for s in comps.values()
            ):
                done[app] = event.at
    return done


def run_for(run: Run, dep: Deployment, seconds: float) -> None:
    """Advance the engine ``seconds`` simulated seconds in 1 s timed blocks,
    so that each block gets its own speed factor."""
    for _ in range(int(seconds)):
        with run.timed():
            dep.run(1.0)


def run_phase(run: Run, dep: Deployment, predicate, deadline: float) -> bool:
    """Advance the engine in 1 s timed blocks until ``predicate`` holds."""
    end = dep.now + deadline
    while not predicate():
        if dep.now >= end:
            return False
        with run.timed():
            dep.run(1.0)
    return True


def stale_namespaces(dep: Deployment, names) -> int:
    """Namespaces left on clusters that host no component of the app."""
    apps = live_apps(dep.kb())
    hosts: dict[str, set[str]] = {}
    for name in names:
        app = apps.get(name)
        hosts[name] = {c.decision.cluster_id for c in app.components if c.decision} if app else set()
    stale = 0
    for cluster in dep.clusters.values():
        cid = cluster_id_for(cluster.ingress_ip, cluster.domain)
        for name in names:
            if cluster.namespace_exists(name) and cid not in hosts[name]:
                stale += 1
    return stale


def make_fleet(rng: random.Random, apps: int) -> list[tuple[str, dict, str | None]]:
    """Half the apps use the three pure vectors, half random simplex vectors."""
    fleet = []
    for i in range(apps):
        if i % 2 == 0:
            profile = PROFILE_CYCLE[(i // 2) % 3]
            fleet.append((f"app-{i}", PURE[profile], profile))
        else:
            fleet.append((f"app-{i}", random_qos(rng), None))
    return fleet


def random_qos(rng: random.Random) -> dict:
    a, b = sorted((rng.random(), rng.random()))
    return {"performance": a, "energy": b - a, "pricing": 1.0 - b}


def rotate(rng: random.Random, fleet):
    rotated = []
    for name, _qos, profile in fleet:
        if profile is None:
            rotated.append((name, random_qos(rng), None))
        else:
            nxt = PROFILE_CYCLE[(PROFILE_CYCLE.index(profile) + 1) % 3]
            rotated.append((name, PURE[nxt], nxt))
    return rotated


def timed_build(run: Run, make, *args):
    with run.timed():
        return make(*args)


def booted_deployment(seed: int, workers: int) -> Deployment:
    dep = Deployment(make_spec(seed, workers))
    dep.boot()
    return dep


def send_all(run: Run, send, fleet, what: str) -> None:
    """One client request per app, back to back in one timed block; each
    refused request is a failed operation."""
    refused = set()
    with run.timed():
        for name, qos, _profile in fleet:
            try:
                send(name, qos)
            except RlaClientError:
                refused.add(name)
    for name, _qos, _profile in fleet:
        run.op(name not in refused, f"{what} of {name} refused")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def scenarios(run: Run) -> None:
    """The paper's four scenarios back-to-back on the default testbed, one
    seed per unit."""
    for _ in range(run.size.scenario_setup_repeats):
        run.timed_setup(lambda: timed_build(run, Deployment, make_spec(run.unit_seed(0))))

    def unit(index: int):
        dep = Deployment(make_spec(run.unit_seed(index)))
        run.rpc.attach(dep.agents.values())
        before = engine_position(dep)
        with run.timed():
            reports = run_all(dep)
        sim_s = dep.now
        totals = engine_totals(dep, before)
        for report in reports:
            for step in report.steps:
                run.op(step.met, f"scenario {report.scenario} seed {report.seed}: {step.description}")
                if not step.met:
                    continue
                if "all components running" in step.description:
                    run.samples["submit_to_healthy_sim_s"].append(step.elapsed)
                elif "migrated to" in step.description:
                    run.samples["migrate_sim_s"].append(step.elapsed)
                elif "redeployed to" in step.description:
                    run.samples["redeploy_sim_s"].append(step.elapsed)
                elif "took over leadership" in step.description:
                    run.samples["failover_sim_s"].append(step.elapsed)
            run.require(report.verdict == "pass", f"scenario {report.scenario} verdict {report.verdict}")
        # Scenario 4 only waits for scheduling; let every app finish rolling
        # out (untimed) before the end-state checks.
        expected = [("bookinfo", None, "energy"), ("bookinfo-resilience", None, "performance"),
                    ("bookinfo-postfailover", None, "performance")]
        names = [name for name, _q, _p in expected]
        dep.run_until(lambda: all_healthy(dep.kb(), names), PLACEMENT_DEADLINE)
        check_fleet(run, dep.kb(), dep.clusters, expected, f"scenarios seed {dep.spec.seed}")
        check_replicas(run, dep, f"scenarios seed {dep.spec.seed}")
        return sim_s, totals

    run.loop(unit, nominal_unit_s=0.2)


def burst(run: Run) -> None:
    """Hundreds of apps submitted at one simulated instant, then every
    app's QoS rotated, on a fleet of ~90 workers per domain."""
    size = run.size
    for _ in range(size.setup_repeats):
        run.timed_setup(lambda: timed_build(run, booted_deployment, run.unit_seed(0), size.workers))

    def unit(index: int):
        seed = run.unit_seed(index)
        dep = booted_deployment(seed, size.workers)
        run.rpc.attach(dep.agents.values())
        rng = random.Random(seed)
        fleet = make_fleet(rng, size.apps)
        names = {name for name, _q, _p in fleet}
        started, before = dep.now, engine_position(dep)
        source = f"rla-{dep.leader_id()}"
        label = f"burst seed {seed}"

        client = dep.client()
        mark = len(dep.events.events)
        send_all(run, lambda n, q: client.submit_application(bookinfo_bundle(n, q)), fleet,
                 f"{label}: submit")
        run_for(run, dep, BURST_PLACE_S)
        check_fleet(run, dep.kb(), dep.clusters, fleet, label)
        placed = healthy_times(dep.events.events[mark:], source, names)
        run.samples["submit_to_healthy_sim_s"].extend(at - started for at in placed.values())

        fleet = rotate(rng, fleet)
        mark, updated_at = len(dep.events.events), dep.now
        send_all(run, client.update_qos, fleet, f"{label}: QoS update")
        run_for(run, dep, BURST_MIGRATE_S)
        check_fleet(run, dep.kb(), dep.clusters, fleet, f"{label} after rotation")
        migrated = healthy_times(dep.events.events[mark:], source, names)
        run.samples["migrate_sim_s"].extend(at - updated_at for at in migrated.values())
        # Old copies go away through the heartbeat-404 cleanup path.
        run.require(stale_namespaces(dep, names) == 0, f"{label}: stale namespaces after migration")
        totals = engine_totals(dep, before)
        check_replicas(run, dep, label)
        return dep.now - started, totals

    run.loop(unit, nominal_unit_s=4.0)


def steady(run: Run) -> None:
    """A placed fleet under telemetry only: a fixed simulated window per
    unit, no submissions. Placing the fleet is set-up."""
    size = run.size
    seed = run.unit_seed(0)
    rng = random.Random(seed)
    fleet = make_fleet(rng, size.apps)

    def build() -> Deployment:
        dep = timed_build(run, booted_deployment, seed, size.workers)
        with run.timed():
            client = dep.client()
            for name, qos, _profile in fleet:
                client.submit_application(bookinfo_bundle(name, qos))
        names = {name for name, _q, _p in fleet}
        if not run_phase(run, dep, lambda: all_healthy(dep.kb(), names), PLACEMENT_DEADLINE):
            raise RuntimeError("steady fleet did not become Healthy during set-up")
        # The fleet turns Healthy within two seconds of a heartbeat round,
        # and every agent reports all its components in one round. Starting
        # half a period later puts whole rounds in each window of whole
        # periods, so every window holds the same work.
        with run.timed():
            dep.run(dep.spec.ra_heartbeat_period / 2)
        return dep

    dep = None
    for _ in range(size.setup_repeats):
        dep = None
        dep = run.timed_setup(build)
    run.rpc.attach(dep.agents.values())

    def unit(index: int):
        before = engine_position(dep)
        run_for(run, dep, size.steady_window)
        totals = engine_totals(dep, before)
        kb = dep.kb()
        for app in live_apps(kb).values():
            for comp in app.components:
                if comp.last_heartbeat is not None:
                    run.samples["telemetry_age_sim_s"].append(dep.now - comp.last_heartbeat)
        check_fleet(run, kb, dep.clusters, fleet, f"steady window {index}")
        check_replicas(run, dep, f"steady window {index}")
        return size.steady_window, totals

    run.loop(unit, nominal_unit_s=6.0)


# ---------------------------------------------------------------------------
# Live HTTP
# ---------------------------------------------------------------------------


def live_spec(seed: int) -> TestbedSpec:
    """Periods shortened so that an app reaches Healthy in seconds, but not
    so far that telemetry commits (one HTTP round trip each) saturate the
    leader's tick thread."""
    spec = make_spec(seed)
    spec.tick_period = 0.5
    spec.grace_period = 10.0
    spec.snapshot_staleness = 6.0
    spec.telemetry_flush = 0.5
    spec.ra_snapshot_period = 2.0
    spec.ra_poll_period = 0.5
    spec.ra_heartbeat_period = 1.0
    spec.rollout_latency = 0.5
    spec.heartbeat_interval = 0.1
    spec.election_timeout = (1.0, 2.0)
    return spec


def free_port_base(count: int) -> int:
    """A base port such that ``count`` consecutive loopback ports are free."""
    for _ in range(50):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
        if base + count > 65535:
            continue
        socks = []
        try:
            for port in range(base, base + count):
                s = socket.socket()
                socks.append(s)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise RuntimeError("no free loopback port range")


def leader_kb(dep: LiveDeployment):
    for rla in dep.rlas.values():
        if rla.node.role == Role.LEADER:
            return rla.service.kb
    return None


def read_kb(dep: LiveDeployment, fn):
    """Call ``fn(kb)`` on the leader's KB, retrying while apply threads
    mutate the dicts it iterates."""
    for _ in range(100):
        kb = leader_kb(dep)
        if kb is None:
            return None
        try:
            return fn(kb)
        except RuntimeError:
            time.sleep(0.001)
    return None


def live_ready(dep: LiveDeployment) -> bool:
    def ready(kb) -> bool:
        reported = {cid for cid, _ in list(kb.nodes)}
        return len(kb.clusters) == len(dep.clusters) and len(reported) == len(dep.clusters)

    return bool(read_kb(dep, ready))


def start_live(spec: TestbedSpec, timeout: float = 30.0) -> LiveDeployment:
    dep = LiveDeployment(spec=spec, base_port=free_port_base(spec.rla_count))
    dep.start()
    deadline = perf_counter() + timeout
    while not live_ready(dep):
        if perf_counter() > deadline:
            dep.stop()
            raise RuntimeError("live deployment did not become ready")
        time.sleep(0.01)
    return dep


def stop_live(dep: LiveDeployment, threads_before: set) -> None:
    dep.stop()
    # Wait for HTTP handler and sender threads to finish their last request.
    deadline = perf_counter() + 10.0
    for thread in threading.enumerate():
        if thread not in threads_before and thread is not threading.current_thread():
            thread.join(timeout=max(0.0, deadline - perf_counter()))


def live(run: Run) -> None:
    """LiveDeployment over loopback HTTP: 3 RLAs, 9 clusters with agents,
    one client submitting apps open-loop at a fixed rate. Each app is
    deleted once Healthy, so the telemetry load stays bounded."""
    size = run.size
    seed = run.unit_seed(0)
    rng = random.Random(seed)
    threads_before = set(threading.enumerate())
    dep = None
    for index in range(size.setup_repeats):
        # Unscaled: starting up mostly waits on election and agent timers.
        start = perf_counter()
        dep = start_live(live_spec(seed))
        run.setup_s.append(perf_counter() - start)
        if index < size.setup_repeats - 1:
            stop_live(dep, threads_before)
    try:
        _live_window(run, dep, rng)
    finally:
        stop_live(dep, threads_before)


def _live_window(run: Run, dep: LiveDeployment, rng: random.Random) -> None:
    size = run.size
    run.rpc.attach(dep.agents.values())
    client = dep.client()
    expected_host = {
        (c.domain, c.profile): cluster_id_for(c.ingress_ip, Domain(c.domain))
        for c in dep.spec.clusters
    }
    due: dict[str, float] = {}
    profiles: dict[str, str] = {}
    healthy_at: dict[str, float] = {}
    lags: list[float] = []

    def app_state(kb, name):
        app = kb.live_application(name)
        if app is None:
            return None
        return [(c.target_domain.value, c.status, c.decision.cluster_id if c.decision else None)
                for c in app.components]

    def observe() -> None:
        for name in list(due):
            if name in healthy_at:
                continue
            state = read_kb(dep, lambda kb: app_state(kb, name))
            if not state or any(status != ComponentStatus.HEALTHY for _d, status, _c in state):
                continue
            healthy_at[name] = perf_counter()
            on_profile = all(cid == expected_host[(d, profiles[name])] for d, _s, cid in state)
            run.op(on_profile, f"live: {name} not on its {profiles[name]} clusters")
            try:
                client.delete_application(name)
                run.op(True, "")
            except RlaClientError as exc:
                run.op(False, f"live: delete {name} failed: {exc}")

    def window(seconds: float, first: int, traced: bool) -> int:
        """Submit open-loop for ``seconds``; the speed samples taken every
        quarter second give the window's factor."""
        samples = [run.speed.sample()]
        start_wall, start_cpu = perf_counter(), process_time()
        index = first
        while perf_counter() - start_wall < seconds:
            at = start_wall + (index - first) / size.live_rate
            while perf_counter() < at:
                observe()
                if perf_counter() - start_wall > len(samples) * 0.25:
                    samples.append(run.speed.sample())
                time.sleep(0.02)
            name = f"app-{index}"
            profile = PROFILE_CYCLE[rng.randrange(3)]
            lags.append(perf_counter() - at)
            try:
                client.submit_application(bookinfo_bundle(name, PURE[profile]))
                due[name], profiles[name] = at, profile
                run.op(True, "")
            except RlaClientError as exc:
                run.op(False, f"live: submit {name} refused: {exc}")
            index += 1
        wall, cpu = perf_counter() - start_wall, process_time() - start_cpu
        samples.append(run.speed.sample())
        factor = run.speed.factor(statistics.median(samples))
        run.sim_rate[traced].append(wall / (cpu * factor))
        if not traced:
            run.sim_rate_raw.append(wall / cpu)
            run.note_peak_rss()
        run.rpc.close_block(factor)
        run.rpc.end_unit(keep=not traced)
        return index

    positions = lambda: position((r.node for r in dep.rlas.values()), dep.events.events)  # noqa: E731
    if run.tracer is None:
        run.rpc.active = True
        window(run.seconds, 0, traced=False)
        run.rpc.active = False
    else:
        half = run.seconds / 2.0
        nxt = window(half, 0, traced=False)
        for rla in dep.rlas.values():
            run.tracer.patch(rla.service, "proposer", "raft.propose")
        before = positions()
        run.tracer.install()
        window(half, nxt, traced=True)
        run.tracer.uninstall()
        run.traced_totals = unit_totals(before, positions(), dep.events.events)

    drain_end = perf_counter() + size.live_drain
    while len(healthy_at) < len(due) and perf_counter() < drain_end:
        observe()
        time.sleep(0.02)
    for name in due:
        run.op(name in healthy_at, f"live: {name} not Healthy within the drain window")
    waits = [healthy_at[n] - due[n] for n in healthy_at]
    run.samples["live.submit_to_healthy_s"].extend(waits)
    run.extra["live.generator_lag_ms.max"] = (max(lags) * 1e3 if lags else 0.0, "ms")
    over = sum(1 for w in waits if w > size.live_limit)
    run.extra["live.over_limit"] = (over, "count")
