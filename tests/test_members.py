"""``Members``, the one round that steps the clusters and agents of both
deployments, on its own and driven by a clock that steps back as live
mode's wall clock can.

Its agents reach no RLA, so each agent round only retries registration:
enough to set the clocks of the clusters it visits, and to change no
cluster.
"""

from __future__ import annotations

from collections import Counter

from qonnect.agent.client import RlaClient, RlaClientError
from qonnect.agent.ra import ResourceAgent
from qonnect.events import EventLog
from qonnect.harness.testbed import Members, TestbedSpec
from qonnect.sim.cluster import NodeNotReady, NodePressure, SimCluster
from test_idle_raft_rounds import counting


def unreachable(target: str, method: str, path: str, body: dict | None) -> tuple[int, dict]:
    raise RlaClientError(f"RLA unreachable: {target}")


def members() -> Members:
    return Members(TestbedSpec(seed=1), lambda: RlaClient(["rla-0"], unreachable), EventLog())


def test_an_earlier_time_moves_no_cluster_clock_back():
    m = members()
    name, cluster = next(iter(m.clusters.items()))
    node = cluster.nodes[1].node_name
    m.inject_fault(name, NodeNotReady(node), 10.0)
    assert cluster.now == 10.0

    m.step(5.0)  # an agent round at an earlier time
    assert m.events.matching("registration-retry", f"ra-{name}")  # the round reached it
    assert cluster.now == 10.0
    assert all(c.now == 5.0 for c in m.clusters.values() if c is not cluster)

    m.inject_fault(name, NodePressure(node), 3.0)  # a fault at an earlier time
    assert cluster.now == 10.0
    assert m.events.events[-1].at == 10.0


def test_a_settled_member_set_steps_no_cluster_over_many_rounds(monkeypatch):
    m = members()
    calls: Counter = Counter()
    counting(monkeypatch, calls, SimCluster, "step", "cluster-step")
    counting(monkeypatch, calls, ResourceAgent, "run_due", "run-due")
    now, latest = 0.0, 0.0
    clocks = {name: 0.0 for name in m.clusters}
    for i in range(500):
        now += -0.3 if i % 7 == 6 else 0.1  # a wall clock that sometimes steps back
        latest = max(latest, now)
        m.step(now)
        for name, cluster in m.clusters.items():
            assert clocks[name] <= cluster.now <= latest
            clocks[name] = cluster.now
    assert calls["cluster-step"] == 0
    assert calls["run-due"] >= 20 * len(m.agents)  # the agent rounds ran
    assert not m.events.matching("agent-error")
