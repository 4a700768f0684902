"""The names the benchmark reaches into exist in the program.

``benchmark/tracing.py`` wraps one or more entry points of every layer by
name, and ``benchmark/workloads.py`` times the agents' client calls by
name. A rename in ``src/`` would otherwise surface only in a benchmark
run; here it fails the test suite.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from qonnect.agent.client import RlaClient
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.model import ComponentStatus

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _benchmark_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    return importlib.import_module(name)


def test_the_tracer_wraps_every_target_and_puts_each_back(monkeypatch):
    tracer = _benchmark_module(monkeypatch, "tracing").Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert len(patches) == 19
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original
        # A traced placement runs through every observer that reads a
        # call's arguments or result.
        dep = Deployment(TestbedSpec(seed=7))
        dep.boot()
        dep.client().submit_application(bookinfo_bundle("traced"))
        assert dep.run_until(
            lambda: (app := dep.kb().live_application("traced")) is not None
            and all(c.status == ComponentStatus.HEALTHY for c in app.components),
            60.0,
        )
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
    counts = tracer.recording.counts
    assert counts["kb.applies"] > 0 and counts["scheduler.placements"] > 0
    assert counts["scheduler.places"] > 0 and counts["rla.status.2xx"] > 0
    names = {span[2] for span in tracer.recording.spans}
    assert {"scheduler.tick", "scheduler.place", "kb.decode", "rla.pump"} <= names


def test_the_timed_client_calls_are_methods_of_the_agents_client(monkeypatch):
    workloads = _benchmark_module(monkeypatch, "workloads")
    assert workloads.RPC_METHODS
    for name in workloads.RPC_METHODS:
        assert callable(getattr(RlaClient, name, None)), name
