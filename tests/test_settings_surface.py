"""The settings a user or operator can set, pinned by name.

A new field in one of these classes, a new parameter of the simulated
cluster's constructors, a module that reads the process environment, or
live mode or the CLI needing ``requests`` again, then shows up as an edit
to this file.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qonnect
from qonnect.agent.ra import RaConfig
from qonnect.harness.testbed import ClusterSpec, TestbedSpec
from qonnect.raft.node import RaftConfig
from qonnect.rla.config import RlaConfig
from qonnect.sim.cluster import SimCluster, make_cluster

SURFACE = {
    TestbedSpec: (
        "clusters", "rla_count", "seed",
        "tick_period", "grace_period", "snapshot_staleness", "telemetry_flush",
        "ra_snapshot_period", "ra_poll_period", "ra_heartbeat_period", "rollout_latency",
        "election_timeout", "heartbeat_interval",
    ),
    ClusterSpec: ("name", "domain", "profile", "ingress_ip", "workers"),
    RlaConfig: (
        "rla_id", "peers", "data_dir",
        "tick_period", "grace_period", "snapshot_staleness", "telemetry_flush",
    ),
    RaConfig: ("domain", "snapshot_period", "poll_period", "heartbeat_period"),
    RaftConfig: ("node_id", "members", "election_timeout", "heartbeat_interval", "seed"),
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_settings_are_the_pinned_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == SURFACE[cls]


# ``events`` is where a cluster logs, as for ``ResourceAgent`` and
# ``RlaService``: an output sink, not a setting.
PARAMETERS = {
    make_cluster: (
        "name", "domain", "profile", "ingress_ip", "workers", "rollout_latency", "events",
    ),
    SimCluster.__init__: (
        "self", "name", "domain", "profile", "ingress_ip", "nodes", "rollout_latency", "events",
    ),
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__qualname__)
def test_constructors_take_the_pinned_parameters(fn):
    assert tuple(inspect.signature(fn).parameters) == PARAMETERS[fn]


def test_no_module_reads_the_environment():
    package = Path(qonnect.__file__).parent
    readers = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if re.search(r"\benviron\b|\bgetenv\b", path.read_text(encoding="utf-8"))
    ]
    assert readers == []


def test_live_mode_and_the_cli_import_without_requests():
    src = str(Path(qonnect.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['requests'] = None; "
        f"sys.path.insert(0, {src!r}); "
        "import qonnect.harness.cli, qonnect.harness.live"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
