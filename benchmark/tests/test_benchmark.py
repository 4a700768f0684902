"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest benchmark/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmark" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENGINE = ("scenarios", "burst", "steady")

# The end-to-end metrics beyond the bounded ones, and the workloads on which
# it is documented as not reported (see benchmark/README.md).
E2E_ABSENT = {
    "failed_ratio": set(),
    "rpc_ms.p99": set(),
    "sim_rate_raw": set(),
    "speed_factor": set(),
    "sim_rate_wall": {"live"},
    "submit_to_healthy_sim_s.p50": {"steady", "live"},
    "submit_to_healthy_sim_s.p95": {"steady", "live"},
    "migrate_sim_s.p50": {"steady", "live"},
    "migrate_sim_s.p95": {"steady", "live"},
    "redeploy_sim_s.p50": {"burst", "steady", "live"},
    "failover_sim_s.p50": {"burst", "steady", "live"},
    "telemetry_age_sim_s.p50": {"scenarios", "burst", "live"},
    "telemetry_age_sim_s.p95": {"scenarios", "burst", "live"},
    "live.rpc_ms.p50": set(ENGINE),
    "live.rpc_ms.p99": set(ENGINE),
    "live.submit_to_healthy_s.p50": set(ENGINE),
    "live.submit_to_healthy_s.p95": set(ENGINE),
    "live.over_limit": set(ENGINE),
    "live.generator_lag_ms.max": set(ENGINE),
}
COUNTS = ("raft.entries", "raft.elections", "kb.applies", "scheduler.placements",
          "scheduler.requeues", "rla.status.2xx", "rla.status.3xx", "rla.status.4xx",
          "rla.status.5xx")


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, run: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def table(stdout: str) -> dict[str, list[str]]:
    rows = {}
    for line in stdout.splitlines():
        if line.startswith("  ") and len(line.split()) >= 3:
            name, *rest = line.split()
            rows[name] = rest
    return rows


@pytest.mark.parametrize("workload", ("scenarios", "burst", "steady", "live"))
def test_every_metric_is_emitted_with_its_unit(workload):
    proc = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    rows = table(proc.stdout)
    for name, absent in E2E_ABSENT.items():
        value, unit = rows[name][0], rows[name][1]
        assert unit, name
        if workload in absent:
            assert value == "n/a" and "reported" in rows[name], name
        else:
            float(value)

    traced = bench(workload, trace=1)
    assert traced.returncode == 0, traced.stderr
    layers = json.loads(traced.stdout.strip().splitlines()[-1])["metrics"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert layers[metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", ENGINE)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        proc = bench(workload, trace=1, seed=5)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({name: metrics[name]["value"] for name in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["raft.entries"] > 0 and runs[0]["kb.applies"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("scenarios", trace=0, cwd=tmp_path, run=tmp_path / "benchmark" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_failed_output_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import run
    run.load_program()
    import workloads

    def diverged(run_, dep, label):
        run_.require(False, f"{label}: replica KB snapshots differ")

    monkeypatch.setattr(workloads, "check_replicas", diverged)
    code = run.main(["--workload", "scenarios", "--seed", "3", "--seconds", "1", "--tiny"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last)["correct"] is False
