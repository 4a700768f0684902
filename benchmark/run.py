"""qonnect benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload burst --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that gives the per-layer metrics
and the tracing overhead. ``--workload all`` runs every workload in turn.
Every metric is printed by name with its unit and direction; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed output check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("scenarios", "burst", "steady", "live")

# End-to-end metrics: name, unit, better, workloads that report it. BOUNDED
# are the ones BENCHMARK.json bounds. The p99 of agent calls is left out
# there: on burst and steady it falls among the ~1% of calls that are
# polls, so it moves with the poll share rather than with call cost.
E2E = (
    ("setup_s", "s", "lower", WORKLOADS),
    ("sim_rate", "sim_s/cpu_s", "higher", WORKLOADS),
    ("peak_rss_mb", "MB", "lower", WORKLOADS),
    ("rpc_ms.p50", "ms", "lower", WORKLOADS),
    ("rpc_ms.mean", "ms", "lower", WORKLOADS),
    ("rpc_ms.p99", "ms", "lower", WORKLOADS),
    ("sim_rate_raw", "sim_s/cpu_s", "higher", WORKLOADS),
    ("sim_rate_wall", "sim_s/s", "higher", ("scenarios", "burst", "steady")),
    ("speed_factor", "ratio", "higher", WORKLOADS),
    ("failed_ratio", "share", "lower", WORKLOADS),
    ("submit_to_healthy_sim_s.p50", "sim_s", "lower", ("scenarios", "burst")),
    ("submit_to_healthy_sim_s.p95", "sim_s", "lower", ("scenarios", "burst")),
    ("migrate_sim_s.p50", "sim_s", "lower", ("scenarios", "burst")),
    ("migrate_sim_s.p95", "sim_s", "lower", ("scenarios", "burst")),
    ("redeploy_sim_s.p50", "sim_s", "lower", ("scenarios",)),
    ("failover_sim_s.p50", "sim_s", "lower", ("scenarios",)),
    ("telemetry_age_sim_s.p50", "sim_s", "lower", ("steady",)),
    ("telemetry_age_sim_s.p95", "sim_s", "lower", ("steady",)),
    ("live.rpc_ms.p50", "ms", "lower", ("live",)),
    ("live.rpc_ms.p99", "ms", "lower", ("live",)),
    ("live.submit_to_healthy_s.p50", "s", "lower", ("live",)),
    ("live.submit_to_healthy_s.p95", "s", "lower", ("live",)),
    ("live.over_limit", "count", "lower", ("live",)),
    ("live.generator_lag_ms.max", "ms", "lower", ("live",)),
)
BOUNDED = ("setup_s", "sim_rate", "peak_rss_mb", "rpc_ms.p50", "rpc_ms.mean")


def load_program():
    """Import qonnect from this checkout's ``src``; never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qonnect" / "__init__.py").is_file():
        sys.exit(f"benchmark: no qonnect sources under {src}")
    sys.path.insert(0, str(src))
    import qonnect

    if Path(qonnect.__file__).resolve().parent != (src / "qonnect").resolve():
        sys.exit(f"benchmark: imported qonnect from {qonnect.__file__}, not {src}")


def end_to_end(run, workload: str) -> dict[str, tuple[float, str]]:
    from tracing import percentile

    samples = run.samples
    rpc_ms = [x * 1e3 for x in run.rpc.latencies]
    values: dict[str, float] = {
        "setup_s": statistics.median(run.setup_s),
        "sim_rate": statistics.median(run.sim_rate[False]),
        "peak_rss_mb": run.peak_rss_mb,
        "rpc_ms.p50": percentile(rpc_ms, 50),
        "rpc_ms.mean": statistics.median(run.rpc.unit_means) * 1e3,
        "rpc_ms.p99": percentile(rpc_ms, 99),
        "sim_rate_raw": statistics.median(run.sim_rate_raw),
        "speed_factor": statistics.median(run.speed.factors),
        "failed_ratio": run.failed / max(1, run.attempted),
    }
    if run.sim_rate_wall:
        values["sim_rate_wall"] = statistics.median(run.sim_rate_wall)
    for base in ("submit_to_healthy_sim_s", "migrate_sim_s", "telemetry_age_sim_s"):
        if samples.get(base):
            values[f"{base}.p50"] = percentile(samples[base], 50)
            values[f"{base}.p95"] = percentile(samples[base], 95)
    for base in ("redeploy_sim_s", "failover_sim_s"):
        if samples.get(base):
            values[f"{base}.p50"] = percentile(samples[base], 50)
    if workload == "live":
        values["live.rpc_ms.p50"] = values["rpc_ms.p50"]
        values["live.rpc_ms.p99"] = values["rpc_ms.p99"]
        waits = samples.get("live.submit_to_healthy_s", [])
        values["live.submit_to_healthy_s.p50"] = percentile(waits, 50)
        values["live.submit_to_healthy_s.p95"] = percentile(waits, 95)
        for name, (value, _unit) in run.extra.items():
            values[name] = value
    units = {name: unit for name, unit, _b, _w in E2E}
    return {name: (value, units[name]) for name, value in values.items()}


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {unit:<12} {note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import workloads
    from tracing import layer_metrics, write_spans

    run = workloads.Run(name, seed, seconds, trace, workloads.TINY if tiny else workloads.FULL)
    getattr(workloads, name)(run)

    if not trace:
        measured = end_to_end(run, name)
        rows = []
        for metric, unit, better, where in E2E:
            if metric in measured:
                rows.append((metric, measured[metric][0], unit, f"{better} is better"))
            else:
                rows.append((metric, None, unit, f"reported by: {', '.join(where)}"))
        print_table(f"{name}: end-to-end (seed {seed}, {run.attempted} ops)", rows)
        metrics = {m: measured[m] for m in BOUNDED}
    else:
        metrics = layer_metrics(run.tracer.recording, run.traced_totals)
        # The first untraced unit reruns the traced unit's input.
        overhead = run.sim_rate[False][0] / run.sim_rate[True][0]
        metrics["trace.overhead"] = (overhead, "ratio")
        print_table(
            f"{name}: per layer (seed {seed}, first unit traced)",
            [(m, v, u, "") for m, (v, u) in metrics.items()],
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}.tsv.gz"
        write_spans(spans_path, run.tracer.recording)
        print(f"  spans of the traced unit written to {spans_path.relative_to(ROOT)}")

    for problem in run.problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke tests")
    args = parser.parse_args(argv)
    load_program()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny) for n in names}
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
