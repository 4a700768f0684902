"""qonnect CLI: boot a live testbed, drive applications, run scenarios.

`up` serves a real HTTP deployment until interrupted; `submit`/`qos`/
`delete` talk to a running deployment; `scenario` runs the deterministic
engine and writes a human-readable report plus a machine-readable verdict
file; `report` summarizes verdict files. Exit code 0 means everything
requested passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from qonnect.agent.client import RlaClient
from qonnect.harness.bookinfo import parse_bundle_stream
from qonnect.harness.engine import Deployment
from qonnect.harness.scenarios import run_scenario
from qonnect.harness.testbed import TestbedSpec

VERDICT_FILE = "verdict.json"
REPORT_FILE = "report.txt"
EVENTS_FILE = "events.jsonl"


def _load_spec(args: argparse.Namespace) -> TestbedSpec:
    spec = TestbedSpec.from_yaml(args.spec) if getattr(args, "spec", None) else TestbedSpec()
    if getattr(args, "seed", None) is not None:
        spec.seed = args.seed
    return spec


@contextmanager
def _client(args: argparse.Namespace):
    """A client of the RLA at ``--rla``, whose connection closes on exit."""
    from qonnect.harness.live import HttpSend

    send = HttpSend()
    try:
        yield RlaClient([args.rla], send)
    finally:
        send.close()


def cmd_up(args: argparse.Namespace) -> int:
    from qonnect.harness.live import LiveDeployment

    deployment = LiveDeployment(
        spec=_load_spec(args), base_port=args.port, data_root=args.data
    )
    deployment.start()
    print("RLA endpoints:")
    for rla_id, address in deployment.addresses.items():
        print(f"  rla-{rla_id}: http://{address}")
    try:
        leader = deployment.wait_for_leader(timeout=15.0)
        print(f"leader elected: rla-{leader}")
        print("testbed running; Ctrl+C to stop")
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("stopping")
    finally:
        try:
            deployment.stop()
        except KeyboardInterrupt:
            pass  # second Ctrl+C: exit now, daemon threads die with us
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    try:
        bundle = parse_bundle_stream(Path(args.bundle).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{args.bundle}: {exc}") from None
    with _client(args) as client:
        app_id = client.submit_application(bundle)
    print(f"submitted {bundle['application']['name']}: {app_id}")
    return 0


def cmd_qos(args: argparse.Namespace) -> int:
    qos = {"energy": args.energy, "pricing": args.pricing, "performance": args.performance}
    with _client(args) as client:
        result = client.update_qos(args.name, qos)
    print(f"qos updated: {result['name']} now at version {result['version']}")
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    with _client(args) as client:
        result = client.delete_application(args.name)
    print(f"deleted: {result['name']}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    scenarios = [1, 2, 3, 4] if args.which == "all" else [int(args.which)]
    deployment = Deployment(spec=_load_spec(args))
    reports = [run_scenario(deployment, n) for n in scenarios]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = "\n\n".join(r.render_text() for r in reports) + "\n"
    (out / REPORT_FILE).write_text(text, encoding="utf-8")
    (out / VERDICT_FILE).write_text(
        json.dumps(
            {
                "seed": deployment.spec.seed,
                "scenarios": [r.to_dict() for r in reports],
                "all_passed": all(r.verdict == "pass" for r in reports),
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    deployment.events.write_jsonl(out / EVENTS_FILE)
    print(text, end="")
    print(f"report: {out / REPORT_FILE}")
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def cmd_report(args: argparse.Namespace) -> int:
    verdict_path = Path(args.out) / VERDICT_FILE
    if not verdict_path.exists():
        print(f"no verdict file at {verdict_path}", file=sys.stderr)
        return 2
    data = json.loads(verdict_path.read_text(encoding="utf-8"))
    for scenario in data["scenarios"]:
        print(f"scenario {scenario['scenario']}: {scenario['verdict']}")
    print("all passed" if data["all_passed"] else "FAILURES present")
    return 0 if data["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qonnect",
        description="QoS-aware multi-cluster orchestration testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    up = sub.add_parser("up", help="boot a live testbed over HTTP")
    up.add_argument("--spec", help="testbed spec YAML")
    up.add_argument("--seed", type=int, default=None)
    up.add_argument("--port", type=int, default=7400, help="base port for RLAs")
    up.add_argument("--data", help="data directory root for RLA WALs")
    up.set_defaults(fn=cmd_up)

    submit = sub.add_parser("submit", help="submit an application bundle")
    submit.add_argument("bundle", help="YAML document stream")
    submit.add_argument("--rla", default="127.0.0.1:7400", help="any RLA host:port")
    submit.set_defaults(fn=cmd_submit)

    qos = sub.add_parser("qos", help="update an application's QoS weights")
    qos.add_argument("name")
    qos.add_argument("energy", type=float)
    qos.add_argument("pricing", type=float)
    qos.add_argument("performance", type=float)
    qos.add_argument("--rla", default="127.0.0.1:7400")
    qos.set_defaults(fn=cmd_qos)

    delete = sub.add_parser("delete", help="withdraw an application")
    delete.add_argument("name")
    delete.add_argument("--rla", default="127.0.0.1:7400")
    delete.set_defaults(fn=cmd_delete)

    scenario = sub.add_parser("scenario", help="run evaluation scenarios deterministically")
    scenario.add_argument("which", choices=["1", "2", "3", "4", "all"])
    scenario.add_argument("--spec", help="testbed spec YAML")
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--out", default="qonnect-out", help="report directory")
    scenario.set_defaults(fn=cmd_scenario)

    report = sub.add_parser("report", help="summarize a verdict file")
    report.add_argument("--out", default="qonnect-out")
    report.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a malformed spec, bundle or verdict file
        print("qonnect:", *str(exc).split(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
