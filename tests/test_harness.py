"""Harness: parameter fidelity, testbed bootstrap, determinism, CLI surface."""

from __future__ import annotations

import dataclasses
import json

import pytest
import yaml

from qonnect.harness.bookinfo import bookinfo_bundle, parse_bundle_stream
from qonnect.harness.cli import main
from qonnect.harness.engine import Deployment
from qonnect.harness.scenarios import run_scenario
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.model import ComponentStatus
from qonnect.sim.profiles import PROFILES
from support import (
    AWS_COEFFICIENTS,
    GCP_COEFFICIENTS,
    EnergyCoefficientInput,
    bundle_to_yaml,
    cluster_id_of,
    energy_coefficient,
    table_midpoint,
)


def test_energy_coefficients_reproduce_published_values():
    assert energy_coefficient(AWS_COEFFICIENTS) == pytest.approx(0.0024042, abs=1e-7)
    assert energy_coefficient(GCP_COEFFICIENTS) == pytest.approx(0.0027335, abs=1e-7)


def test_energy_coefficient_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        EnergyCoefficientInput(w_idle=5.0, w_max=1.0, pue=1.1)
    with pytest.raises(ValueError):
        EnergyCoefficientInput(w_idle=0.7, w_max=3.0, pue=0.9)


def test_profile_midpoints_follow_table_arithmetic():
    # Cost-efficient energy = rounded midpoint of the two provider values.
    assert table_midpoint(0.0024042, 0.0027335) == PROFILES["cost"].energy == 0.0025689
    # Energy-efficient cost = exact midpoint of min/max instance pricing.
    assert table_midpoint(0.0042, 32.7726) == PROFILES["energy"].pricing == 16.3884
    # Energy-efficient bandwidth = midpoint of 5 and 100 Gbps.
    assert table_midpoint(5.0, 100.0) == PROFILES["energy"].bandwidth == 52.5


def test_default_testbed_is_nine_clusters():
    spec = TestbedSpec()
    assert len(spec.clusters) == 9
    assert len({c.ingress_ip for c in spec.clusters}) == 9
    with pytest.raises(ValueError):
        TestbedSpec(clusters=[*spec.clusters, spec.clusters[0]])  # duplicate name
    with pytest.raises(ValueError):
        TestbedSpec(clusters=spec.clusters[:6])  # missing a domain's profiles


def test_a_testbed_with_two_clusters_per_profile_and_domain_boots_and_places():
    base = TestbedSpec().clusters
    twins = [
        dataclasses.replace(c, name=f"{c.name}-2", ingress_ip=c.ingress_ip[:-1] + "2")
        for c in base
    ]
    dep = Deployment(TestbedSpec(clusters=[*base, *twins], seed=7))
    dep.boot()
    assert len(dep.kb().clusters) == 18
    dep.client().submit_application(bookinfo_bundle("bookinfo"))

    def components():
        return dep.kb().live_application("bookinfo").components

    assert dep.run_until(
        lambda: all(c.status == ComponentStatus.HEALTHY for c in components()), 30.0
    )
    for comp in components():
        host = dep.clusters[dep.cluster_name_by_id(comp.decision.cluster_id)]
        # Twin clusters score alike and a tie breaks by cluster id, so either
        # performance cluster of the component's domain may host it.
        assert (host.domain, host.profile) == (comp.target_domain, "performance")


def test_testbed_spec_yaml_roundtrip(tmp_path):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(
        yaml.safe_dump(
            {
                "seed": 9,
                "grace_period": 12.5,
                "clusters": [
                    {"name": c.name, "domain": c.domain, "profile": c.profile,
                     "ingress_ip": c.ingress_ip}
                    for c in TestbedSpec().clusters
                ],
            }
        ),
        encoding="utf-8",
    )
    spec = TestbedSpec.from_yaml(spec_file)
    assert spec.seed == 9
    assert spec.grace_period == 12.5


def test_malformed_testbed_spec_is_a_value_error_naming_the_entry(tmp_path):
    spec_file = tmp_path / "spec.yaml"
    entries = [
        {"name": c.name, "domain": c.domain, "profile": c.profile, "ingress_ip": c.ingress_ip}
        for c in TestbedSpec().clusters
    ]
    del entries[3]["profile"]
    spec_file.write_text(yaml.safe_dump({"clusters": entries}), encoding="utf-8")
    missing = r"clusters: \[3\]: ClusterSpec misses fields \['profile'\]"
    with pytest.raises(ValueError, match=missing):
        TestbedSpec.from_yaml(spec_file)

    spec_file.write_text(yaml.safe_dump([{"seed": 1}]), encoding="utf-8")
    with pytest.raises(ValueError, match="must be an object, not list"):
        TestbedSpec.from_yaml(spec_file)


def test_election_timeout_reads_lo_hi(tmp_path):
    config_file = tmp_path / "config.yaml"
    config_file.write_text(yaml.safe_dump({"seed": 1, "election_timeout": [0.5, 0.9]}))
    assert TestbedSpec.from_yaml(config_file).election_timeout == (0.5, 0.9)
    config_file.write_text(yaml.safe_dump({"seed": 1, "election_timeout": 12}))
    with pytest.raises(ValueError, match=r"TestbedSpec\.election_timeout: expected a list of 2"):
        TestbedSpec.from_yaml(config_file)


def test_bundle_yaml_stream_roundtrip():
    bundle = bookinfo_bundle("shopdemo", {"energy": 1.0})
    text = bundle_to_yaml(bundle)
    assert text.count("---") >= 4  # application doc + four components
    parsed = parse_bundle_stream(text)
    assert parsed == bundle
    with pytest.raises(ValueError):
        parse_bundle_stream("components: []\n")


def test_bootstrap_populates_exact_parameter_table():
    dep = Deployment(TestbedSpec(seed=2))
    dep.boot()
    kb = dep.kb()
    assert len(kb.cluster_config()) == 9

    by_profile: dict[str, list] = {"energy": [], "cost": [], "performance": []}
    for name, cluster in dep.clusters.items():
        cid = cluster_id_of(dep, name)
        for node in kb.nodes_in_domain(cluster.domain):
            if node.cluster_id == cid:
                by_profile[cluster.profile].append(node)
    assert all(len(nodes) == 6 for nodes in by_profile.values())  # 3 domains x 2 workers

    assert {n.energy for n in by_profile["energy"]} == {0.0024042}
    assert {n.energy for n in by_profile["cost"]} == {0.0025689}
    assert {n.energy for n in by_profile["performance"]} == {0.0027335}
    assert {n.pricing for n in by_profile["cost"]} == {0.0042}
    assert {n.pricing for n in by_profile["energy"]} == {16.3884}
    assert {n.pricing for n in by_profile["performance"]} == {32.7726}
    assert {n.bandwidth for n in by_profile["energy"]} == {52.5}
    assert {n.bandwidth for n in by_profile["cost"]} == {5.0}
    assert {n.bandwidth for n in by_profile["performance"]} == {100.0}


def decisions_fingerprint(dep: Deployment, name: str) -> list[tuple]:
    app = dep.kb().live_application(name)
    return [
        (c.name, c.decision.cluster_id, c.decision.node_names, c.decision.decided_at,
         c.decision.deciding_term)
        for c in app.components
    ]


def test_scenarios_one_and_two_are_bit_identical_across_runs():
    fingerprints = []
    for _ in range(2):
        dep = Deployment(TestbedSpec(seed=123))
        report1 = run_scenario(dep, 1)
        assert report1.verdict == "pass"
        first = decisions_fingerprint(dep, "bookinfo")
        report2 = run_scenario(dep, 2)
        assert report2.verdict == "pass"
        second = decisions_fingerprint(dep, "bookinfo")
        fingerprints.append((first, second))
    assert fingerprints[0] == fingerprints[1]


def test_cli_scenario_and_report_commands(tmp_path):
    out = tmp_path / "out"
    assert main(["scenario", "4", "--seed", "5", "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert verdict["all_passed"] is True
    assert verdict["scenarios"][0]["scenario"] == 4
    assert (out / "events.jsonl").read_text(encoding="utf-8").strip()
    assert (out / "report.txt").read_text(encoding="utf-8").startswith("scenario 4: PASS")
    assert main(["report", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["scenario", "1"], "seed: [1]\n", "TestbedSpec.seed"),
        (["scenario", "1"], "seed: [\n", "not YAML"),
        (["submit"], "components: []\n", "the first document must carry the application block"),
        (["submit"], "application: {name: a}\n---\n!!bool x\n", "not YAML"),
        (["submit"], "application: [\n", "not YAML"),
    ],
)
def test_cli_reports_a_malformed_input_file_in_one_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.yaml"
    path.write_text(text, encoding="utf-8")
    if command[0] == "scenario":
        command = command + ["--spec", str(path), "--out", str(tmp_path / "out")]
    else:
        command = command + [str(path)]
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qonnect: {path}: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()
