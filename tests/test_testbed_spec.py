"""The testbed spec file: one typed decode of its YAML, and the rules about
meaning that ``TestbedSpec.validate`` adds."""

from __future__ import annotations

import dataclasses

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_commands import json_values

from qonnect import codec
from qonnect.harness.testbed import NON_NEGATIVE, TestbedSpec, default_clusters


def write(tmp_path, text: str):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text, encoding="utf-8")
    return spec_file


def default_document() -> dict:
    return codec.encoder(TestbedSpec)(TestbedSpec())


def test_a_yaml_dump_of_every_field_loads_back_equal(tmp_path):
    clusters = [
        dataclasses.replace(c, name=f"site-{i}", ingress_ip=f"192.168.7.{i}", workers=3 + i)
        for i, c in enumerate(reversed(default_clusters()))
    ]
    spec = TestbedSpec(
        clusters=clusters,
        rla_count=5,
        seed=11,
        tick_period=2.5,
        grace_period=20.0,
        snapshot_staleness=9.0,
        telemetry_flush=0.5,
        ra_snapshot_period=3.0,
        ra_poll_period=1.5,
        ra_heartbeat_period=4.0,
        rollout_latency=0.75,
        election_timeout=(0.4, 0.8),
        heartbeat_interval=0.1,
    )
    default = TestbedSpec()
    for f in dataclasses.fields(TestbedSpec):
        assert getattr(spec, f.name) != getattr(default, f.name), f.name
    document = yaml.safe_dump(codec.encoder(TestbedSpec)(spec))
    assert TestbedSpec.from_yaml(write(tmp_path, document)) == spec


def test_an_empty_file_is_the_default_spec(tmp_path):
    assert TestbedSpec.from_yaml(write(tmp_path, "")) == TestbedSpec()
    assert codec.decoder(TestbedSpec)({}) == TestbedSpec()


WORKERS_LIST = yaml.safe_dump(
    {"clusters": [{**c, "workers": [2]} for c in default_document()["clusters"]]}
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed: [1]", r"TestbedSpec\.seed must be int, not list"),
        ("seed: abc", r"TestbedSpec\.seed must be int, not str"),
        (WORKERS_LIST, r"TestbedSpec\.clusters: \[0\]: ClusterSpec\.workers must be int"),
        ("colour: red", r"TestbedSpec has unknown fields \['colour'\]"),
        ("election_timeout: [0.4, 0.2]", r"election_timeout must be \[lo, hi\]"),
        ("election_timeout: [0, 1]", r"election_timeout must be \[lo, hi\]"),
        ("seed: [", r"not YAML"),
        ("seed: !!timestamp x", r"not YAML"),
        ("!!bool x", r"not YAML"),
    ],
    ids=[
        "seed-list", "seed-str", "workers-list", "unknown-key", "election-timeout-reversed",
        "election-timeout-zero", "yaml-syntax", "yaml-timestamp-tag", "yaml-bool-tag",
    ],
)
def test_a_malformed_spec_is_a_value_error_naming_the_key(tmp_path, text, message):
    spec_file = write(tmp_path, text)
    with pytest.raises(ValueError, match=message) as raised:
        TestbedSpec.from_yaml(spec_file)
    assert str(raised.value).startswith(f"{spec_file}: ")


def with_cluster(name: str, **changes) -> list:
    return [dataclasses.replace(c, **changes) if c.name == name else c for c in default_clusters()]


def test_a_duplicate_ingress_ip_is_refused_naming_the_cluster():
    taken = next(c.ingress_ip for c in default_clusters() if c.name == "edge-cost")
    # edge-energy comes first, so edge-cost is the one that repeats its ip.
    with pytest.raises(ValueError, match=f"edge-cost: ingress_ip {taken} is edge-energy's"):
        TestbedSpec(clusters=with_cluster("edge-energy", ingress_ip=taken))


@pytest.mark.parametrize("ip", ["", "10.0.0", "10.0.0.256", "edge.example", "10.0.0.1:80"])
def test_an_ingress_ip_that_is_no_ip_address_is_refused(ip):
    with pytest.raises(ValueError, match="fog-cost: ingress_ip .* is not an IP address"):
        TestbedSpec(clusters=with_cluster("fog-cost", ingress_ip=ip))


@pytest.mark.parametrize("workers", [0, -3])
def test_a_cluster_with_no_worker_is_refused(workers):
    # Its lone control-plane node could host no component.
    with pytest.raises(ValueError, match=f"fog-cost: needs 1 or more workers, not {workers}"):
        TestbedSpec(clusters=with_cluster("fog-cost", workers=workers))


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in (*NON_NEGATIVE, "grace_period", "election_timeout")
        for value in (float("nan"), float("inf"), -1.0)
    ]
    + [("grace_period", 0), ("grace_period", 0.0)],
)
def test_a_float_setting_out_of_its_range_is_refused(field, value):
    # Such a spec would load and boot, and then never make an app Healthy.
    # Zero is legal but for grace_period: a zero flush means every pump.
    changes = {field: (0.15, value) if field == "election_timeout" else value}
    with pytest.raises(ValueError, match=f"{field} must be"):
        TestbedSpec(**changes)


@st.composite
def mutated_documents(draw) -> dict:
    """The default spec's document with a few keys, its own or a cluster's, changed."""
    document = default_document()
    targets = [document, *document["clusters"]]
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
        if draw(st.integers(0, 5)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    return document


@settings(max_examples=200, deadline=None)
@given(
    document=mutated_documents().map(yaml.safe_dump)
    | json_values.map(yaml.safe_dump)
    | st.text(max_size=40)
)
def test_any_document_loads_or_raises_value_error_only(tmp_path_factory, document):
    spec_file = tmp_path_factory.mktemp("spec") / "spec.yaml"
    spec_file.write_text(document, encoding="utf-8")
    try:
        spec = TestbedSpec.from_yaml(spec_file)
    except ValueError:
        return
    spec.validate()
