"""Fuzz the REST surface: no request, however malformed, escapes the route table.

Any method on any route template, with real or random ids and any JSON
body, must answer with one of the API's statuses and a JSON-encodable
payload, on the leader and on a follower alike. ``validate_bundle`` must
classify any JSON value without raising, however deeply nested, and a
bundle it accepts must be in the form the log decodes to, as the leader
applies it from that form.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.engine import Deployment
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import SubmitApplication, decode_command, encode_command
from qonnect.rla.rest import RestApi
from qonnect.rla.validation import MAX_MANIFEST_DEPTH, validate_bundle

STATUSES = {200, 201, 307, 400, 404, 409, 503}

# Keys the handlers read, so that some bodies get past the shape checks.
KEYS = (
    "external_ip", "domain", "nodes", "qos", "cluster_id", "version", "status",
    "application", "components", "name", "energy", "pricing", "performance",
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), children, max_size=5),
    max_leaves=16,
)
# Mostly objects, as every route wants one.
bodies = st.dictionaries(st.sampled_from(KEYS), json_values, max_size=4) | json_values
methods = st.sampled_from(["GET", "POST", "PUT", "DELETE"]) | st.text(max_size=6)
# Random path segments: mostly one segment each, sometimes empty or several.
ids = st.text(st.characters(blacklist_characters="/"), min_size=1, max_size=10) | st.text(
    max_size=10
)


def booted() -> tuple[Deployment, dict[str, list[str]]]:
    """A booted engine with one placed application, and the real value of
    each route parameter."""
    dep = Deployment(TestbedSpec(seed=31))
    dep.boot()
    dep.client().submit_application(bookinfo_bundle("fuzzed"))
    assert dep.run_until(
        lambda: (app := dep.kb().live_application("fuzzed")) is not None
        and all(c.decision is not None for c in app.components),
        60.0,
    )
    app = dep.kb().live_application("fuzzed")
    return dep, {
        "cluster_id": sorted(dep.kb().clusters),
        "name": [app.name],
        "app_id": [app.app_id],
        "component": [c.name for c in app.components],
    }


def test_any_request_gets_an_api_status_on_the_leader_and_a_follower():
    dep, real = booted()
    leader = dep.leader_id()
    follower = next(i for i in dep.services if i != leader)
    apis = [dep.apis[f"rla-{leader}"], dep.apis[f"rla-{follower}"]]

    @st.composite
    def requests(draw) -> tuple[str, str]:
        """A method and path: mostly the route's own method, and its template
        filled with real ids or random text."""
        route_method, pattern, _ = draw(st.sampled_from(RestApi._routes))
        segments = [
            literal if name is None
            else draw(st.sampled_from(real[name]) | ids)
            for name, literal in pattern
        ]
        method = route_method if draw(st.integers(0, 3)) else draw(methods)
        return method, "/" + "/".join(segments)

    @settings(max_examples=200, deadline=None)
    @given(requests(), bodies)
    def check(request: tuple[str, str], body: object) -> None:
        method, path = request
        for api in apis:
            status, payload = api.dispatch(method, path, body)
            assert status in STATUSES, (status, payload)
            assert isinstance(payload, dict)
            json.dumps(payload)

    check()


class Name(str):
    """A string subclass, which an in-process caller may hand over."""


# What an in-process body may hold besides JSON values: tuples, non-string
# keys and string subclasses.
in_process_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.text(max_size=6).map(Name),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(
        st.sampled_from(KEYS) | st.text(max_size=6) | st.integers() | st.text(max_size=6).map(Name),
        children,
        max_size=5,
    ),
    max_leaves=16,
)


class Nested(list):
    """An array holding arrays (or objects) nested ``levels`` levels deep in
    all; its short repr keeps Hypothesis from printing every level."""

    def __init__(self, levels: int, objects: bool = False) -> None:
        inner: list | dict = {} if objects else []
        for _ in range(levels - 2):
            inner = {"x": inner} if objects else [inner]
        super().__init__([inner] if levels > 1 else [])
        self.levels = levels

    def __repr__(self) -> str:
        return f"Nested({self.levels})"


# Values nested from shallow to past the depth at which the log's decoder
# fails (about 975 levels below a manifest's top).
deep_values = st.builds(Nested, st.integers(1, 1200), st.booleans())


def depth(value: object) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(depth, value), default=0)
    return 0


def bookinfo_with(edit) -> dict:
    bundle = bookinfo_bundle("fuzzed")
    edit(bundle)
    return bundle


@st.composite
def bookinfo_variants(draw) -> dict:
    """A bookinfo bundle with one field of one manifest object set to a
    JSON value or an in-process one, so that most variants pass."""
    bundle = bookinfo_bundle("fuzzed")
    obj = draw(st.sampled_from([o for c in bundle["components"] for o in c["objects"]]))
    obj[draw(st.sampled_from(KEYS) | st.text(max_size=6))] = draw(in_process_values | deep_values)
    return bundle


@settings(max_examples=300, deadline=None)
@given(bodies | bookinfo_variants())
@example(bookinfo_with(lambda b: b["components"][0]["objects"][1].update(ports=(9080, 9443))))
@example(bookinfo_with(lambda b: b["components"][0]["objects"][0]["env"].update({1: "a"})))
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(ids={1: {2: "b"}})))
# Integer keys the encoder orders as numbers, not as the strings it writes.
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(x={-1: None, -2: None})))
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(x={9: 1, 10: 2})))
@example(bookinfo_with(lambda b: b["application"].update(name=Name("fuzzed"))))
@example(bookinfo_with(lambda b: b["components"][2].update(component=Name("reviews"))))
# An object three levels down in its manifest, holding arrays nested to the
# limit, one level past it, and as deep as the log's decoder or its encoder fails.
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(x=Nested(97))))
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(x=Nested(98))))
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(x=Nested(972))))
@example(bookinfo_with(lambda b: b["components"][1]["objects"][0].update(x=Nested(982))))
@example(bookinfo_with(lambda b: b["application"].update(labels={"app": Name("fuzzed")})))
def test_validate_bundle_classifies_any_json_value(bundle):
    parsed, errors = validate_bundle(bundle)
    if parsed is None:
        assert isinstance(errors, list) and errors
        return
    assert errors == []
    # Accepted: the leader applies the command from this very object, and
    # each follower from its decoded copy.
    cmd = SubmitApplication("id", parsed.name, parsed.labels, parsed.qos, parsed.components, 0.0)
    copy = decode_command(encode_command(cmd))
    assert copy == cmd
    # A manifest is its text, so equal texts hold the same keys in the same
    # order and values of the same JSON types.
    for (_, _, manifest), (_, _, decoded) in zip(cmd.components, copy.components):
        assert type(manifest) is str and manifest == decoded
        assert depth(json.loads(manifest)) <= MAX_MANIFEST_DEPTH
    names = (parsed.name, *(s for label in parsed.labels for s in label))
    assert all(type(s) is str for s in names + tuple(c for c, _, _ in parsed.components))
