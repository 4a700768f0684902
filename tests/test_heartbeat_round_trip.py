"""One heartbeat round trip: the agent reads each namespace once per status
check, and ``RestApi.dispatch`` matches each distinct path once.

A differential property of the memoized route match against the
per-segment loop it replaced, the cache's bound and the read-only params
it hands out, and a work-count guard on a settled engine federation.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonnect.agent.ra import APPS_STORE
from qonnect.rla import rest
from qonnect.rla.rest import CACHED_PATH_LEN, ROUTE_CACHE_SIZE, RestApi
from qonnect.sim.cluster import SimCluster
from test_change_driven_scans import EchoService, any_case, request_bodies, route_paths
from test_due_engine_steps import federation
from test_idle_raft_rounds import counting


def loop_match(method: str, path: str):
    """The route match as ``dispatch`` made it for every request before the
    memo: drop empty segments, then try each route of the request's shape
    segment by segment. (handler, params), or None."""
    segments = [s for s in path.split("/") if s]
    for pattern, handler in RestApi._shapes.get((method.upper(), len(segments)), ()):
        params: dict[str, str] = {}
        for (name, literal), actual in zip(pattern, segments):
            if name is not None:
                params[name] = actual
            elif literal != actual:
                break
        else:
            return handler, params
    return None


def loop_dispatch(api: RestApi, method: str, path: str, body: object = None):
    route = loop_match(method, path)
    if route is None:
        return 404, {"error": "no-such-route", "path": path}
    handler, params = route
    return api._invoke(handler, params, {} if body is None else body)


LONG_SEGMENT = "é" * CACHED_PATH_LEN


@settings(max_examples=500, deadline=None)
@given(method=any_case | st.text(max_size=6), path=route_paths(), body=request_bodies)
@example(method="post", path="//applications/a//components/é/heartbeat/", body={"version": 1})
@example(method="GET", path=f"/clusters/{LONG_SEGMENT}/applications", body=None)
@example(method="PUT", path=f"/{LONG_SEGMENT}/x/qos", body=None)
def test_the_memoized_match_agrees_with_the_segment_loop(method, path, body):
    expected = loop_match(method, path)
    route = rest._resolve(method, path)
    if expected is None:
        assert route is None
    else:
        assert route[0] is expected[0]
        assert dict(route[1]) == expected[1]
    api = RestApi(EchoService())
    assert api.dispatch(method, path, body) == loop_dispatch(api, method, path, body)


def test_the_cache_never_holds_more_than_its_bound_nor_a_long_path():
    api = RestApi(EchoService())
    rest._resolve.cache_clear()
    assert rest._resolve.cache_info().maxsize == ROUTE_CACHE_SIZE
    for i in range(ROUTE_CACHE_SIZE + 100):
        api.dispatch("GET", f"/clusters/c{i}/applications")
        assert rest._resolve.cache_info().currsize <= ROUTE_CACHE_SIZE
    assert rest._resolve.cache_info().currsize == ROUTE_CACHE_SIZE
    rest._resolve.cache_clear()
    assert api.dispatch("GET", f"/clusters/{LONG_SEGMENT}/applications")[0] == 404
    assert rest._resolve.cache_info().currsize == 0


def test_a_round_of_heartbeat_paths_at_a_3000_app_fleet_fits_the_cache():
    # Four components per app, each with its own path: a second round hits
    # on every path, where a smaller LRU cycling through them never would.
    api = RestApi(EchoService())
    paths = [f"/applications/app-{a}/components/c{c}/heartbeat"
             for a in range(3000) for c in range(4)]
    rest._resolve.cache_clear()
    for _ in range(2):
        for path in paths:
            api.dispatch("POST", path, {"version": 1})
    info = rest._resolve.cache_info()
    assert (info.misses, info.hits) == (len(paths), len(paths))


def test_a_handler_cannot_change_the_params_a_later_call_gets():
    api = RestApi(EchoService())
    path = "/applications/shop/components/web/heartbeat"
    body = {"version": 1, "cluster_id": "c", "status": "healthy"}
    first = api.dispatch("POST", path, body)
    _, params = rest._resolve("POST", path)

    def meddling(self, params, body):
        params["app_id"] = "other"

    with pytest.raises(TypeError):
        api._invoke(meddling, params, body)
    assert not hasattr(params, "pop") and not hasattr(params, "clear")
    assert api.dispatch("POST", path, body) == first
    assert "'shop', 'web', 'c', 1, 'healthy'" in first[1]["error"]


def test_a_heartbeat_round_reads_each_namespace_once_and_matches_no_path_twice(monkeypatch):
    dep = federation(1, 2)
    calls: Counter = Counter()
    counting(monkeypatch, calls, SimCluster, "namespace_state", "namespace_state")
    counting(monkeypatch, calls, SimCluster, "workload_state", "workload_state")
    monkeypatch.setattr(
        SimCluster, "object_exists", lambda *a: calls.update(["object_exists"]), raising=False
    )
    agents = list(dep.agents.values())
    components = sum(
        len(entry["components"])
        for agent in agents
        for entry in agent.backend.read_store(APPS_STORE).values()
    )
    assert components == 4  # bookinfo's four components, one heartbeat each
    counting(monkeypatch, calls, RestApi, "dispatch", "dispatch")
    for _ in range(2):
        before = rest._resolve.cache_info()
        calls.clear()
        for agent in agents:
            agent.report_heartbeats(dep.now)
        dispatched = calls.pop("dispatch")
        assert dispatched >= components
        assert calls == {"namespace_state": components}
    after = rest._resolve.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (dispatched, 0)
