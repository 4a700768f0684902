"""REST route table over the RLA service.

``dispatch`` is transport-neutral: the HTTP server and the in-process
client both funnel through it, so route behavior is identical in live and
simulated deployments. Write endpoints answer 307 with a leader hint when
this replica is not the leader; config reads are served from local applied
state on any replica.

A request's (method, path) resolves to its handler and parameters once:
``_resolve`` is memoized, so a repeated path (each component's heartbeat,
each cluster's poll) skips the split and the per-segment match.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from qonnect.raft.node import NotLeaderError
from qonnect.rla.service import (
    ConflictError,
    NotFoundError,
    RlaService,
    UnavailableError,
    ValidationFailed,
)


def _route(method: str, path: str, handler: Callable[..., tuple[int, dict]]) -> tuple:
    """A route with its pattern parsed once: per segment, (param name, None) or (None, literal)."""
    pattern = tuple(
        (s[1:-1], None) if s.startswith("{") and s.endswith("}") else (None, s)
        for s in path.split("/")
    )
    return method, pattern, handler


def _by_shape(routes: list[tuple]) -> dict[tuple[str, int], list[tuple]]:
    """(method, segment count) -> the (pattern, handler) of each route of
    that shape, in table order: only these can match such a request."""
    table: dict[tuple[str, int], list[tuple]] = {}
    for method, pattern, handler in routes:
        table.setdefault((method, len(pattern)), []).append((pattern, handler))
    return table


# Distinct (method, path) pairs ``_resolve`` keeps. One heartbeat round at a
# 3 000-app fleet sends about 12 000 distinct paths, and an LRU smaller than
# the set of paths it cycles through never hits, so the bound holds them all.
ROUTE_CACHE_SIZE = 2**14
# A longer path is resolved without the cache, so that no caller can make
# the cache hold more than ROUTE_CACHE_SIZE short strings. No route of a real
# id or name comes near it.
CACHED_PATH_LEN = 256


class RestApi:
    def __init__(self, service: RlaService) -> None:
        self.service = service

    # -- handlers --------------------------------------------------------

    def _register(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        cluster_id = self.service.register_cluster(
            str(body.get("external_ip", "")), str(body.get("domain", ""))
        )
        return 200, {"cluster_id": cluster_id}

    def _config(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        return 200, {"clusters": self.service.kb.cluster_config()}

    def _nodes(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        nodes = body.get("nodes")
        if not isinstance(nodes, list):
            raise ValidationFailed([{"field": "nodes", "error": "nodes list is required"}])
        ack = self.service.put_node_snapshot(params["cluster_id"], nodes)
        return 200, ack

    def _poll(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        return 200, {"applications": self.service.poll_applications(params["cluster_id"])}

    def _submit(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        app_id = self.service.submit_application(body)
        return 201, {"app_id": app_id}

    def _qos(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        return 200, self.service.update_qos(params["name"], body.get("qos"))

    def _delete(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        return 200, self.service.delete_application(params["name"])

    def _heartbeat(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        version = body.get("version")
        if type(version) is not int:  # a bool, a float or a string is not a version
            raise ValidationFailed([{"field": "version", "error": "version must be an integer"}])
        cluster_id, status = body.get("cluster_id"), body.get("status")
        # Not coerced: an unknown cluster gets the 404 that tells an agent to clean up.
        if type(cluster_id) is not str or type(status) is not str:
            field = "status" if type(cluster_id) is str else "cluster_id"
            raise ValidationFailed([{"field": field, "error": f"{field} must be a string"}])
        ok = self.service.heartbeat(
            params["app_id"], params["component"], cluster_id, version, status
        )
        if not ok:
            return 404, {"error": "not-found"}
        return 200, {"status": "ok"}

    def _status(self, params: Mapping[str, str], body: dict) -> tuple[int, dict]:
        return 200, self.service.status()

    # Parsed once for the class; a handler is called with the instance.
    _routes = [
        _route("POST", "clusters/register", _register),
        _route("GET", "clusters/config", _config),
        _route("POST", "clusters/{cluster_id}/nodes", _nodes),
        _route("GET", "clusters/{cluster_id}/applications", _poll),
        _route("POST", "applications", _submit),
        _route("PUT", "applications/{name}/qos", _qos),
        _route("DELETE", "applications/{name}", _delete),
        _route("POST", "applications/{app_id}/components/{component}/heartbeat", _heartbeat),
        _route("GET", "status", _status),
    ]
    _shapes = _by_shape(_routes)

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, method: str, path: str, body: object = None) -> tuple[int, dict]:
        resolve = _resolve if len(path) <= CACHED_PATH_LEN else _resolve.__wrapped__
        route = resolve(method, path)
        if route is None:
            return 404, {"error": "no-such-route", "path": path}
        handler, params = route
        return self._invoke(handler, params, {} if body is None else body)

    def _invoke(self, handler, params: Mapping[str, str], body: object) -> tuple[int, dict]:
        if not isinstance(body, dict):
            return 400, {"errors": [{"field": "body", "error": "body must be a JSON object"}]}
        try:
            return handler(self, params, body)
        except ValidationFailed as exc:
            return 400, {"errors": exc.errors}
        except NotFoundError as exc:
            return 404, {"error": str(exc)}
        except ConflictError as exc:
            return 409, {"error": str(exc)}
        except NotLeaderError as exc:
            if exc.leader_id is None:
                return 503, {"error": "no-leader"}
            return 307, {
                "error": "not-leader",
                "leader": exc.leader_id,
                "leader_address": self.service.config.peer_address(exc.leader_id),
            }
        except UnavailableError as exc:
            return 503, {"error": str(exc)}


@lru_cache(maxsize=ROUTE_CACHE_SIZE)
def _resolve(method: str, path: str) -> tuple[Callable, Mapping[str, str]] | None:
    """The handler of the first route that matches (method, path) and its
    parameters, read-only because every later request for the path gets the
    same mapping; None when no route matches. Empty segments (a leading,
    trailing or doubled slash) are dropped."""
    segments = path.strip("/").split("/")
    if "" in segments:
        segments = [s for s in segments if s]
    for pattern, handler in RestApi._shapes.get((method.upper(), len(segments)), ()):
        params: dict[str, str] = {}
        for (name, literal), actual in zip(pattern, segments):
            if name is not None:
                params[name] = actual
            elif literal != actual:
                break
        else:
            return handler, MappingProxyType(params)
    return None
