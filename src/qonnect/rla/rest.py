"""REST route table over the RLA service.

``dispatch`` is transport-neutral: the HTTP server and the in-process
client both funnel through it, so route behavior is identical in live and
simulated deployments. Write endpoints answer 307 with a leader hint when
this replica is not the leader; config reads are served from local applied
state on any replica.
"""

from __future__ import annotations

from typing import Callable

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


class RestApi:
    def __init__(self, service: RlaService) -> None:
        self.service = service

    # -- handlers --------------------------------------------------------

    def _register(self, params: dict, body: dict) -> tuple[int, dict]:
        cluster_id = self.service.register_cluster(
            str(body.get("external_ip", "")), str(body.get("domain", ""))
        )
        return 200, {"cluster_id": cluster_id}

    def _config(self, params: dict, body: dict) -> tuple[int, dict]:
        return 200, {"clusters": self.service.cluster_config()}

    def _nodes(self, params: dict, body: dict) -> tuple[int, dict]:
        nodes = body.get("nodes")
        if not isinstance(nodes, list):
            raise ValidationFailed([{"field": "nodes", "error": "nodes list is required"}])
        ack = self.service.put_node_snapshot(params["cluster_id"], nodes)
        return 200, ack

    def _poll(self, params: dict, body: dict) -> tuple[int, dict]:
        return 200, {"applications": self.service.poll_applications(params["cluster_id"])}

    def _submit(self, params: dict, body: dict) -> tuple[int, dict]:
        app_id = self.service.submit_application(body)
        return 201, {"app_id": app_id}

    def _qos(self, params: dict, body: dict) -> tuple[int, dict]:
        return 200, self.service.update_qos(params["name"], body.get("qos"))

    def _delete(self, params: dict, body: dict) -> tuple[int, dict]:
        return 200, self.service.delete_application(params["name"])

    def _heartbeat(self, params: dict, body: dict) -> tuple[int, dict]:
        try:
            version = int(body.get("version", 0))
        except (TypeError, ValueError, OverflowError):
            raise ValidationFailed(
                [{"field": "version", "error": "version must be an integer"}]
            ) from None
        ok = self.service.heartbeat(
            app_id=params["app_id"],
            component=params["component"],
            cluster_id=str(body.get("cluster_id", "")),
            version=version,
            status=str(body.get("status", "")),
        )
        if not ok:
            return 404, {"error": "not-found"}
        return 200, {"status": "ok"}

    def _status(self, params: dict, body: dict) -> tuple[int, dict]:
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

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, method: str, path: str, body: object = None) -> tuple[int, dict]:
        segments = [s for s in path.split("/") if s]
        method = method.upper()
        for route_method, pattern, handler in self._routes:
            if route_method != method or len(pattern) != len(segments):
                continue
            params: dict[str, str] = {}
            for (name, literal), actual in zip(pattern, segments):
                if name is not None:
                    params[name] = actual
                elif literal != actual:
                    break
            else:
                return self._invoke(handler, params, {} if body is None else body)
        return 404, {"error": "no-such-route", "path": path}

    def _invoke(self, handler, params: dict, body: object) -> tuple[int, dict]:
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
