"""Client-side access to the RLA REST API.

``RlaClient`` speaks the route table and follows not-leader redirects;
reads are served by any replica. How one request travels is the ``send``
function it is built with: the deterministic engine dispatches straight
into ``RestApi`` instances, live mode posts over kept-alive HTTP
connections (``qonnect.harness.live.HttpSend``).
"""

from __future__ import annotations

from typing import Callable


class RlaClientError(Exception):
    """Transport failure, no leader, or an unexpected API response."""


class RlaClient:
    """Redirect-following REST client over the addresses of the RLAs.

    ``send(target, method, path, body)`` carries one request to one RLA and
    returns ``(status, payload)``; it raises ``RlaClientError`` when
    ``target`` cannot be reached.
    """

    _MAX_HOPS = 4

    def __init__(
        self, addresses: list[str], send: Callable[[str, str, str, dict | None], tuple[int, dict]]
    ) -> None:
        self._addresses = list(addresses)
        self._targets = list(addresses)  # in order of trial: the last that answered first
        self.send = send

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        # Fast path: the RLA that answered last answers again.
        if self._targets:
            target = self._targets[0]
            try:
                status, payload = self.send(target, method, path, body)
            except RlaClientError as exc:
                return self._try_others(method, path, body, target, str(exc))
            if status != 307 and status != 503:
                return status, payload
            return self._try_others(method, path, body, target, (status, payload))
        raise RlaClientError("no reachable RLA")

    def _try_others(
        self, method: str, path: str, body: dict | None, first: str, failed: str | tuple
    ) -> tuple[int, dict]:
        """Carry on after ``first`` failed, with a transport error's message or
        a 307 or 503 answer: a leader hint first, then the other RLAs in
        order. No RLA gets one request twice."""
        tried = {first}
        queue = self._targets[1:]
        hops = 1
        last_error = failed if isinstance(failed, str) else self._refused(*failed, tried, queue)
        while queue and hops < self._MAX_HOPS + len(queue):
            target = queue.pop(0)
            if target in tried:
                continue
            tried.add(target)
            hops += 1
            try:
                status, payload = self.send(target, method, path, body)
            except RlaClientError as exc:
                last_error = str(exc)
                continue
            if status == 307 or status == 503:
                last_error = self._refused(status, payload, tried, queue)
                continue
            self._targets = [target] + [a for a in self._addresses if a != target]
            return status, payload
        raise RlaClientError(last_error or "no reachable RLA")

    @staticmethod
    def _refused(status: int, payload: dict, tried: set[str], queue: list[str]) -> str:
        """The error a 307 or 503 answer stands for; a 307's leader hint goes
        to the front of ``queue`` unless it was tried."""
        if status == 307:
            hint = payload.get("leader_address")
            if hint and hint not in tried:
                queue.insert(0, hint)
            return "redirected to leader"
        return payload.get("error", "unavailable")

    def _expect(
        self, ok: int, failure: str, method: str, path: str, body: dict | None = None
    ) -> dict:
        """The payload of a call answered ``ok``; any other status raises
        ``RlaClientError`` naming ``failure``, the status and the payload."""
        status, payload = self._request(method, path, body)
        if status != ok:
            raise RlaClientError(f"{failure} ({status}): {payload}")
        return payload

    # -- API methods ------------------------------------------------------

    def register(self, external_ip: str, domain: str) -> str:
        return self._expect(
            200, "registration failed", "POST", "/clusters/register",
            {"external_ip": external_ip, "domain": domain},
        )["cluster_id"]

    def cluster_config(self) -> dict[str, str]:
        return self._expect(200, "config fetch failed", "GET", "/clusters/config")["clusters"]

    def put_nodes(self, cluster_id: str, nodes: list[dict]) -> dict:
        return self._expect(
            200, "node snapshot rejected", "POST", f"/clusters/{cluster_id}/nodes", {"nodes": nodes}
        )

    def poll_applications(self, cluster_id: str) -> list[dict]:
        return self._expect(
            200, "application poll failed", "GET", f"/clusters/{cluster_id}/applications"
        )["applications"]

    def heartbeat(
        self, app_id: str, component: str, cluster_id: str, version: int, status: str
    ) -> bool:
        code, payload = self._request(
            "POST",
            f"/applications/{app_id}/components/{component}/heartbeat",
            {"cluster_id": cluster_id, "version": version, "status": status},
        )
        if code == 404:
            return False
        if code != 200:
            raise RlaClientError(f"heartbeat failed ({code}): {payload}")
        return True

    def submit_application(self, bundle: dict) -> str:
        return self._expect(201, "submit failed", "POST", "/applications", bundle)["app_id"]

    def update_qos(self, name: str, qos: dict) -> dict:
        return self._expect(
            200, "qos update failed", "PUT", f"/applications/{name}/qos", {"qos": qos}
        )

    def delete_application(self, name: str) -> dict:
        return self._expect(200, "delete failed", "DELETE", f"/applications/{name}")
