"""Live deployment: the same components on wall-clock time and real HTTP.

Each RLA runs a Raft tick loop in a thread and serves one HTTP endpoint
that carries both the Raft transport (one route per request kind under
``/raft/``, answering with the paired response message) and the REST
control API. Resource agents poll over HTTP; simulated clusters advance on
a real-time stepper thread.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import requests

from qonnect.agent.client import RlaClientError, _RestClientBase
from qonnect.events import EventLog
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import Batch, KBCommand, encode_command
from qonnect.kb.store import Effect, KnowledgeBase
from qonnect.raft.messages import (
    AppendRequest,
    Message,
    REQUEST_KINDS,
    SnapshotRequest,
    VoteRequest,
    decode_message,
    encode_message,
)
from qonnect.raft.node import RaftNode
from qonnect.raft.storage import FileStorage
from qonnect.rla.config import RlaConfig
from qonnect.rla.rest import RestApi
from qonnect.rla.service import RlaService, UnavailableError
from qonnect.sim.cluster import SimCluster

_RESPONSE_FOR = {
    VoteRequest.kind: "vote-response",
    AppendRequest.kind: "append-response",
    SnapshotRequest.kind: "snapshot-response",
}


class HttpRlaClient(_RestClientBase):
    """REST client over real HTTP; addresses are host:port."""

    def __init__(self, addresses: list[str], timeout: float = 8.0) -> None:
        self._addresses = list(addresses)
        self._preferred: str | None = None
        self._timeout = timeout

    def _targets(self) -> list[str]:
        targets = list(self._addresses)
        if self._preferred in targets:
            targets.remove(self._preferred)
            targets.insert(0, self._preferred)
        elif self._preferred:
            targets.insert(0, self._preferred)
        return targets

    def _remember_leader(self, target: str) -> None:
        self._preferred = target

    def _dispatch(self, target: str, method: str, path: str, body: dict | None):
        try:
            response = requests.request(
                method,
                f"http://{target}{path}",
                json=body,
                timeout=self._timeout,
            )
        except requests.RequestException as exc:
            raise RlaClientError(f"{target} unreachable: {exc}") from exc
        try:
            payload = response.json()
        except ValueError:
            payload = {"error": response.text}
        return response.status_code, payload


class LiveRla:
    """One RLA process-equivalent: raft loop + HTTP server + service."""

    TICK = 0.01

    def __init__(
        self,
        config: RlaConfig,
        members: tuple[int, ...],
        events: EventLog | None = None,
    ) -> None:
        storage = FileStorage(config.data_dir) if config.data_dir else None
        self.node = RaftNode(config.raft_config(members), storage=storage)
        self.service = RlaService(
            config, node=self.node, kb=KnowledgeBase(), events=events or EventLog()
        )
        self.service.proposer = self._propose_and_wait
        self.rest = RestApi(self.service)
        self.config = config

        self._lock = threading.RLock()
        self._commit_cond = threading.Condition(self._lock)
        self._send_pool = ThreadPoolExecutor(max_workers=8)
        self._running = False
        self._loop_thread: threading.Thread | None = None

        host, port = config.listen_address.rsplit(":", 1)
        self.server = ThreadingHTTPServer((host, int(port)), _RlaHandler)
        self.server.daemon_threads = True
        self.server.rla = self  # type: ignore[attr-defined]
        self._server_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, name=f"rla-http-{self.config.rla_id}", daemon=True
        )
        self._server_thread.start()
        self._loop_thread = threading.Thread(
            target=self._loop, name=f"rla-loop-{self.config.rla_id}", daemon=True
        )
        self._loop_thread.start()

    def stop(self) -> None:
        self._running = False
        self.server.shutdown()
        self.server.server_close()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=2.0)
        self._send_pool.shutdown(wait=False, cancel_futures=True)

    # -- raft plumbing ----------------------------------------------------

    def _loop(self) -> None:
        last = time.monotonic()
        while self._running:
            time.sleep(self.TICK)
            now_mono = time.monotonic()
            dt, last = now_mono - last, now_mono
            with self._lock:
                outbound = self.node.tick(dt)
            self._dispatch(outbound)
            self.service.pump(time.time())

    def _dispatch(self, messages: list[Message]) -> None:
        for msg in messages:
            if msg.kind in REQUEST_KINDS:
                self._send_pool.submit(self._post_message, msg)
            # Response kinds only travel as HTTP replies to inbound requests.

    def _post_message(self, msg: Message) -> None:
        address = self.config.peer_address(msg.dst)
        if address is None or not self._running:
            return
        try:
            response = requests.post(
                f"http://{address}/raft/{msg.kind}",
                data=encode_message(msg),
                timeout=2.0,
            )
        except requests.RequestException:
            return  # unreachable peer; raft retries by protocol
        if response.status_code != 200 or not response.content:
            return
        try:
            reply = decode_message(response.text)
        except ValueError:
            return
        self._handle_inbound(reply)

    def _handle_inbound(self, msg: Message) -> Message | None:
        """Handle a message; returns the direct reply to msg.src, if any."""
        with self._lock:
            result = self.node.handle_message(msg)
            if result.snapshot_installed is not None:
                self.service.restore_from_snapshot(result.snapshot_installed)
            for index, command in result.committed:
                if command:  # skip leader no-op entries
                    self.service.apply_committed(index, command)
            if result.committed:
                self._commit_cond.notify_all()
        reply: Message | None = None
        rest: list[Message] = []
        expected = _RESPONSE_FOR.get(msg.kind)
        for out in result.messages:
            if reply is None and expected is not None and out.kind == expected and out.dst == msg.src:
                reply = out
            else:
                rest.append(out)
        self._dispatch(rest)
        return reply

    def dispatch(self, method: str, path: str, body: object = None) -> tuple[int, dict]:
        """Serve one REST call under the lock that commits apply under, so a
        handler never reads the KB or its indexes mid-apply. A write's wait
        for its commit releases the lock (``Condition.wait`` releases an
        ``RLock`` however deeply it is held)."""
        with self._lock:
            return self.rest.dispatch(method, path, body)

    def _propose_and_wait(self, entry: KBCommand | Batch, timeout: float = 5.0) -> list[Effect]:
        with self._lock:
            index = self.node.propose(encode_command(entry))
            term = self.node.current_term
            self.service.await_effects(index)
            outbound = self.node.broadcast_append()
        self._dispatch(outbound)
        deadline = time.monotonic() + timeout
        with self._commit_cond:
            while self.node.last_applied < index:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._running:
                    self.service.take_effects(index, term)  # stop waiting
                    raise UnavailableError("proposal did not commit in time")
                self._commit_cond.wait(timeout=min(0.05, remaining))
            effects = self.service.take_effects(index, term)
        if effects is None:
            raise UnavailableError("proposal was superseded by a new leader")
        return effects


class _RlaHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:  # quiet the default stderr spam
        pass

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _respond(self, status: int, payload: bytes, content_type: str, headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _handle(self, method: str) -> None:
        rla: LiveRla = self.server.rla  # type: ignore[attr-defined]
        if self.path.startswith("/raft/") and method == "POST":
            try:
                msg = decode_message(self._body().decode("utf-8"))
                if isinstance(msg, SnapshotRequest):
                    # Load the blob before the node installs and persists it:
                    # a snapshot the KB cannot restore must never replace the log.
                    KnowledgeBase.restore(msg.state_blob)
            except ValueError as exc:  # includes UnicodeDecodeError
                self._respond(400, json.dumps({"error": str(exc)}).encode(), "application/json")
                return
            reply = rla._handle_inbound(msg)
            payload = encode_message(reply).encode("utf-8") if reply else b""
            self._respond(200, payload, "application/json")
            return
        body: dict | None = None
        raw = self._body()
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._respond(400, b'{"error":"invalid-json"}', "application/json")
                return
        status, response = rla.dispatch(method, self.path, body)
        headers = {}
        if status == 307 and response.get("leader_address"):
            headers["Location"] = f"http://{response['leader_address']}{self.path}"
        self._respond(status, json.dumps(response).encode("utf-8"), "application/json", headers)

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_PUT(self) -> None:
        self._handle("PUT")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class _LockedCluster:
    """Serializes agent and stepper access to one SimCluster."""

    def __init__(self, cluster: SimCluster) -> None:
        self._cluster = cluster
        self._lock = threading.RLock()

    def __getattr__(self, name: str):
        attr = getattr(self._cluster, name)
        if not callable(attr):
            return attr
        def locked(*args, **kwargs):
            with self._lock:
                return attr(*args, **kwargs)
        return locked


class LiveDeployment:
    """Boots RLAs, clusters, and agents on real time; used by `qonnect up`."""

    def __init__(
        self,
        spec: TestbedSpec | None = None,
        base_port: int = 7400,
        host: str = "127.0.0.1",
        data_root: str | None = None,
    ) -> None:
        self.spec = spec if spec is not None else TestbedSpec.default()
        self.events = EventLog()
        members = tuple(range(self.spec.rla_count))
        addresses = {i: f"{host}:{base_port + i}" for i in members}
        self.addresses = addresses
        self.rlas: dict[int, LiveRla] = {}
        for i in members:
            data_dir = f"{data_root}/rla-{i}" if data_root else None
            config = self.spec.rla_config(i, addresses, data_dir)
            self.rlas[i] = LiveRla(config, members, events=self.events)

        self.clusters = {
            name: _LockedCluster(cluster) for name, cluster in self.spec.make_clusters().items()
        }
        self.agents = self.spec.make_agents(self.clusters, self.client, self.events)
        self._running = False
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        self._running = True
        for rla in self.rlas.values():
            rla.start()
        stepper = threading.Thread(target=self._step_clusters, name="cluster-stepper", daemon=True)
        agent_loop = threading.Thread(target=self._run_agents, name="agent-loop", daemon=True)
        self._threads = [stepper, agent_loop]
        stepper.start()
        agent_loop.start()

    def stop(self) -> None:
        self._running = False
        for thread in self._threads:
            thread.join(timeout=2.0)
        for rla in self.rlas.values():
            rla.stop()

    def _step_clusters(self) -> None:
        last = time.monotonic()
        while self._running:
            time.sleep(0.1)
            now_mono = time.monotonic()
            dt, last = now_mono - last, now_mono
            for cluster in self.clusters.values():
                if dt > 0:
                    cluster.step(dt)

    def _run_agents(self) -> None:
        while self._running:
            time.sleep(0.1)
            now = time.time()
            for name, agent in self.agents.items():
                if self.clusters[name].ra_alive:
                    try:
                        agent.run_due(now)
                    except Exception:
                        pass  # duty-level errors are already guarded; stay alive

    def client(self) -> HttpRlaClient:
        return HttpRlaClient(list(self.addresses.values()))

    def wait_for_leader(self, timeout: float = 10.0) -> int:
        client = self.client()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for address in self.addresses.values():
                try:
                    status, body = client._dispatch(address, "GET", "/status", None)
                except RlaClientError:
                    continue
                if status == 200 and body.get("role") == "leader":
                    return int(body["node_id"])
            time.sleep(0.1)
        raise TimeoutError("no RLA leader elected in time")
