"""Live deployment: the same components on wall-clock time and real HTTP.

Each RLA is one ``Replica`` served over one HTTP endpoint that carries
both the Raft transport (one route per request kind under ``/raft/``,
answering with the paired response message) and the REST control API.
Both travel on kept-alive stdlib connections (``Connections``). Resource
agents poll over HTTP; one member loop runs the ``Members`` round that the
engine runs too, every 0.1 s at the wall-clock time, so the simulated
clusters and their agents step by the engine's rules.
"""

from __future__ import annotations

import http.client
import json
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import quote

from qonnect import codec
from qonnect.agent.client import RlaClient, RlaClientError
from qonnect.events import EventLog
from qonnect.harness.testbed import Members, TestbedSpec
from qonnect.raft.messages import Message, REQUEST_KINDS, decode_message, encode_message
from qonnect.raft.node import RaftConfig, RaftNode
from qonnect.raft.replica import Replica
from qonnect.raft.storage import FileStorage
from qonnect.rla.config import RlaConfig
from qonnect.rla.rest import RestApi
from qonnect.rla.service import RlaService, UnavailableError


# Seconds an agent or CLI request waits for an RLA's answer.
_REQUEST_TIMEOUT = 8.0
# Seconds a Raft request waits for its peer's answer.
_RAFT_TIMEOUT = 2.0
# Seconds an RLA's handler waits for the next bytes of a request, far above
# any live duty period. A connection that sends nothing for this long (idle,
# or a body shorter than its Content-Length) is closed and frees its thread.
_HANDLER_TIMEOUT = 30.0


class Connections:
    """Idle kept-alive HTTP connections, per target (``host:port``).

    A call takes an idle connection or opens one, so concurrent callers
    never share a connection. The connection goes back only after a
    complete response that leaves it open; on a transport error it is
    closed and the error raised. Nothing is retried: a request whose reply
    was lost may have taken effect, and is never sent twice. So that no
    request goes out on a connection the server may have timed out, one
    idle for half of ``_HANDLER_TIMEOUT`` is closed instead of reused.
    """

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        # Target -> (connection, monotonic time it went idle), oldest first.
        self._idle: dict[str, list[tuple[http.client.HTTPConnection, float]]] = {}
        self._closed = False
        self._lock = threading.Lock()

    def request(self, target: str, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        """Send one request; its status and body. Raises ``OSError`` or
        ``http.client.HTTPException`` when ``target`` does not answer."""
        stale = []
        cutoff = time.monotonic() - _HANDLER_TIMEOUT / 2
        with self._lock:
            idle = self._idle.get(target, [])
            while idle and idle[0][1] < cutoff:
                stale.append(idle.pop(0)[0])
            conn = idle.pop()[0] if idle else None
        for old in stale:
            old.close()
        if conn is None:
            host, port = target.rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=self._timeout)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = response.read()
        except BaseException:  # the connection is mid-request: never reuse it
            conn.close()
            raise
        with self._lock:
            keep = not response.will_close and not self._closed
            if keep:
                self._idle.setdefault(target, []).append((conn, time.monotonic()))
        if not keep:
            conn.close()
        return response.status, payload

    def close(self) -> None:
        """Close every idle connection, and each busy one once its call ends."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn, _ in conns:
                conn.close()


class HttpSend(Connections):
    """The ``send`` of a live ``RlaClient``: carries one REST call to the
    RLA at ``target`` (host:port) over a kept-alive connection."""

    def __init__(self) -> None:
        super().__init__(_REQUEST_TIMEOUT)

    def __call__(self, target: str, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        try:
            data = None if body is None else json.dumps(body, allow_nan=False).encode("utf-8")
        except ValueError as exc:  # NaN or an infinity
            raise RlaClientError(f"body is not JSON: {exc}") from exc
        try:
            # Percent-encode only what a request line cannot carry (space,
            # control characters, non-ASCII): the server routes on the raw
            # path, so a name such as ``db:primary`` must arrive as it is.
            status, raw = self.request(target, method, quote(path, safe=string.punctuation), data)
        except (OSError, http.client.HTTPException) as exc:
            raise RlaClientError(f"{target} unreachable: {exc}") from exc
        try:
            payload = json.loads(raw)
        except ValueError:  # includes UnicodeDecodeError
            payload = {"error": raw.decode("utf-8", "replace")}
        return status, payload


class LiveRla:
    """One RLA process-equivalent: a replica served over HTTP.

    Threads: the HTTP server's handler threads serve REST calls and inbound
    Raft requests, and a send pool posts outbound Raft requests, on one
    kept-alive connection per peer, and hands their replies to the replica.
    The Raft tick thread only ticks the node and sends what it emits, so a
    slow commit cannot hold back heartbeats.
    The leader-work thread runs ``RlaService.pump`` (telemetry flush and
    scheduler pass). One lock, ``_lock``, guards the replica: the node, the
    KB and the service's queues and lease state. Every thread holds it while
    it touches them; a proposer waiting for its commit releases it.
    """

    TICK = 0.01

    def __init__(
        self,
        config: RlaConfig,
        raft: RaftConfig,
        events: EventLog | None = None,
    ) -> None:
        self._storage = FileStorage(config.data_dir) if config.data_dir else None
        self.node = RaftNode(raft, storage=self._storage)
        self.service = RlaService(config, node=self.node, events=events)
        self.replica = Replica(self.node, self.service)
        self.service.proposer = lambda raw: self.replica.propose(raw, self._await_commit)
        self.rest = RestApi(self.service)
        self.config = config

        self._lock = threading.RLock()
        self._commit_cond = threading.Condition(self._lock)
        # Peer -> its latest unsent request, or None while one is in flight.
        self._outbox: dict[int, Message | None] = {}
        self._outbox_lock = threading.Lock()
        self._send_pool = ThreadPoolExecutor(max_workers=len(raft.peers))
        self._peers = Connections(_RAFT_TIMEOUT)
        self._running = False
        self._threads: list[threading.Thread] = []

        host, port = config.peers[config.rla_id].rsplit(":", 1)
        try:
            self.server = ThreadingHTTPServer((host, int(port)), _RlaHandler)
        except BaseException:
            self._release()
            raise
        self.server.daemon_threads = True
        self.server.rla = self  # type: ignore[attr-defined]

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._running = True
        name = self.config.rla_id
        self._threads = [
            threading.Thread(target=self.server.serve_forever, name=f"rla-http-{name}"),
            threading.Thread(target=self._tick_loop, name=f"rla-tick-{name}"),
            threading.Thread(target=self._leader_loop, name=f"rla-leader-{name}"),
        ]
        for thread in self._threads:
            thread.daemon = True
            thread.start()

    def stop(self) -> None:
        self._running = False
        if self._threads:
            # ``shutdown`` waits for ``serve_forever``, which only ``start`` runs.
            self.server.shutdown()
        self.server.server_close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        with self._lock:  # a handler may still be writing the log
            self._release()

    def _release(self) -> None:
        """Free what the server does not own: the send pool, the peer
        connections and the log files."""
        self._send_pool.shutdown(wait=False, cancel_futures=True)
        self._peers.close()
        if self._storage is not None:
            self._storage.close()

    # -- raft plumbing ----------------------------------------------------

    def _tick_loop(self) -> None:
        while self._running:
            time.sleep(self.TICK)
            # One tick per wake-up, however late (as etcd's ticker drops the
            # ticks a slow receiver missed): a pause of the whole process, such
            # as a garbage collection, delays elections instead of starting them.
            with self._lock:
                outbound = self.node.tick(self.TICK)
            self._dispatch(outbound)

    def _leader_loop(self) -> None:
        while self._running:
            time.sleep(self.TICK)
            with self._lock:
                self.service.pump(time.time())

    def _dispatch(self, messages: list[Message]) -> None:
        """Queue requests to peers. Each peer has one request in flight and
        keeps only its latest unsent one: the node builds every request from
        its current state, and Raft tolerates losing the ones replaced, so a
        slow peer never builds up a backlog of stale heartbeats."""
        for msg in messages:
            if msg.kind not in REQUEST_KINDS:
                continue  # responses only travel as HTTP replies to inbound requests
            with self._outbox_lock:
                idle = msg.dst not in self._outbox
                self._outbox[msg.dst] = msg
            if idle:
                self._send_pool.submit(self._send_to, msg.dst)

    def _send_to(self, peer: int) -> None:
        """Post ``peer``'s latest request until none is left queued."""
        while True:
            with self._outbox_lock:
                msg = self._outbox[peer]
                if msg is None:
                    del self._outbox[peer]
                    return
                self._outbox[peer] = None
            try:
                self._post_message(msg)
            except BaseException:
                with self._outbox_lock:
                    del self._outbox[peer]  # the next request starts a new sender
                raise

    def _post_message(self, msg: Message) -> None:
        address = self.config.peer_address(msg.dst)
        if address is None or not self._running:
            return
        try:
            status, raw = self._peers.request(
                address, "POST", f"/raft/{msg.kind}", encode_message(msg).encode("utf-8")
            )
        except (OSError, http.client.HTTPException):
            return  # unreachable peer; raft retries by protocol
        if status != 200 or not raw:
            return
        try:
            self._handle_inbound(decode_message(raw.decode("utf-8")))
        except ValueError:  # includes UnicodeDecodeError
            return  # a malformed reply, or a snapshot the KB cannot load

    def _handle_inbound(self, msg: Message) -> Message | None:
        """Handle a message; returns the direct reply to msg.src, if any."""
        with self._lock:
            applied = self.node.last_applied
            messages = self.replica.handle(msg)
            if self.node.last_applied != applied:
                self._commit_cond.notify_all()
        self._dispatch(messages)
        # A node emits a response only to answer the request it handles.
        return next((out for out in messages if out.kind not in REQUEST_KINDS), None)

    def dispatch(self, method: str, path: str, body: object = None) -> tuple[int, dict]:
        """Serve one REST call under the replica lock, so a handler never
        reads the KB or its indexes mid-apply."""
        with self._lock:
            return self.rest.dispatch(method, path, body)

    def _await_commit(self, index: int, timeout: float = 5.0) -> None:
        """Send the entry at ``index`` and wait until it applies. The wait
        releases the replica lock (``Condition.wait`` releases an ``RLock``
        however deeply it is held), so commits apply and the other threads
        run meanwhile."""
        with self._commit_cond:
            self._dispatch(self.node.broadcast_append())
            deadline = time.monotonic() + timeout
            while self.node.last_applied < index:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._running:
                    raise UnavailableError("proposal did not commit in time")
                self._commit_cond.wait(timeout=min(0.05, remaining))


class _RlaHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # ``_respond`` writes the head and the body separately; with Nagle's
    # algorithm on, the body waits for the client's delayed ACK of the head
    # (about 40 ms) on every call of a kept-alive connection.
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:  # read by ``setup`` for each connection
        return _HANDLER_TIMEOUT

    def log_message(self, fmt: str, *args) -> None:  # quiet the default stderr spam
        pass

    def _body(self) -> bytes:
        """The request body; ``ValueError`` unless it is framed by no
        Transfer-Encoding and a Content-Length, if any, that is a
        non-negative integer."""
        if "Transfer-Encoding" in self.headers:
            raise ValueError("Transfer-Encoding is not supported; send a Content-Length")
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise ValueError(f"negative Content-Length: {length}")
        return self.rfile.read(length)

    def _respond(self, status: int, payload: bytes, headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _refuse(self, error: str) -> None:
        self._respond(400, json.dumps({"error": error}).encode("utf-8"))

    def _handle(self) -> None:
        rla: LiveRla = self.server.rla  # type: ignore[attr-defined]
        try:
            raw = self._body()
        except ValueError as exc:
            self.close_connection = True  # where the body ends is unknown
            self._refuse(f"bad framing: {exc}")
            return
        if not rla._running:
            # A client may hold a connection opened before ``stop``.
            self.close_connection = True
            self._respond(503, json.dumps({"error": "rla stopped"}).encode("utf-8"))
            return
        if self.path.startswith("/raft/") and self.command == "POST":
            try:
                # ``Replica.handle`` refuses a snapshot its KB cannot load
                # before the node sees it.
                reply = rla._handle_inbound(decode_message(raw.decode("utf-8")))
            except ValueError as exc:  # includes UnicodeDecodeError
                self._refuse(str(exc))
                return
            self._respond(200, encode_message(reply).encode("utf-8") if reply else b"")
            return
        body: dict | None = None
        if raw:
            try:
                body = codec.loads(raw.decode("utf-8"))
            except ValueError:  # includes UnicodeDecodeError
                self._refuse("invalid-json")
                return
        status, response = rla.dispatch(self.command, self.path, body)
        headers = {}
        if status == 307 and response.get("leader_address"):
            headers["Location"] = f"http://{response['leader_address']}{self.path}"
        self._respond(status, json.dumps(response).encode("utf-8"), headers)

    do_GET = do_POST = do_PUT = do_DELETE = _handle


class LiveDeployment:
    """Boots RLAs, clusters, and agents on real time; used by `qonnect up`.

    One member loop drives every cluster and its agent, so no other thread
    touches a cluster.
    """

    def __init__(
        self,
        spec: TestbedSpec | None = None,
        base_port: int = 7400,
        host: str = "127.0.0.1",
        data_root: str | None = None,
    ) -> None:
        self.spec = spec if spec is not None else TestbedSpec()
        self.events = EventLog()
        members = tuple(range(self.spec.rla_count))
        addresses = {i: f"{host}:{base_port + i}" for i in members}
        self.addresses = addresses
        self.rlas: dict[int, LiveRla] = {}
        try:
            for i in members:
                data_dir = f"{data_root}/rla-{i}" if data_root else None
                config = self.spec.rla_config(i, addresses, data_dir)
                self.rlas[i] = LiveRla(config, self.spec.raft_config(i), events=self.events)
        except BaseException:  # say, a port is taken: free the RLAs already built
            for rla in self.rlas.values():
                rla.stop()
            raise

        self._send = HttpSend()  # shared by every client: each call has its own connection
        self.members = Members(self.spec, self.client, self.events)
        self.clusters = self.members.clusters
        self.agents = self.members.agents
        self._running = False
        self._member_loop = threading.Thread(
            target=self._run_members, name="member-loop", daemon=True
        )

    def start(self) -> None:
        self._running = True
        for rla in self.rlas.values():
            rla.start()
        self._member_loop.start()

    def stop(self) -> None:
        self._running = False
        if self._member_loop.is_alive():
            self._member_loop.join(timeout=2.0)
        self._send.close()
        for rla in self.rlas.values():
            rla.stop()

    def _run_members(self) -> None:
        """Every 0.1 s, one ``Members`` round at the wall-clock time; a wall
        clock that steps back moves no cluster's clock back."""
        while self._running:
            time.sleep(0.1)
            self.members.step(time.time())

    def client(self) -> RlaClient:
        return RlaClient(list(self.addresses.values()), self._send)

    def wait_for_leader(self, timeout: float = 10.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for address in self.addresses.values():
                try:
                    status, body = self._send(address, "GET", "/status", None)
                except RlaClientError:
                    continue
                if status == 200 and body.get("role") == "leader":
                    return int(body["node_id"])
            time.sleep(0.1)
        raise TimeoutError("no RLA leader elected in time")
