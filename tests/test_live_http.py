"""Live deployment over real HTTP: raft transport, REST API, full placement."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import UNDECODABLE_BATCH
from test_commands import REPEATED_SNAPSHOT

from qonnect.agent.client import RlaClientError
from qonnect.harness import live as live_module
from qonnect.harness.bookinfo import bookinfo_bundle
from qonnect.harness.live import Connections, LiveDeployment, LiveRla
from qonnect.harness.testbed import TestbedSpec
from qonnect.kb.commands import RegisterCluster, encode_command
from qonnect.kb.model import Domain
from qonnect.kb.store import KnowledgeBase
from qonnect.raft.messages import SnapshotRequest, VoteRequest, encode_message
from qonnect.raft.node import RaftConfig, Role
from qonnect.rla import service as service_module
from qonnect.rla.config import RlaConfig

# The Raft settings of a lone RLA (node 0 of three) served on its own.
LONE_NODE = RaftConfig(node_id=0, members=(0, 1, 2))


def free_port_base(count: int = 3) -> int:
    """A base port whose next ``count`` ports were all free just now."""
    for _ in range(50):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
        if base + count > 65536:
            continue
        sockets = [socket.socket() for _ in range(count)]
        try:
            for offset, sock in enumerate(sockets):
                sock.bind(("127.0.0.1", base + offset))
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
        return base
    raise RuntimeError("no run of free ports found")


def connect(address: str) -> http.client.HTTPConnection:
    host, port = address.rsplit(":", 1)
    return http.client.HTTPConnection(host, int(port), timeout=5.0)


def request(conn: http.client.HTTPConnection, method: str, path: str, data: str | None = None):
    """One request on ``conn``; its response, read to the end."""
    conn.request(method, path, body=None if data is None else data.encode("utf-8"))
    response = conn.getresponse()
    response.read()
    return response


def status_of(address: str, method: str, path: str, data: str | None = None) -> int:
    """The status of one request on a connection of its own."""
    conn = connect(address)
    try:
        return request(conn, method, path, data).status
    finally:
        conn.close()


def raw_response(
    address: str, head: str, body: bytes = b"", half_close: bool = False, timeout: float = 3.0
) -> tuple[int | None, bytes]:
    """Send one raw request on a connection of its own; the status line's
    code (None without one) and the response head, or what the server sent
    before it closed the connection. ``half_close`` shuts the sending side
    after the request, so a server waiting for more body reads its end. A
    server that neither answers nor closes within ``timeout`` raises
    ``TimeoutError``."""
    host, port = address.rsplit(":", 1)
    lines = [b""]
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        try:
            sock.sendall(head.encode("latin-1") + b"\r\n" + body)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            reply = sock.makefile("rb")
            lines = [reply.readline()]
            while lines[-1] not in (b"\r\n", b""):
                lines.append(reply.readline())
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server closed first: what it sent is in ``lines``
    status = int(lines[0].split()[1]) if lines[0].startswith(b"HTTP/") else None
    return status, b"".join(lines)


def fast_spec() -> TestbedSpec:
    spec = TestbedSpec(seed=3)
    spec.tick_period = 0.5
    spec.grace_period = 5.0
    spec.snapshot_staleness = 3.0
    spec.telemetry_flush = 0.2
    spec.ra_snapshot_period = 0.5
    spec.ra_poll_period = 0.5
    spec.ra_heartbeat_period = 1.0
    spec.rollout_latency = 0.5
    return spec


@pytest.fixture()
def live():
    deployment = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    deployment.start()
    try:
        yield deployment
    finally:
        deployment.stop()


def test_cli_submit_qos_delete_against_live_deployment(live, tmp_path):
    from qonnect.harness.bookinfo import bookinfo_bundle
    from support import bundle_to_yaml
    from qonnect.harness.cli import main

    live.wait_for_leader(timeout=15.0)
    rla = next(iter(live.addresses.values()))
    bundle_file = tmp_path / "bookinfo.yaml"
    bundle_file.write_text(bundle_to_yaml(bookinfo_bundle("cliapp")), encoding="utf-8")

    assert main(["submit", str(bundle_file), "--rla", rla]) == 0
    assert main(["qos", "cliapp", "1", "0", "0", "--rla", rla]) == 0
    assert main(["delete", "cliapp", "--rla", rla]) == 0
    # Withdrawn: a second delete fails at the API level.
    with pytest.raises(Exception):
        main(["delete", "cliapp", "--rla", rla])


def test_live_http_elects_leader_and_places_application(live):
    leader = live.wait_for_leader(timeout=15.0)
    client = live.client()

    # Clusters register over HTTP within a few agent periods.
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if len(client.cluster_config()) == 9:
            break
        time.sleep(0.2)
    assert len(client.cluster_config()) == 9

    app_id = client.submit_application(bookinfo_bundle("bookinfo"))
    assert app_id

    def placements() -> dict[str, str | None]:
        service = live.rlas[leader].service
        app = service.kb.live_application("bookinfo")
        if app is None:
            return {}
        return {
            c.name: (c.decision.cluster_id if c.decision else None) for c in app.components
        }

    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        placed = placements()
        if placed and all(v is not None for v in placed.values()):
            break
        time.sleep(0.2)
    placed = placements()
    assert placed and all(v is not None for v in placed.values())

    # Every placement is the performance cluster of the component's domain.
    by_ip = {}
    for name, cluster in live.clusters.items():
        by_ip[cluster.ingress_ip] = name
    config = client.cluster_config()
    hosts = {comp: by_ip[config[cid]] for comp, cid in placed.items()}
    assert hosts["productpage"] == "cloud-performance"
    assert hosts["details"] == "fog-performance"
    assert hosts["reviews"] == "fog-performance"
    assert hosts["ratings"] == "edge-performance"

    # The simulated clusters actually run the workloads.
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        workload = live.clusters["edge-performance"].workload_state("bookinfo", "ratings")
        if workload is not None and workload.phase == "Ready":
            break
        time.sleep(0.2)
    workload = live.clusters["edge-performance"].workload_state("bookinfo", "ratings")
    assert workload is not None and workload.phase == "Ready"
    # Placeholders were resolved before apply.
    assert "{{QONNECT" not in str(workload.env)


def test_the_live_log_holds_one_ready_event_per_placed_workload_from_its_host(live):
    live.wait_for_leader(timeout=15.0)
    bundle = bookinfo_bundle("bookinfo")
    components = [c["component"] for c in bundle["components"]]
    live.client().submit_application(bundle)

    def ready() -> set[tuple[str, str]]:
        """(cluster, workload) of every Ready bookinfo workload."""
        out = set()
        for name, cluster in live.clusters.items():
            for component in components:
                workload = cluster.workload_state("bookinfo", component)
                if workload is not None and workload.phase == "Ready":
                    out.add((name, component))
        return out

    def logged():
        return live.events.matching(kind="workload-ready")

    deadline = time.monotonic() + 40.0
    while time.monotonic() < deadline and (
        len(ready()) < len(components) or len(logged()) < len(components)
    ):
        time.sleep(0.1)
    assert len(ready()) == len(components)
    assert len(logged()) == len(components)
    assert {(e.source, e.detail["workload"]) for e in logged()} == ready()
    assert all(e.detail["namespace"] == "bookinfo" for e in logged())


def leader_status(live: LiveDeployment, timeout: float = 15.0) -> dict:
    """The ``/status`` body of the first RLA that reports itself leader."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for address in live.addresses.values():
            try:
                status, body = live._send(address, "GET", "/status", None)
            except RlaClientError:
                continue
            if status == 200 and body["role"] == "leader":
                return body
        time.sleep(0.1)
    raise TimeoutError("no RLA leader elected in time")


def test_a_write_to_a_follower_is_redirected_to_the_leader_by_its_location(live):
    leader = leader_status(live)
    address = live.addresses[leader["node_id"]]
    follower = next(i for i in live.addresses if i != leader["node_id"])
    deadline = time.monotonic() + 15.0
    while live.rlas[follower].service.node.leader_id != leader["node_id"]:
        assert time.monotonic() < deadline, "the follower never learned the leader"
        time.sleep(0.05)
    conn = connect(live.addresses[follower])
    try:
        conn.request("POST", "/applications", body=json.dumps(bookinfo_bundle("x")).encode())
        response = conn.getresponse()
        body = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 307
    assert body["leader_address"] == address
    assert response.getheader("Location") == f"http://{address}/applications"


def test_each_term_won_is_logged_once_by_the_rla_that_won_it():
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    live.start()
    try:
        # A leader logs its election before it answers ``/status`` as leader.
        first = leader_status(live)
        live.rlas[first["node_id"]].stop()
        second = leader_status(live)
    finally:
        live.stop()
    elections = live.events.matching(kind="leader-elected")
    terms = [e.detail["term"] for e in elections]
    assert len(set(terms)) == len(terms)  # one event per term won
    won = {e.detail["term"]: e.source for e in elections}
    assert won[first["term"]] == f"rla-{first['node_id']}"
    assert won[second["term"]] == f"rla-{second['node_id']}"
    assert second["term"] > first["term"]


def test_an_agent_that_raises_is_logged_and_the_other_agents_still_run(monkeypatch):
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    broken = "fog-cost"
    rounds: dict[float, list[str]] = {}

    def recorded(agent):
        run_due = agent.run_due

        def run(now: float) -> None:
            rounds.setdefault(now, []).append(agent.name)
            if agent.name == f"ra-{broken}":
                raise RuntimeError("disk on fire")
            run_due(now)

        return run

    for agent in live.agents.values():
        monkeypatch.setattr(agent, "run_due", recorded(agent))
    others = [agent for name, agent in live.agents.items() if name != broken]
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and not all(a.cluster_id for a in others):
            time.sleep(0.05)
    finally:
        live.stop()
    assert all(agent.cluster_id is not None for agent in others)  # they registered
    assert live.agents[broken].cluster_id is None
    errors = live.events.matching(kind="agent-error")
    assert errors
    for event in errors:
        assert event.source == f"ra-{broken}"
        assert event.detail == {"error": "RuntimeError('disk on fire')"}
    # Each round that logged an error and ended before the last round began
    # ran every agent, in order.
    ended = [event.at for event in errors if event.at < max(rounds)]
    assert ended
    for at in ended:
        assert rounds[at] == [agent.name for agent in live.agents.values()]


def thread_kind(thread: threading.Thread) -> str:
    """A thread's name without its RLA id or pool index."""
    if thread.name.endswith("(process_request_thread)"):
        return "rla-http handler"  # started by an RLA's ``rla-http`` thread
    if thread.name.startswith("ThreadPoolExecutor-"):
        return "send pool"
    return thread.name.rstrip("0123456789")


def test_a_live_deployment_starts_only_the_rla_threads_and_one_member_loop():
    before = set(threading.enumerate())
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and len(live.client().cluster_config()) < 9:
            time.sleep(0.1)
        kinds = sorted(thread_kind(t) for t in set(threading.enumerate()) - before)
    finally:
        live.stop()
    assert set(kinds) == {
        "rla-http-", "rla-tick-", "rla-leader-", "rla-http handler", "send pool", "member-loop",
    }
    for kind in ("rla-http-", "rla-tick-", "rla-leader-"):
        assert kinds.count(kind) == live.spec.rla_count
    assert kinds.count("member-loop") == 1


def test_an_unstarted_deployment_stops_at_once_and_frees_its_ports():
    base = free_port_base()
    live = LiveDeployment(spec=fast_spec(), base_port=base)
    stopper = threading.Thread(target=live.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=2.0)
    assert not stopper.is_alive(), "stop() of an unstarted deployment hangs"
    for port in range(base, base + live.spec.rla_count):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", port))


def test_a_deployment_whose_port_is_taken_frees_the_ports_it_bound():
    base = free_port_base()
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", base + 1))
        taken.listen()
        with pytest.raises(OSError):
            LiveDeployment(spec=fast_spec(), base_port=base)
    with socket.socket() as sock:  # no garbage collection needed first
        sock.bind(("127.0.0.1", base))


def test_a_stopped_deployment_closes_every_write_ahead_log(tmp_path):
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base(), data_root=str(tmp_path))
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
    finally:
        live.stop()
    assert all(rla.node.storage._wal.closed for rla in live.rlas.values())


def test_names_with_reserved_characters_route_over_http(live):
    """The server routes on the raw path, as the in-process API does, so a
    name with ``:`` or ``+`` reaches its application over HTTP too."""
    leader = live.wait_for_leader(timeout=15.0)
    client = live.client()
    bundle = bookinfo_bundle("shop+eu")
    details = next(c for c in bundle["components"] if c["component"] == "details")
    details["component"] = "db:primary"
    app_id = client.submit_application(bundle)

    def placed():
        app = live.rlas[leader].service.kb.live_application("shop+eu")
        comp = None if app is None else app.component("db:primary")
        return app, comp

    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        app, comp = placed()
        if comp is not None and comp.decision is not None:
            break
        time.sleep(0.2)
    app, comp = placed()
    assert comp is not None and comp.decision is not None
    assert client.heartbeat(
        app_id, "db:primary", comp.decision.cluster_id, app.version, "progressing"
    )
    assert client.delete_application("shop+eu")
    assert live.rlas[leader].service.kb.live_application("shop+eu") is None


def test_malformed_requests_get_400_and_the_server_keeps_serving(live):
    address = next(iter(live.addresses.values()))

    def post(path: str, data: str) -> int:
        return status_of(address, "POST", path, data)

    assert post("/raft/append-request", '{"v": 1, "kind": "append-request", "src": 0}') == 400
    assert post("/raft/vote-request", '[1, 2]') == 400
    assert post("/raft/vote-request", '"vote-request"') == 400
    assert post("/applications", '["bookinfo"]') == 400
    heartbeat = '{"cluster_id": "c", "version": "abc", "status": "healthy"}'
    assert post("/applications/a/components/c/heartbeat", heartbeat) == 400

    # A refusal that leaves the end of the body unknown closes the connection
    # and says so: the rest of the bytes are never read as the next request.
    for framing, body in (
        ("Content-Length: -1", b""),
        ("Content-Length: abc", b""),
        ("Transfer-Encoding: chunked", b"4\r\nGET \r\n0\r\n\r\n"),
    ):
        head = f"POST /applications HTTP/1.1\r\nHost: x\r\n{framing}\r\n"
        status, reply = raw_response(address, head, body)
        assert status == 400 and b"Connection: close" in reply, (framing, reply)
    nested = b"[" * 100_000
    head = f"POST /applications HTTP/1.1\r\nHost: x\r\nContent-Length: {len(nested)}\r\n"
    assert raw_response(address, head, nested)[0] == 400
    assert status_of(address, "GET", "/status") == 200


def _never_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# A request line's parts. No version is "HTTP/0.9", whose answers carry no
# status line; no path is a route that succeeds.
_METHODS = st.sampled_from(["POST", "PUT", "GET", "DELETE", "HEAD", "PATCH", "post", "P\x00ST"])
_PATHS = st.builds(
    lambda path, at, cut: path[:at] + cut + path[at:] if cut else path,
    st.sampled_from(["/applications", "/raft/append-request"]),
    st.integers(1, 12),
    st.sampled_from(
        ["", " ", "  ", "\t", "\r", "\n", "\x00", "\x01", "\x0b", "\x1f", "\x7f", "\xff"]
    ),
)
_VERSIONS = st.one_of(
    st.sampled_from(["HTTP/1.1", "HTTP/1.0"]),
    st.sampled_from(["HTTP/2.0", "HTTP/1.1.1", "HTTP/1", "HTTP/x.y", "HTTP/", "http/1.1",
                     "FTP/1.1", "HTTP/-1.1", "HTTP/1.99999999999"]),
    st.from_regex(r"HTTP/[0-9.]{0,5}", fullmatch=True).filter(lambda v: v != "HTTP/0.9"),
)
# Bodies that parse, any bytes, and bodies that are not UTF-8: UTF-16 JSON,
# or a stray 0xff.
_BODIES = st.one_of(
    st.sampled_from([b"", b"{}", b'{"qos": null}']),
    st.binary(max_size=48),
    st.sampled_from(['{"qos": {}}', '{"v": 1}']).map(lambda text: text.encode("utf-16")),
    st.binary(max_size=16).map(lambda b: b'{"a": "\xff' + b + b'"}'),
)
_HEADER_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=255), max_size=8)


@st.composite
def _framings(draw, body: bytes) -> list[str]:
    """Framing headers for ``body``: a Content-Length that is negative, not
    a number, duplicated or larger than the body, a Transfer-Encoding, or
    the body's own length."""
    kind = draw(st.sampled_from(["negative", "text", "twice", "long", "te"] + ["exact"] * 3))
    if kind == "negative":
        return [f"Content-Length: {draw(st.integers(max_value=-1))}"]
    if kind == "text":
        return [f"Content-Length: {draw(_HEADER_TEXT.filter(_never_an_int))}"]
    if kind == "twice":
        lengths = draw(st.lists(st.integers(0, len(body) + 4), min_size=2, max_size=2))
        return [f"Content-Length: {n}" for n in lengths]
    if kind == "long":
        return [f"Content-Length: {len(body) + draw(st.integers(1, 1000))}"]
    if kind == "te":
        name = draw(
            st.sampled_from(["Transfer-Encoding", "transfer-encoding", "TRANSFER-ENCODING"])
        )
        value = draw(st.sampled_from(["chunked", "Chunked", "gzip, chunked", "identity", ""]))
        extra = draw(st.sampled_from([[], [f"Content-Length: {len(body)}"]]))
        return [f"{name}: {value}", *extra]
    return [f"Content-Length: {len(body)}"]


# Content-Length framings ``int()`` would read a count from, refused by the
# grammar of one value of ASCII digits within the body limit.
_LAX_LENGTHS = [
    ["Content-Length: +2"],
    ["Content-Length: 1_0"],
    ["Content-Length:", " 2"],  # folded onto a second line: the value is "\r\n 2"
    ["Content-Length: 2", "Content-Length: 3"],
    ["Content-Length: 99999999999999999999999"],
]


def whole_response(address: str, head: str, body: bytes) -> bytes:
    """Everything the server sends to one raw request, up to its close."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=3.0) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        sock.shutdown(socket.SHUT_WR)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def test_fuzzed_framing_is_refused_and_the_server_keeps_serving():
    """Garbled request lines, framing and bodies sent to one live RLA. It
    never leads (a lone node of three), so no request draws a success: each
    gets a refusal or a closed connection, and then ``GET /status`` on a
    fresh connection answers 200. A refusal is a 4xx, 503, or the 501 and
    505 with which ``http.server`` refuses a method or version it does not
    serve. Every request half-closes, so none waits out ``_HANDLER_TIMEOUT``."""
    config = RlaConfig(rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"})
    address = config.peers[0]
    rla = LiveRla(config, LONE_NODE)
    rla.start()
    statuses: Counter = Counter()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_METHODS, _PATHS, _VERSIONS, _BODIES, st.data())
    def check(method, path, version, body, data):
        framing = data.draw(_framings(body))
        lines = [f"{method} {path} {version}", "Host: x", *framing]
        head = "".join(f"{line}\r\n" for line in lines)
        status, reply = raw_response(address, head, body, half_close=True, timeout=2.0)
        statuses[status] += 1
        if status is None:
            assert reply == b"", (head, body, reply)  # closed, with nothing sent
        else:
            assert 400 <= status < 500 or status in (501, 503, 505), (head, body, reply)
        assert status_of(address, "GET", "/status") == 200

    try:
        check()
        for framing in _LAX_LENGTHS:
            head = "".join(f"{line}\r\n" for line in ["POST /applications HTTP/1.1", *framing])
            reply = whole_response(address, head, b"{}")
            assert reply.startswith(b"HTTP/1.1 400 ") and b"bad framing" in reply, framing
        # The router's refusal, which the fuzz reached only through an empty
        # Content-Length: that is a framing refusal now.
        assert status_of(address, "GET", "/no-such-route") == 404
    finally:
        rla.stop()
    # Framing refusals, and those of ``http.server``.
    assert {400, 501, 505} <= set(statuses)


def test_committed_writes_answer_with_compaction_after_every_command(monkeypatch):
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    monkeypatch.setattr(service_module, "_COMPACT_EVERY", 1)  # snapshot after every command
    monkeypatch.setattr(service_module, "_COMPACT_RATIO", 0)
    live.start()
    try:
        leader = live.wait_for_leader(timeout=15.0)
        client = live.client()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and len(client.cluster_config()) < 9:
            time.sleep(0.2)
        address = live.addresses[leader]

        def submit(i: int) -> tuple[int, dict]:
            return client.send(address, "POST", "/applications", bookinfo_bundle(f"app{i}"))

        # Concurrent writes commit several entries at once, and every apply
        # compacts the log past the entries before it; each committed write
        # must still answer with its effect.
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(submit, range(12)))
        assert [status for status, _ in results] == [201] * 12, results
        assert any(e.kind == "log-compacted" for e in live.events.events)
    finally:
        live.stop()


def test_no_live_replica_counts_an_entry_whose_apply_raises(live):
    leader = live.rlas[live.wait_for_leader(timeout=15.0)]
    with leader._lock:
        bad = leader.node.propose(UNDECODABLE_BATCH)
        leader.node.propose(encode_command(RegisterCluster("10.9.9.9", Domain.EDGE, 1.0)))
        leader._dispatch(leader.node.broadcast_append())

    def committed_everywhere() -> bool:
        with ExitStack() as stack:
            for rla in live.rlas.values():
                stack.enter_context(rla._lock)
            return all(rla.node.commit_index > bad for rla in live.rlas.values())

    deadline = time.monotonic() + 10.0
    while not committed_everywhere():
        assert time.monotonic() < deadline, "the entries never committed on every replica"
        time.sleep(0.05)
    for rla in live.rlas.values():
        with rla._lock:
            assert rla.node.last_applied == bad - 1


def test_a_snapshot_the_kb_cannot_restore_is_refused_and_never_saved(tmp_path):
    config = RlaConfig(
        rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"}, data_dir=str(tmp_path)
    )
    kb = KnowledgeBase()
    kb.apply(RegisterCluster("10.0.0.1", Domain.EDGE, 1.0))
    good = kb.snapshot_state()

    def install(index: int, blob: str) -> int:
        # A term far above what a lone node reaches by timing out elections.
        msg = SnapshotRequest(src=1, dst=0, term=100, last_included_index=index,
                              last_included_term=100, state_blob=blob)
        return status_of(config.peers[0], "POST", f"/raft/{msg.kind}", encode_message(msg))

    rla = LiveRla(config, LONE_NODE)
    rla.start()
    try:
        assert install(5, good) == 200
        assert install(9, "not a snapshot") == 400
        assert install(9, '{"v": 1}') == 400
        # A v2 blob whose decision indexes past its node-list table.
        assert install(9, REPEATED_SNAPSHOT.replace('"node_list":1', '"node_list":2')) == 400
        assert rla.node.snapshot_index == 5
        assert rla.service.kb.snapshot_state() == good
    finally:
        rla.stop()
        rla.node.storage.close()

    restarted = LiveRla(config, LONE_NODE)  # from the same data directory
    try:
        assert restarted.node.snapshot_index == 5
        assert restarted.service.kb.snapshot_state() == good
    finally:
        restarted.server.server_close()
        restarted.node.storage.close()


def test_an_accepted_snapshot_is_parsed_once(monkeypatch):
    config = RlaConfig(rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"})
    kb = KnowledgeBase()
    kb.apply(RegisterCluster("10.0.0.1", Domain.EDGE, 1.0))
    restores: list[str] = []
    restore = KnowledgeBase.restore

    def counted(blob: str) -> KnowledgeBase:
        restores.append(blob)
        return restore(blob)

    monkeypatch.setattr(KnowledgeBase, "restore", counted)
    msg = SnapshotRequest(src=1, dst=0, term=100, last_included_index=5,
                          last_included_term=100, state_blob=kb.snapshot_state())
    rla = LiveRla(config, LONE_NODE)
    rla.start()
    try:
        path = f"/raft/{msg.kind}"
        assert status_of(config.peers[0], "POST", path, encode_message(msg)) == 200
        assert rla.node.snapshot_index == 5
    finally:
        rla.stop()
    assert restores == [msg.state_blob]


def test_a_stopped_rla_answers_503_on_a_connection_opened_before_stop():
    config = RlaConfig(rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"})
    rla = LiveRla(config, LONE_NODE)
    rla.start()
    conn = connect(config.peers[0])
    try:
        assert request(conn, "GET", "/status").status == 200
    finally:
        rla.stop()
    try:
        term = rla.node.current_term
        vote = VoteRequest(src=1, dst=0, term=term + 1, last_log_index=0, last_log_term=0)
        response = request(conn, "POST", f"/raft/{vote.kind}", encode_message(vote))
        assert response.status == 503 and response.will_close
        assert rla.node.current_term == term
    finally:
        conn.close()


def test_twenty_calls_on_one_kept_alive_connection_take_under_half_a_second():
    """With Nagle's algorithm on the server, each call of a kept-alive
    connection waits about 40 ms for the client's delayed ACK."""
    config = RlaConfig(rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"})
    rla = LiveRla(config, LONE_NODE)
    rla.start()
    conn = connect(config.peers[0])
    try:
        request(conn, "GET", "/status")
        start = time.perf_counter()
        statuses = [request(conn, "GET", "/status").status for _ in range(20)]
        elapsed = time.perf_counter() - start
        assert statuses == [200] * 20
        assert elapsed < 0.5, elapsed
    finally:
        conn.close()
        rla.stop()


def test_a_quiet_deployment_opens_no_new_connections(monkeypatch):
    """Raft peers, agents and clients keep their connections alive."""
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    accepted = {i: 0 for i in live.rlas}
    for i, rla in live.rlas.items():
        def counted(request, client_address, _process=rla.server.process_request, i=i):
            accepted[i] += 1
            return _process(request, client_address)

        monkeypatch.setattr(rla.server, "process_request", counted)
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        client = live.client()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and len(client.cluster_config()) < 9:
            time.sleep(0.2)
        time.sleep(2 * live.spec.ra_heartbeat_period)  # every agent has called every RLA it uses
        before = dict(accepted)
        time.sleep(3.0)
        assert accepted == before
    finally:
        live.stop()


def test_polls_answer_while_decisions_and_heartbeats_commit(monkeypatch):
    """REST reads of the KB run while commits apply on other threads."""
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    handler_errors: list[str] = []
    for rla in live.rlas.values():
        # The HTTP server reports an exception a handler thread raised here.
        monkeypatch.setattr(
            rla.server, "handle_error",
            lambda request, address: handler_errors.append(traceback.format_exc()),
        )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so reads overlap applies
    live.start()
    try:
        leader = live.wait_for_leader(timeout=15.0)
        client = live.client()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and len(client.cluster_config()) < 9:
            time.sleep(0.2)
        address = live.addresses[leader]
        cluster_ids = list(client.cluster_config())
        submitted = threading.Event()
        rla = live.rlas[leader]
        locked: list[bool] = []

        def poll_applications(cluster_id: str, _poll=rla.service.poll_applications):
            locked.append(rla._lock._is_owned())  # commits cannot apply meanwhile
            return _poll(cluster_id)

        monkeypatch.setattr(rla.service, "poll_applications", poll_applications)

        def poll() -> list[int]:
            statuses = []
            while not submitted.is_set():
                for cid in cluster_ids:
                    status, _ = client.send(address, "GET", f"/clusters/{cid}/applications", None)
                    statuses.append(status)
            return statuses

        with ThreadPoolExecutor(max_workers=4) as pool:
            polls = [pool.submit(poll) for _ in range(3)]
            try:
                # Each submit commits an app; scheduler passes commit its
                # decisions and the agents' heartbeats move it on.
                for i in range(24):
                    status, _ = client.send(
                        address, "POST", "/applications", bookinfo_bundle(f"app{i}")
                    )
                    assert status == 201
                time.sleep(2.0)
            finally:
                submitted.set()
            statuses = [s for future in polls for s in future.result(timeout=30.0)]
        assert statuses and set(statuses) == {200}, sorted(set(statuses))
        assert locked and all(locked)
        kinds = {e.kind for e in live.events.events}
        assert {"kb-decision-recorded", "kb-heartbeat-recorded"} <= kinds
        assert handler_errors == []
    finally:
        sys.setswitchinterval(interval)
        live.stop()


def test_writes_proposed_at_once_leave_every_replica_kb_equal():
    """REST proposals and the leader-work thread wait on their commits at
    the same time; the leader applies each from the object it proposed."""
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so proposals overlap
    live.start()
    try:
        leader = live.wait_for_leader(timeout=15.0)
        client = live.client()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and len(client.cluster_config()) < 9:
            time.sleep(0.2)
        address = live.addresses[leader]
        for i in range(4):
            status, _ = client.send(address, "POST", "/applications", bookinfo_bundle(f"app{i}"))
            assert status == 201
        weights = (
            {"energy": 1.0, "pricing": 0.0, "performance": 0.0},
            {"energy": 0.0, "pricing": 0.5, "performance": 0.5},
        )

        def update(i: int) -> list[int]:
            path = f"/applications/app{i % 4}/qos"
            return [client.send(address, "PUT", path, {"qos": weights[n % 2]})[0] for n in range(5)]

        with ThreadPoolExecutor(max_workers=6) as pool:
            updates = [pool.submit(update, i) for i in range(8)]
            statuses = [s for future in updates for s in future.result(timeout=60.0)]
        assert set(statuses) == {200}

        deadline = time.monotonic() + 10.0
        while True:  # compare the KBs at an index every replica has applied
            with ExitStack() as stack:
                for rla in live.rlas.values():
                    stack.enter_context(rla._lock)
                if len({rla.node.last_applied for rla in live.rlas.values()}) == 1:
                    kbs = [rla.service.kb for rla in live.rlas.values()]
                    assert all(kb == kbs[0] for kb in kbs)
                    break
            assert time.monotonic() < deadline, "replicas never applied the same index"
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
        live.stop()


def test_a_commit_slowed_past_the_election_timeout_leaves_the_term_unchanged(monkeypatch):
    """The leader's tick thread keeps heartbeating while its leader work
    waits on a slow commit that released the replica lock."""
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    live.start()
    try:
        rla = live.rlas[live.wait_for_leader(timeout=15.0)]
        slow = 2 * live.spec.election_timeout[1]
        propose, slowed = rla.service.proposer, []

        def slow_propose(entry):
            waiting = threading.Condition(rla._lock)
            with waiting:
                waiting.wait(slow)  # releases the lock, as a commit wait does
            slowed.append(entry)
            return propose(entry)

        terms = {i: r.node.current_term for i, r in live.rlas.items()}
        monkeypatch.setattr(rla.service, "proposer", slow_propose)
        deadline = time.monotonic() + 20.0
        while len(slowed) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        monkeypatch.undo()
        assert len(slowed) >= 3
        assert {i: r.node.current_term for i, r in live.rlas.items()} == terms
        assert rla.node.role == Role.LEADER
    finally:
        live.stop()


def test_a_pause_of_the_whole_process_starts_no_election():
    """Each wake-up of a tick thread is one tick, so a pause that stops every
    thread at once, as a garbage collection does, times out no follower."""
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        terms = {i: r.node.current_term for i, r in live.rlas.items()}
        start = time.perf_counter()
        sum(range(1_000_000))
        per_item = (time.perf_counter() - start) / 1_000_000
        for _ in range(3):
            # One C call holds the interpreter lock: no other thread runs
            # for twice the longest election timeout.
            sum(range(int(2 * live.spec.election_timeout[1] / per_item)))
            time.sleep(0.3)
        assert {i: r.node.current_term for i, r in live.rlas.items()} == terms
    finally:
        live.stop()


def test_the_scheduler_pass_runs_with_the_replica_lock_owned(monkeypatch):
    live = LiveDeployment(spec=fast_spec(), base_port=free_port_base())
    owned: list[bool] = []

    def scheduler_tick(*args, _tick=service_module.scheduler_tick, **kwargs):
        owned.append(any(r._lock._is_owned() for r in live.rlas.values()))
        return _tick(*args, **kwargs)

    monkeypatch.setattr(service_module, "scheduler_tick", scheduler_tick)
    live.start()
    try:
        live.wait_for_leader(timeout=15.0)
        deadline = time.monotonic() + 20.0
        while len(owned) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        live.stop()
    assert len(owned) >= 3 and all(owned)


def handler_threads() -> set[threading.Thread]:
    """The HTTP servers' request handler threads now running."""
    return {t for t in threading.enumerate() if t.name.endswith("(process_request_thread)")}


def test_idle_connections_and_short_bodies_release_their_handler_threads(monkeypatch):
    monkeypatch.setattr(live_module, "_HANDLER_TIMEOUT", 0.3)
    config = RlaConfig(rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"})
    rla = LiveRla(config, LONE_NODE)
    rla.start()
    host, port = config.peers[0].rsplit(":", 1)
    before = handler_threads()
    sockets = [socket.create_connection((host, int(port)), timeout=3.0) for _ in range(5)]
    try:
        for sock in sockets[3:]:  # a body shorter than its Content-Length
            sock.sendall(b"POST /applications HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{}")
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and len(handler_threads() - before) < 5:
            time.sleep(0.02)
        assert len(handler_threads() - before) == 5
        for sock in sockets:
            assert sock.recv(1) == b""  # the server closed it, answering nothing
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and handler_threads() - before:
            time.sleep(0.02)
        assert not handler_threads() - before
    finally:
        for sock in sockets:
            sock.close()
        rla.stop()


def test_a_connection_idle_for_half_the_server_timeout_is_not_reused(monkeypatch):
    monkeypatch.setattr(live_module, "_HANDLER_TIMEOUT", 0.4)
    config = RlaConfig(rla_id=0, peers={0: f"127.0.0.1:{free_port_base(1)}"})
    rla = LiveRla(config, LONE_NODE)
    accepted = []

    def counted(request, client_address, _process=rla.server.process_request):
        accepted.append(client_address)
        return _process(request, client_address)

    monkeypatch.setattr(rla.server, "process_request", counted)
    rla.start()
    connections = Connections(timeout=2.0)
    try:
        assert connections.request(config.peers[0], "GET", "/status", None)[0] == 200
        assert connections.request(config.peers[0], "GET", "/status", None)[0] == 200
        assert len(accepted) == 1  # kept alive
        time.sleep(0.6)  # the server has timed the idle connection out
        assert connections.request(config.peers[0], "GET", "/status", None)[0] == 200
        assert len(accepted) == 2  # on a new connection, not a retry
    finally:
        connections.close()
        rla.stop()
