"""What each ``RlaClient`` call sends, and the exact ``RlaClientError`` it
raises when the answer is not its success status.

A resource agent logs a failed duty's message in its ``*-skipped`` event,
so these texts reach ``events.jsonl``.
"""

from __future__ import annotations

import pytest

from qonnect.agent.client import RlaClient, RlaClientError

BUNDLE = {"name": "shop", "components": []}

# (method, arguments, request it sends, message on a 418 {"error": "x"})
CALLS = [
    ("register", ("10.0.0.1", "edge"),
     ("POST", "/clusters/register", {"external_ip": "10.0.0.1", "domain": "edge"}),
     "registration failed (418): {'error': 'x'}"),
    ("cluster_config", (),
     ("GET", "/clusters/config", None),
     "config fetch failed (418): {'error': 'x'}"),
    ("put_nodes", ("c1", [{"node_name": "w1"}]),
     ("POST", "/clusters/c1/nodes", {"nodes": [{"node_name": "w1"}]}),
     "node snapshot rejected (418): {'error': 'x'}"),
    ("poll_applications", ("c1",),
     ("GET", "/clusters/c1/applications", None),
     "application poll failed (418): {'error': 'x'}"),
    ("heartbeat", ("a1", "web", "c1", 2, "healthy"),
     ("POST", "/applications/a1/components/web/heartbeat",
      {"cluster_id": "c1", "version": 2, "status": "healthy"}),
     "heartbeat failed (418): {'error': 'x'}"),
    ("submit_application", (BUNDLE,),
     ("POST", "/applications", BUNDLE),
     "submit failed (418): {'error': 'x'}"),
    ("update_qos", ("shop", {"energy": 1.0}),
     ("PUT", "/applications/shop/qos", {"qos": {"energy": 1.0}}),
     "qos update failed (418): {'error': 'x'}"),
    ("delete_application", ("shop",),
     ("DELETE", "/applications/shop", None),
     "delete failed (418): {'error': 'x'}"),
]


def answering(status: int, sent: list) -> RlaClient:
    """A client of one RLA that answers every request ``status``, {"error": "x"}."""

    def send(target: str, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        sent.append((method, path, body))
        return status, {"error": "x"}

    return RlaClient(["rla-0"], send)


@pytest.mark.parametrize("method, args, request_, message", CALLS, ids=[c[0] for c in CALLS])
def test_an_unexpected_status_raises_the_calls_own_message(method, args, request_, message):
    sent: list = []
    with pytest.raises(RlaClientError) as raised:
        getattr(answering(418, sent), method)(*args)
    assert str(raised.value) == message
    assert sent == [request_]


def test_a_heartbeat_answered_404_returns_false():
    sent: list = []
    assert answering(404, sent).heartbeat("a1", "web", "c1", 2, "healthy") is False
    assert len(sent) == 1


def scripted(answers: dict, sent: list) -> RlaClient:
    """A client of RLAs ``a``, ``b`` and ``c``: each answers with its
    ``answers`` entry, or raises it if it is an ``RlaClientError``."""

    def send(target: str, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        sent.append(target)
        answer = answers[target]
        if isinstance(answer, RlaClientError):
            raise answer
        return answer

    return RlaClient(["a", "b", "c"], send)


def test_a_call_goes_on_past_unreachable_rlas_and_starts_at_the_one_that_answered():
    sent: list = []
    client = scripted(
        {
            "a": RlaClientError("a down"),
            "b": RlaClientError("b down"),
            "c": (200, {"clusters": {"c1": "c"}}),
        },
        sent,
    )
    assert client.cluster_config() == {"c1": "c"}
    assert sent == ["a", "b", "c"]
    sent.clear()
    assert client.cluster_config() == {"c1": "c"}
    assert sent == ["c"]


def test_a_call_follows_a_leader_hint_once_and_raises_the_last_error():
    sent: list = []
    client = scripted(
        {
            "a": (307, {"error": "not leader", "leader_address": "c"}),
            "c": (503, {"error": "c unavailable"}),
            "b": RlaClientError("b down"),
        },
        sent,
    )
    with pytest.raises(RlaClientError) as raised:
        client.cluster_config()
    assert str(raised.value) == "b down"
    assert sent == ["a", "c", "b"]
