"""Conformance of the two JSON-lines endpoints: the service and the cache peer.

Both serve through the one request loop of
:class:`repro.service.transport.LineEndpoint`, so the cases it owns —
``ping``, unknown ops, non-object lines, over-long lines and a refused
``shutdown`` — must read the same on either endpoint.
"""

import json
import socket

import pytest

from repro import __version__
from repro.service import CachePeerThread, ServiceThread, protocol
from repro.sweep import CompileCache


@pytest.fixture(scope="module", params=["service", "peer"])
def endpoint(request, tmp_path_factory):
    """One endpoint of each kind, with the ``shutdown`` op refused."""
    if request.param == "service":
        thread = ServiceThread(jobs=1, allow_shutdown=False)
    else:
        cache = CompileCache(tmp_path_factory.mktemp("peer-cache"))
        thread = CachePeerThread(cache=cache, allow_shutdown=False)
    with thread:
        yield thread


def exchange(address, data: bytes):
    """Send raw bytes on a fresh connection; (reply, the next line)."""
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(data)
        reader = sock.makefile("rb")
        reply = json.loads(reader.readline())
        try:  # EOF from our side; the endpoint answers with its own EOF
            sock.shutdown(socket.SHUT_WR)
            return reply, reader.readline()
        except ConnectionResetError:  # it hung up first, with input unread
            return reply, b""


def request(address, message):
    return exchange(address, protocol.encode_line(message))[0]


def test_ping_carries_version_and_protocol(endpoint):
    reply = request(endpoint.address, {"op": "ping"})
    assert reply == {
        "ok": True,
        "op": "ping",
        "version": __version__,
        "protocol": protocol.PROTOCOL_VERSION,
    }


@pytest.mark.parametrize(
    "line", [b'{"op": "frobnicate"}\n', b"[1, 2, 3]\n", b"not json\n"]
)
def test_unknown_op_and_non_object_lines_are_bad_requests(endpoint, line):
    reply, _ = exchange(endpoint.address, line)
    assert reply["ok"] is False
    assert reply["error"]["code"] == protocol.E_BAD_REQUEST


def test_over_long_line_is_refused_counted_and_closed(endpoint):
    blob = b"x" * (protocol.MAX_LINE_BYTES + 64) + b"\n"
    reply, after = exchange(endpoint.address, blob)
    assert reply["ok"] is False
    assert reply["error"]["code"] == protocol.E_BAD_REQUEST
    assert reply["error"]["message"] == "request line too long"
    assert after == b""  # the endpoint hung up on the abusive connection
    # ...and keeps serving everyone else, with the line counted
    stats = request(endpoint.address, {"op": "stats"})
    assert stats["protocol"] == protocol.PROTOCOL_VERSION
    assert stats["stats"]["too_large"] == 1


def test_shutdown_is_refused_when_not_allowed(endpoint):
    reply = request(endpoint.address, {"op": "shutdown"})
    assert reply["ok"] is False
    assert reply["error"]["code"] == protocol.E_BAD_REQUEST
    assert request(endpoint.address, {"op": "ping"})["ok"]
