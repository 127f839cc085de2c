"""Tests for the retrying service client (repro.service.client).

The backoff schedule is asserted with an injected fake sleep and a seeded
``random.Random`` — no test here ever waits on a real clock.  The fake
servers are tiny blocking TCP servers run on a thread, scripted to fail
in specific ways (error frames, mid-exchange hangups, refusing to start).
"""

import random
import socket
import socketserver
import threading

import pytest

from repro.service import Client, RetryPolicy, ServiceError, protocol


class FakeSleep:
    """Records requested delays instead of sleeping."""

    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


class ScriptedServer:
    """A blocking JSON-lines server answering from a scripted playbook.

    Each playbook entry handles one connection:
      ("replies", [frame, ...]) — answer that many requests, then close;
      ("close", n) — read n requests, then hang up without answering;
      ("torn", frame) — answer one request with half of ``frame``, then
      hang up (a reply torn mid-line).
    Once the playbook is exhausted every request gets ``ok`` replies.
    """

    def __init__(self, playbook):
        self.playbook = list(playbook)
        self.requests = 0
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                step = outer.playbook.pop(0) if outer.playbook else ("ok",)
                while True:
                    line = self.rfile.readline()
                    if not line:
                        return
                    outer.requests += 1
                    if step[0] == "replies":
                        if not step[1]:
                            return
                        self.wfile.write(protocol.encode_line(step[1].pop(0)))
                    elif step[0] == "torn":
                        data = protocol.encode_line(step[1])
                        self.wfile.write(data[: len(data) // 2])
                        return
                    elif step[0] == "close":
                        step = (step[0], step[1] - 1)
                        if step[1] < 0:
                            return  # hang up with the request unanswered
                    else:
                        self.wfile.write(
                            protocol.encode_line({"ok": True, "echo": True})
                        )

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        # a short poll: shutdown() in stop() waits out one poll interval
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.01},
            daemon=True,
        )
        self.thread.start()

    @property
    def address(self):
        return self.server.server_address

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


def error_frame(code, message="scripted failure"):
    return {"ok": False, "error": {"code": code, "message": message}}


def ok_frame():
    return {"ok": True, "echo": True}


@pytest.fixture
def fake_sleep():
    return FakeSleep()


def scripted_client(server, fake_sleep, **retry_kwargs):
    retry_kwargs.setdefault("attempts", 4)
    retry_kwargs.setdefault("base_delay", 0.05)
    return Client(
        *server.address,
        timeout=10.0,
        retry=RetryPolicy(**retry_kwargs),
        sleep=fake_sleep,
        rng=random.Random(42),
    )


class TestBackoffSchedule:
    def test_full_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0)
        rng = random.Random(0)
        for retry_index, ceiling in [(0, 0.1), (1, 0.2), (2, 0.4), (6, 1.0)]:
            for _ in range(50):
                delay = policy.delay(retry_index, rng)
                assert 0.0 <= delay <= ceiling

    def test_schedule_is_seed_deterministic(self):
        policy = RetryPolicy()
        a = [policy.delay(i, random.Random(7)) for i in range(4)]
        b = [policy.delay(i, random.Random(7)) for i in range(4)]
        assert a == b


class TestRetryOnErrorFrames:
    def test_overloaded_then_success(self, fake_sleep):
        server = ScriptedServer([
            ("replies", [error_frame(protocol.E_OVERLOADED),
                         error_frame(protocol.E_TIMEOUT),
                         ok_frame()]),
        ])
        try:
            with scripted_client(server, fake_sleep) as client:
                response = client.request({"op": "ping"})
            assert response["ok"]
            assert client.retried == 2
            assert len(fake_sleep.delays) == 2
            # exponential ceilings: retry 0 <= base, retry 1 <= 2*base
            assert fake_sleep.delays[0] <= 0.05
            assert fake_sleep.delays[1] <= 0.10
        finally:
            server.stop()

    def test_non_retryable_code_fails_fast(self, fake_sleep):
        server = ScriptedServer([
            ("replies", [error_frame(protocol.E_BAD_REQUEST)]),
        ])
        try:
            with scripted_client(server, fake_sleep) as client:
                with pytest.raises(ServiceError) as err:
                    client.request({"op": "ping"})
            assert err.value.code == protocol.E_BAD_REQUEST
            assert client.retried == 0
            assert fake_sleep.delays == []
        finally:
            server.stop()

    def test_budget_exhaustion_reraises_last_error(self, fake_sleep):
        frames = [error_frame(protocol.E_OVERLOADED) for _ in range(3)]
        server = ScriptedServer([("replies", frames)])
        try:
            with scripted_client(server, fake_sleep, attempts=3) as client:
                with pytest.raises(ServiceError) as err:
                    client.request({"op": "ping"})
            assert err.value.code == protocol.E_OVERLOADED
            assert client.retried == 2  # attempts=3 -> 2 retries
        finally:
            server.stop()

    def test_no_policy_means_fail_fast(self):
        server = ScriptedServer([
            ("replies", [error_frame(protocol.E_OVERLOADED)]),
        ])
        try:
            with Client(*server.address, timeout=10.0) as client:
                with pytest.raises(ServiceError):
                    client.request({"op": "ping"})
            assert client.retried == 0
        finally:
            server.stop()


class TestReconnect:
    def test_mid_exchange_hangup_reconnects(self, fake_sleep):
        server = ScriptedServer([
            ("close", 0),  # first connection: read one request, hang up
            ("replies", [ok_frame()]),
        ])
        try:
            with scripted_client(server, fake_sleep) as client:
                response = client.request({"op": "ping"})
            assert response["ok"]
            assert client.reconnects == 1
            assert client.retried == 1
        finally:
            server.stop()

    def test_torn_reply_is_retried_on_a_new_connection(self, fake_sleep):
        server = ScriptedServer([
            ("torn", ok_frame()),  # half a reply line, then hang up
            ("replies", [ok_frame()]),
        ])
        try:
            with scripted_client(server, fake_sleep, attempts=3) as client:
                response = client.request({"op": "ping"})
            assert response["ok"]
            assert client.reconnects == 1
            assert client.retried == 1
        finally:
            server.stop()

    def test_torn_reply_without_policy_is_a_connection_error(self):
        # a transport failure, not a bad-request blamed on the client
        server = ScriptedServer([("torn", ok_frame())])
        try:
            with Client(*server.address, timeout=10.0) as client:
                with pytest.raises(ConnectionError):
                    client.request({"op": "ping"})
        finally:
            server.stop()

    def test_hangup_without_policy_raises_connection_error(self):
        server = ScriptedServer([("close", 0)])
        try:
            with Client(*server.address, timeout=10.0) as client:
                with pytest.raises(ConnectionError):
                    client.request({"op": "ping"})
        finally:
            server.stop()

    def test_connection_refused_retried_then_raises(self, fake_sleep):
        # grab a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            Client(
                host, port, timeout=1.0,
                retry=RetryPolicy(attempts=3),
                sleep=fake_sleep, rng=random.Random(1),
            )
        # the constructor connect is not retried; no sleeps burned
        assert fake_sleep.delays == []
