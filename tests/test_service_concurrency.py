"""Service error paths under concurrency.

Three failure modes the single-connection tests in ``test_service.py``
cannot exercise: a thundering herd of clients shed with ``overloaded``,
a graceful drain landing in the middle of an in-flight request, and a
client speaking garbage at the newline-delimited protocol — each must
leave the server alive and answering for everyone else.
"""

import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import Client, ServiceError, ServiceThread, protocol

WORKLOADS = [
    "ising_2d_2x2",
    "heisenberg_2d_2x2",
    "fermi_hubbard_2d_2x2",
    "ising_2d_4x4",
]


class TestConcurrentOverload:
    def test_herd_of_distinct_jobs_all_shed_and_server_survives(self):
        # max_pending=0 sheds every cold compile deterministically, so a
        # concurrent burst must produce exactly one structured `overloaded`
        # error per request — never a hung client, never a dead server
        with ServiceThread(jobs=1, max_pending=0) as thread:
            host, port = thread.address

            def hit(workload: str) -> str:
                with Client(host, port) as client:
                    try:
                        client.compile(workload=workload, routing_paths=3)
                        return "ok"
                    except ServiceError as exc:
                        return exc.code

            with ThreadPoolExecutor(max_workers=len(WORKLOADS)) as pool:
                outcomes = list(pool.map(hit, WORKLOADS))

            assert outcomes == [protocol.E_OVERLOADED] * len(WORKLOADS)
            with Client(host, port) as client:
                assert client.ping()["ok"]
                stats = client.stats()
        assert stats["compile"]["overloaded"] == len(WORKLOADS)
        assert stats["compile"]["compiled"] == 0

    def test_shed_clients_can_retry_once_capacity_frees(self):
        # one slot: a request occupying it makes concurrent distinct jobs
        # shed; afterwards the same clients retry successfully
        with ServiceThread(jobs=1, max_pending=1) as thread:
            host, port = thread.address

            def hit(workload: str) -> str:
                with Client(host, port) as client:
                    try:
                        client.compile(workload=workload, routing_paths=3)
                        return "ok"
                    except ServiceError as exc:
                        return exc.code

            with ThreadPoolExecutor(max_workers=len(WORKLOADS)) as pool:
                first = list(pool.map(hit, WORKLOADS))
            # every outcome is a clean verdict, and nothing else leaked
            assert set(first) <= {"ok", protocol.E_OVERLOADED}
            assert "ok" in first  # the slot holder itself succeeded

            # sequential retries must all land now (and warm hits bypass
            # the pending bound entirely)
            retries = [hit(workload) for workload in WORKLOADS]
            assert retries == ["ok"] * len(WORKLOADS)


class TestDrainMidRequest:
    def test_inflight_request_completes_across_shutdown(self):
        thread = ServiceThread(jobs=1).start()
        host, port = thread.address
        with Client(host, port, timeout=120.0) as busy:
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(
                    busy.compile, workload="ising_2d_4x4", routing_paths=4
                )
                # wait for an observable signal that the request is in
                # flight (a sleep would race the server's frame read and
                # flake under CI load): `pending` counts distinct compiles
                # the broker has dispatched but not finished
                with Client(host, port) as watcher:
                    deadline = time.time() + 30
                    while time.time() < deadline:
                        if future.done() or watcher.stats()["pending"] >= 1:
                            break
                        time.sleep(0.01)
                    else:
                        raise AssertionError("compile never became visible")
                    watcher.shutdown()
                reply = future.result(timeout=90)
        # the drain waited for the in-flight compile instead of killing it
        assert reply.fingerprint["makespan"] > 0
        thread._thread.join(timeout=60)
        assert not thread._thread.is_alive()
        # and the listening socket is really gone
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()


class TestMalformedFrames:
    def _raw(self, address, payload: bytes) -> bytes:
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(payload)
            reader = sock.makefile("rb")
            return reader.readline()

    def test_garbage_line_is_structured_bad_request(self):
        with ServiceThread(jobs=1) as thread:
            line = self._raw(thread.address, b"this is not json\n")
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.E_BAD_REQUEST

            # non-object JSON is rejected the same way
            line = self._raw(thread.address, b"[1, 2, 3]\n")
            assert (
                json.loads(line)["error"]["code"] == protocol.E_BAD_REQUEST
            )

            # the server is unharmed for well-behaved clients
            with Client(*thread.address) as client:
                assert client.ping()["ok"]

    def test_half_frame_then_disconnect_leaves_server_alive(self):
        with ServiceThread(jobs=1) as thread:
            with socket.create_connection(thread.address, timeout=30) as sock:
                sock.sendall(b'{"op": "ping"')  # no newline, no close brace
            # abrupt disconnect mid-frame must not take the handler down
            with Client(*thread.address) as client:
                assert client.ping()["ok"]

    def test_binary_junk_across_many_connections(self):
        with ServiceThread(jobs=1) as thread:
            for payload in (b"\x00\xff\xfe\n", b"\n", b'"just a string"\n'):
                line = self._raw(thread.address, payload)
                if line:  # empty line = server hung up, also acceptable
                    assert json.loads(line)["ok"] is False
            with Client(*thread.address) as client:
                assert client.ping()["ok"]
