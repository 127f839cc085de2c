"""Concurrency, fairness and failure behaviour of the gateway.

Four properties from the production story, each pinned end-to-end:

* **Coalescing** — N clients racing on one content-addressed key cost
  the fleet exactly one compilation (one shard dispatch, one engine
  compile), and every client gets the identical result.
* **Fairness** — per-tenant token buckets mean a greedy tenant drains
  only its own allowance; a polite tenant is admitted throughout, and
  every 429 carries a usable ``Retry-After``.
* **Shard death** — a killed backend is a transparent remap while a
  healthy shard remains, a structured ``no-shards`` failure when none
  does, and a revived fleet serves the resubmitted key.  Never a hang.
* **Abuse** — malformed, oversized and slow-loris HTTP from raw sockets
  is answered with stable structured codes, and the gateway stays up.
"""

import json
import socket
import socketserver
import threading
import time

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.gateway import GatewayClient, GatewayCluster, GatewayError, GatewayThread, Keyring
from repro.service import Client as ServiceClient
from repro.service import protocol
from repro.service.client import RetryPolicy
from repro.sweep import job_key
from repro.workloads import load_benchmark

WORKLOAD = "ising_2d_2x2"

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


def fleet_compiles(cluster):
    """Total engine compilations across every backend shard."""
    total = 0
    for backend in cluster.backends:
        with ServiceClient(*backend.address) as probe:
            total += probe.stats()["engine"]["compiled"]
    return total


def shard_dispatches(client):
    stats = client.stats()
    return {shard["shard"]: shard["dispatched"] for shard in stats["shards"]}


def wait_for_healthy_shards(client, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        healthy = sum(
            1 for shard in client.stats()["shards"] if shard["healthy"]
        )
        if healthy >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"{count} healthy shards not reached in {timeout}s")


def key_for(workload, **overrides):
    return job_key(load_benchmark(workload), CompilerConfig(**overrides))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("gateway-herd")
    with GatewayCluster(
        shards=2, jobs=1, cache_dir=cache_dir, retry=FAST_RETRY
    ) as fleet:
        yield fleet


class TestCoalescing:
    def test_client_herd_on_one_key_costs_one_compilation(self, cluster):
        overrides = {"routing_paths": 3, "lookahead": False}
        with GatewayClient(*cluster.address) as probe:
            dispatched_before = sum(shard_dispatches(probe).values())
        compiled_before = fleet_compiles(cluster)

        results, errors = [], []

        def one_client():
            try:
                with GatewayClient(*cluster.address) as herd_client:
                    results.append(
                        herd_client.compile(workload=WORKLOAD, **overrides)
                    )
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        herd = [threading.Thread(target=one_client) for _ in range(10)]
        for thread in herd:
            thread.start()
        for thread in herd:
            thread.join(timeout=60)

        assert not errors
        assert len(results) == 10
        expected_key = key_for(WORKLOAD, **overrides)
        fingerprints = {
            json.dumps(payload["result"]["fingerprint"], sort_keys=True)
            for payload in results
        }
        assert {payload["status"] for payload in results} == {"done"}
        assert {payload["id"] for payload in results} == {expected_key}
        assert len(fingerprints) == 1
        # the whole herd cost the fleet exactly one compile
        assert fleet_compiles(cluster) == compiled_before + 1
        with GatewayClient(*cluster.address) as probe:
            dispatched_after = sum(shard_dispatches(probe).values())
        assert dispatched_after == dispatched_before + 1


class TestFairness:
    @pytest.fixture()
    def limited_gateway(self, tmp_path):
        """A rate-limited two-tenant gateway on a frozen token clock.

        The backend address is a dead port: admission decisions are made
        before any dispatch, so acceptance/shedding is fully observable
        without compiling anything.
        """
        clock = [0.0]
        keyring = Keyring({"key-greedy": "greedy", "key-polite": "polite"})
        with GatewayThread(
            backends=[("127.0.0.1", 1)],
            keyring=keyring,
            rate=5.0,
            burst=3.0,
            clock=lambda: clock[0],
            retry=FAST_RETRY,
            health_interval=0.05,
        ) as thread:
            yield thread, clock

    def test_greedy_tenant_cannot_starve_the_polite_one(self, limited_gateway):
        thread, clock = limited_gateway
        host, port = thread.address

        def submit(api_key, lookahead):
            with GatewayClient(host, port, api_key=api_key) as tenant_client:
                return tenant_client.submit(
                    workload=WORKLOAD, lookahead=lookahead
                )

        # greedy burns its whole burst...
        for _ in range(3):
            submit("key-greedy", True)
        # ...and every further request is 429 with a usable Retry-After
        for _ in range(5):
            with pytest.raises(GatewayError) as err:
                submit("key-greedy", True)
            assert err.value.status == 429
            assert err.value.code == "rate-limited"
            assert err.value.retry_after == pytest.approx(1.0 / 5.0)
        # the polite tenant's bucket is untouched: admitted throughout
        for _ in range(3):
            submit("key-polite", False)
        # refill honours the advertised Retry-After exactly
        clock[0] += 0.2
        submit("key-greedy", True)
        with pytest.raises(GatewayError):
            submit("key-greedy", True)

        with GatewayClient(host, port, api_key="key-polite") as stats_client:
            tenants = stats_client.stats()["gateway"]["tenants"]
        assert tenants["greedy"]["accepted"] == 4
        assert tenants["greedy"]["rate_limited"] == 6
        assert tenants["polite"]["accepted"] == 3
        assert tenants["polite"]["rate_limited"] == 0

    def test_unknown_key_is_401(self, limited_gateway):
        thread, _ = limited_gateway
        with GatewayClient(*thread.address, api_key="key-mallory") as bad:
            with pytest.raises(GatewayError) as err:
                bad.submit(workload=WORKLOAD)
        assert err.value.status == 401
        assert err.value.code == "unauthorized"


class TestShardDeath:
    @pytest.fixture()
    def fleet(self, tmp_path):
        with GatewayCluster(
            shards=2, jobs=1, cache_dir=tmp_path / "fleet", retry=FAST_RETRY,
            health_interval=0.05,
        ) as fleet:
            yield fleet

    def test_killed_target_shard_remaps_transparently(self, fleet):
        overrides = {"routing_paths": 4, "lookahead": False}
        key = key_for(WORKLOAD, **overrides)
        target = int(key[:16], 16) % 2
        direct = (
            FaultTolerantCompiler(CompilerConfig(**overrides))
            .compile(load_benchmark(WORKLOAD))
            .fingerprint()
        )
        fleet.kill_shard(target)
        with GatewayClient(*fleet.address) as client:
            payload = client.compile(
                workload=WORKLOAD, timeout=30, **overrides
            )
            dispatches = shard_dispatches(client)
        # transparent retry onto the surviving shard, result intact
        assert payload["status"] == "done"
        assert payload["result"]["fingerprint"] == direct
        assert dispatches[target] == 0
        assert dispatches[1 - target] == 1

    def test_kill_mid_flight_never_hangs(self, fleet):
        overrides = {"routing_paths": 5, "num_factories": 2}
        key = key_for(WORKLOAD, **overrides)
        target = int(key[:16], 16) % 2
        with GatewayClient(*fleet.address) as client:
            submitted = client.submit(workload=WORKLOAD, **overrides)
            # sever the owning shard while the job is (at most) in flight:
            # either the dispatch already finished, or the connection is
            # aborted and the router remaps — both must end terminal
            fleet.kill_shard(target)
            payload = client.wait(submitted["id"], timeout=30)
        assert payload["status"] == "done"

    def test_all_shards_down_is_a_structured_failure(self, fleet):
        fleet.kill_shard(0)
        fleet.kill_shard(1)
        overrides = {"routing_paths": 3, "num_factories": 2}
        with GatewayClient(*fleet.address) as client:
            payload = client.compile(
                workload=WORKLOAD, timeout=30, **overrides
            )
        # bounded, structured, never a hang
        assert payload["status"] == "failed"
        assert payload["error"]["code"] == "no-shards"

    def test_revived_fleet_serves_the_resubmitted_key(self, fleet):
        overrides = {"routing_paths": 3, "num_factories": 2}
        fleet.kill_shard(0)
        fleet.kill_shard(1)
        with GatewayClient(*fleet.address) as client:
            failed = client.compile(workload=WORKLOAD, timeout=30, **overrides)
            assert failed["status"] == "failed"
            fleet.revive_shard(0)
            fleet.revive_shard(1)
            wait_for_healthy_shards(client, 2)
            # resubmitting a failed key re-queues it from scratch
            payload = client.compile(workload=WORKLOAD, timeout=30, **overrides)
        assert payload["status"] == "done"
        assert payload["id"] == failed["id"]


class BrokenBackend:
    """A fake shard that answers ``ping`` but breaks every ``compile`` reply.

    ``torn``: half a reply line, then a hang-up.  ``long``: a line over
    ``MAX_LINE_BYTES`` (the shard itself is healthy).
    """

    def __init__(self, mode):
        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    if json.loads(line).get("op") == "ping":
                        self.wfile.write(protocol.encode_line({"ok": True}))
                        continue
                    reply = protocol.encode_line({"ok": True, "op": "compile"})
                    try:
                        if mode == "torn":
                            self.wfile.write(reply[: len(reply) // 2])
                        else:
                            self.wfile.write(b"x" * (protocol.MAX_LINE_BYTES + 1))
                    except OSError:
                        pass
                    return

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


class TestBrokenShardReply:
    """A broken shard reply ends the job ``failed`` with a named code,
    never leaves it ``dispatched``."""

    def run_job(self, mode):
        backend = BrokenBackend(mode)
        try:
            with GatewayThread(
                backends=[backend.server.server_address],
                retry=FAST_RETRY,
                health_interval=0.05,
            ) as thread:
                with GatewayClient(*thread.address) as client:
                    payload = client.compile(workload=WORKLOAD, timeout=10)
                    stats = client.stats()
        finally:
            backend.stop()
        return payload, stats

    def test_torn_reply_marks_the_shard_down(self):
        payload, stats = self.run_job("torn")
        assert payload["status"] == "failed"
        assert payload["error"]["code"] == "no-shards"
        assert stats["shards"][0]["failures"] >= 1
        assert stats["gateway"]["tenants"]["anonymous"]["failed"] == 1

    def test_over_long_reply_fails_the_job_and_keeps_the_shard(self):
        payload, stats = self.run_job("long")
        assert payload["status"] == "failed"
        assert payload["error"]["code"] == protocol.E_INTERNAL
        assert "reply too long" in payload["error"]["message"]
        assert stats["shards"][0]["healthy"]
        assert stats["shards"][0]["failures"] == 0
        assert stats["gateway"]["tenants"]["anonymous"]["failed"] == 1


class TestHttpAbuse:
    @pytest.fixture(scope="class")
    def gateway(self):
        """A bare gateway (dead backend) with a tight slow-loris bound."""
        with GatewayThread(
            backends=[("127.0.0.1", 1)],
            header_timeout=0.3,
            retry=FAST_RETRY,
            health_interval=0.05,
        ) as thread:
            yield thread

    def exchange(self, gateway, data, settle=0.0):
        """Send raw bytes, return (status, code) from the response."""
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(data)
            if settle:
                time.sleep(settle)
            chunks = []
            sock.settimeout(10)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        code = json.loads(body)["error"]["code"]
        return status, code

    def test_malformed_request_line(self, gateway):
        assert self.exchange(gateway, b"GARBAGE\r\n\r\n") == (
            400,
            "bad-request",
        )

    def test_malformed_header(self, gateway):
        assert self.exchange(
            gateway, b"GET /v1/ping HTTP/1.1\r\nnocolon\r\n\r\n"
        ) == (400, "bad-request")

    def test_oversized_body_is_413(self, gateway):
        request = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 9999999999\r\n\r\n"
        )
        assert self.exchange(gateway, request) == (413, "payload-too-large")

    def test_oversized_headers_are_431(self, gateway):
        padding = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"y" * 4000) for i in range(10)
        )
        request = b"GET /v1/ping HTTP/1.1\r\n" + padding + b"\r\n"
        assert self.exchange(gateway, request) == (431, "headers-too-large")

    def test_slow_loris_is_cut_off_with_408(self, gateway):
        # a partial request line and then silence: the gateway must
        # answer (not hang) once the header timeout expires
        assert self.exchange(gateway, b"GET /v1/pi") == (
            408,
            "request-timeout",
        )

    def test_unknown_endpoint_and_method(self, gateway):
        assert self.exchange(
            gateway, b"GET /v1/nope HTTP/1.1\r\nConnection: close\r\n\r\n"
        ) == (404, "not-found")
        assert self.exchange(
            gateway, b"DELETE /v1/jobs HTTP/1.1\r\nConnection: close\r\n\r\n"
        ) == (405, "bad-request")

    def test_unknown_job_id_is_404(self, gateway):
        with GatewayClient(*gateway.address) as client:
            with pytest.raises(GatewayError) as err:
                client.get("f" * 64)
        assert err.value.status == 404
        assert err.value.code == "not-found"

    @pytest.mark.parametrize("angle", ["9**9**9", "1e999"])
    def test_hostile_angle_is_400_before_dispatch(self, gateway, angle):
        source = f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n"
        started = time.perf_counter()
        with GatewayClient(*gateway.address) as client:
            with pytest.raises(GatewayError) as err:
                client.submit(qasm_source=source)
        assert time.perf_counter() - started < 2.0
        assert (err.value.status, err.value.code) == (400, "bad-circuit")

    def test_gateway_survives_the_abuse(self, gateway):
        with GatewayClient(*gateway.address) as client:
            assert client.ping()["ok"]
