"""Fault-path tests for the compile service, end-to-end over real TCP.

Worker death mid-compile (SIGKILL), retry-budget exhaustion surfacing as
structured ``compile-failed``/``timeout`` frames, request deadlines,
client disconnect cleanup, and the fault counters in ``stats`` — each
against a live :class:`~repro.service.ServiceThread` with a real
supervised pool underneath.
"""

import socket
import struct
import time

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.faultinject import ScriptedWorkerFaults
from repro.service import Client, RetryPolicy, ServiceError, ServiceThread, protocol
from repro.sweep import CompileCache
from repro.sweep.supervisor import FAULT_HANG, FAULT_KILL
from repro.workloads import load_benchmark

WORKLOAD = "ising_2d_2x2"
CONFIG = {"routing_paths": 3}


def direct_fingerprint():
    circuit = load_benchmark(WORKLOAD)
    result = FaultTolerantCompiler(CompilerConfig(**CONFIG)).compile(circuit)
    return result.fingerprint()


@pytest.fixture
def faulty_service():
    """A service whose worker faults the test scripts per scenario."""
    faults = ScriptedWorkerFaults()
    with ServiceThread(
        jobs=1,
        cache=None,
        job_deadline=0.75,
        job_attempts=3,
        worker_faults=faults,
    ) as thread:
        yield thread, faults


class TestWorkerDeath:
    def test_killed_worker_retried_fingerprint_identical(self, faulty_service):
        thread, faults = faulty_service
        faults.arm({0: (FAULT_KILL,)})  # SIGKILL mid first dispatch
        with Client(*thread.address, timeout=60.0) as client:
            reply = client.compile(workload=WORKLOAD, **CONFIG)
            assert reply.source == "compiled"
            assert reply.fingerprint == direct_fingerprint()
            stats = client.stats()
        assert faults.fired == 1
        assert stats["pool"]["crashes"] == 1
        assert stats["pool"]["retries"] == 1
        assert stats["pool"]["restarts"] >= 1

    def test_crash_budget_exhausted_is_compile_failed(self, faulty_service):
        thread, faults = faulty_service
        faults.arm({0: (FAULT_KILL,), 1: (FAULT_KILL,), 2: (FAULT_KILL,)})
        with Client(*thread.address, timeout=60.0) as client:
            with pytest.raises(ServiceError) as err:
                client.compile(workload=WORKLOAD, **CONFIG)
            assert err.value.code == protocol.E_COMPILE_FAILED
            assert err.value.details["attempts"] == 3
            assert err.value.details["cause"] == "worker-crashed"
            # the server is still serving: the same request now succeeds
            faults.disarm()
            reply = client.compile(workload=WORKLOAD, **CONFIG)
            assert reply.fingerprint == direct_fingerprint()
            stats = client.stats()
        assert stats["compile"]["compile_failures"] == 1

    def test_hang_budget_exhausted_is_timeout(self, faulty_service):
        thread, faults = faulty_service
        faults.arm({i: (FAULT_HANG, 30.0) for i in range(3)})
        with Client(*thread.address, timeout=60.0) as client:
            with pytest.raises(ServiceError) as err:
                client.compile(workload=WORKLOAD, **CONFIG)
            assert err.value.code == protocol.E_TIMEOUT
            assert err.value.details["attempts"] == 3
            stats = client.stats()
        assert stats["compile"]["timeouts"] == 1
        assert stats["pool"]["timeouts"] == 3


class TestDegradedLoad:
    """Sustained fresh compiles while workers are being killed: no request
    may be lost, no fingerprint may change, and the results must land in
    the cache so a resubmission costs no compile at all."""

    CONFIGS = [
        (workload, {"routing_paths": r, "num_factories": 1})
        for workload in ("ising_2d_2x2", "heisenberg_2d_2x2")
        for r in (3, 4, 5, 6)
    ]

    def test_kills_cost_no_requests_and_resubmits_hit_the_cache(self, tmp_path):
        faults = ScriptedWorkerFaults()
        faults.arm({2: (FAULT_KILL,), 6: (FAULT_KILL,)})
        with ServiceThread(
            jobs=2,
            cache=CompileCache(tmp_path),
            job_attempts=3,
            worker_faults=faults,
        ) as thread, Client(
            *thread.address,
            timeout=120.0,
            retry=RetryPolicy(attempts=3, base_delay=0.05),
        ) as client:
            for workload, config in self.CONFIGS:
                reply = client.compile(workload=workload, **config)
                direct = FaultTolerantCompiler(CompilerConfig(**config)).compile(
                    load_benchmark(workload)
                )
                assert reply.source == "compiled"
                assert reply.fingerprint == direct.fingerprint()
            stats = client.stats()
            assert faults.fired == 2
            assert stats["pool"]["crashes"] == 2
            assert stats["compile"]["compile_failures"] == 0
            compiled = stats["engine"]["compiled"]
            assert compiled == len(self.CONFIGS)

            for workload, config in self.CONFIGS:
                reply = client.compile(workload=workload, **config)
                assert reply.source in ("memo", "disk")
            assert client.stats()["engine"]["compiled"] == compiled


class TestRequestDeadline:
    def test_client_requested_timeout_expires(self, faulty_service):
        thread, faults = faulty_service
        # one long stall, well within the job's own attempt budget: the
        # *request* budget must fire first
        faults.arm({0: (FAULT_HANG, 30.0)})
        with Client(*thread.address, timeout=60.0) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client.compile(workload=WORKLOAD, timeout=0.3, **CONFIG)
            assert err.value.code == protocol.E_TIMEOUT
            assert time.monotonic() - start < 10.0
            # connection stays usable after a timeout error frame
            faults.disarm()
            assert client.ping()["ok"]

    def test_invalid_timeout_field_rejected(self, faulty_service):
        thread, _ = faulty_service
        with Client(*thread.address, timeout=30.0) as client:
            with pytest.raises(ServiceError) as err:
                client.compile(workload=WORKLOAD, timeout=-1.0, **CONFIG)
            assert err.value.code == protocol.E_BAD_REQUEST


class TestDisconnectCleanup:
    def _wait_stat(self, thread, getter, want, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if getter(thread.service.broker.metrics) >= want:
                return True
            time.sleep(0.01)
        return False

    def test_vanishing_client_is_counted_and_cleaned(self, faulty_service):
        thread, faults = faulty_service
        faults.arm({0: (FAULT_HANG, 30.0)})  # keep the request in flight
        frame = protocol.encode_line(
            protocol.compile_request(workload=WORKLOAD, config=CONFIG)
        )
        with socket.create_connection(thread.address, timeout=10.0) as sock:
            sock.sendall(frame)
            time.sleep(0.1)  # let the dispatch start
        # close() above = EOF mid-request
        assert self._wait_stat(thread, lambda m: m.disconnects, 1)
        assert self._wait_stat(thread, lambda m: m.abandoned, 1)
        # slots and waiters were released: the next request succeeds
        faults.disarm()
        with Client(*thread.address, timeout=60.0) as client:
            reply = client.compile(workload=WORKLOAD, **CONFIG)
            assert reply.fingerprint == direct_fingerprint()
        assert thread.service.broker.pending == 0

    def test_rst_mid_frame_keeps_server_alive(self, faulty_service):
        thread, _ = faulty_service
        frame = protocol.encode_line(
            protocol.compile_request(workload=WORKLOAD, config=CONFIG)
        )
        with socket.create_connection(thread.address, timeout=10.0) as sock:
            sock.sendall(frame[: len(frame) // 2])
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        with Client(*thread.address, timeout=30.0) as client:
            assert client.ping()["ok"]


class TestStatsPlumbing:
    def test_stats_report_pool_and_fault_sections(self, faulty_service):
        thread, _ = faulty_service
        with Client(*thread.address, timeout=60.0) as client:
            client.compile(workload=WORKLOAD, **CONFIG)
            stats = client.stats()
        pool = stats["pool"]
        for key in ("submitted", "completed", "crashes", "timeouts",
                    "retries", "requeues", "restarts", "recycles"):
            assert key in pool
        assert pool["submitted"] == 1
        assert pool["completed"] == 1
        assert stats["faults"] == {"disconnects": 0, "abandoned_jobs": 0}
