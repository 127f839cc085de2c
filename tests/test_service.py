"""Tests for the compile service (repro.service).

Covers the wire protocol, the coalescing broker (deterministically, with
a hand-driven fake engine), and a real TCP server end-to-end: round-trip
fingerprint parity with direct compilation, duplicate-request coalescing,
the zero-compilation warm-cache path, validator rejections surfacing as
structured client errors, and overload shedding.
"""

import asyncio
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.service import (
    Client,
    CompileBroker,
    OverloadedError,
    ServiceError,
    ServiceThread,
)
from repro.service import protocol
from repro.sweep import CompileCache, job_key
from repro.workloads import load_benchmark

WORKLOAD = "ising_2d_2x2"


def tiny_circuit():
    return load_benchmark(WORKLOAD)


def tiny_config(**overrides):
    overrides.setdefault("routing_paths", 3)
    return CompilerConfig(**overrides)


# -- protocol ------------------------------------------------------------------


class TestProtocol:
    def test_line_roundtrip(self):
        message = {"op": "compile", "workload": WORKLOAD, "config": {"routing_paths": 3}}
        assert protocol.decode_line(protocol.encode_line(message)) == message

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_line(b"[1, 2]\n")
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_decode_rejects_bad_json(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.decode_line(b"{nope\n")
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_parse_compile_needs_exactly_one_source(self):
        for message in (
            {"op": "compile"},
            {"op": "compile", "workload": WORKLOAD, "qasm": "OPENQASM 2.0;"},
        ):
            with pytest.raises(protocol.ProtocolError) as err:
                protocol.parse_compile_request(message)
            assert err.value.code == protocol.E_BAD_REQUEST

    def test_parse_compile_unknown_workload(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.parse_compile_request({"op": "compile", "workload": "nope"})
        assert err.value.code == protocol.E_UNKNOWN_WORKLOAD

    def test_parse_compile_bad_qasm(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.parse_compile_request({"op": "compile", "qasm": "not qasm"})
        assert err.value.code == protocol.E_BAD_CIRCUIT

    @pytest.mark.parametrize(
        "statement",
        ["rz(9**9**9) q[0];", "rz(1e999) q[0];", "rx(1e999-1e999) q[1];", "cx q[1],q[1];"],
    )
    def test_parse_compile_hostile_qasm_is_bad_circuit(self, statement):
        source = f"OPENQASM 2.0;\nqreg q[2];\nh q[0];\n{statement}\n"
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.parse_compile_request({"op": "compile", "qasm": source})
        assert err.value.code == protocol.E_BAD_CIRCUIT

    def test_parse_compile_qasm_source(self):
        source = 'OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n'
        circuit, config, full = protocol.parse_compile_request(
            {"op": "compile", "qasm": source}
        )
        assert circuit.num_qubits == 2
        assert len(circuit) == 2
        assert config == CompilerConfig()
        assert full is False

    def test_parse_config_rejects_unknown_and_invalid_fields(self):
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.parse_config({"bogus": 1})
        assert err.value.code == protocol.E_BAD_CONFIG
        with pytest.raises(protocol.ProtocolError) as err:
            protocol.parse_config({"routing_paths": 0})
        assert err.value.code == protocol.E_BAD_CONFIG

    def test_config_fields_cover_requestable_knobs(self):
        config = protocol.parse_config(
            {"routing_paths": 6, "num_factories": 2, "mapping": "snake",
             "lookahead": False, "eliminate_redundant_moves": False,
             "compute_unit_cost_time": True}
        )
        assert config.routing_paths == 6
        assert config.num_factories == 2
        assert config.mapping == "snake"


class TestMetricsPrimitives:
    def test_percentiles_use_nearest_rank(self):
        from repro.service.batcher import LatencyWindow

        window = LatencyWindow()
        for value in (0.001, 0.002):
            window.add(value)
        assert window.percentile(0.50) == 0.001  # median of 2 = 1st smallest
        window = LatencyWindow()
        for value in range(1, 101):  # 1..100 ms
            window.add(value / 1000.0)
        assert window.percentile(0.50) == 0.050
        assert window.percentile(0.95) == 0.095
        assert LatencyWindow().percentile(0.5) is None

    def test_fingerprint_keys_match_canonical_field_list(self):
        from repro.compiler.result import FINGERPRINT_FIELDS

        result = FaultTolerantCompiler(tiny_config()).compile(tiny_circuit())
        assert tuple(result.fingerprint()) == FINGERPRINT_FIELDS


# -- broker (deterministic, fake engine) ---------------------------------------


class FakeEngine:
    """Hand-driven engine: cache misses, compile futures resolved by tests."""

    def __init__(self):
        self.submitted = []
        self.adopted = []
        self.cache = {}

    def cached_result(self, circuit, config, key=None):
        hit = self.cache.get(key)
        return None if hit is None else (hit, "memo")

    def submit(self, circuit, config):
        future = Future()
        self.submitted.append(future)
        return future

    def adopt(self, circuit, config, payload, key=None):
        self.adopted.append(key)
        return payload  # tests use sentinel payloads, not real results


class TestBroker:
    def test_duplicate_requests_coalesce_onto_one_compile(self):
        engine = FakeEngine()
        circuit, config = tiny_circuit(), tiny_config()

        async def scenario():
            broker = CompileBroker(engine, max_pending=4)
            first = asyncio.ensure_future(broker.resolve(circuit, config))
            # let the leader register its in-flight future and submit
            while not engine.submitted:
                await asyncio.sleep(0)
            second = asyncio.ensure_future(broker.resolve(circuit, config))
            # the second request keys on an executor thread; wait until it
            # has joined the in-flight future before completing the compile
            while broker.metrics.coalesced == 0:
                await asyncio.sleep(0.001)
            assert broker.pending == 1  # one distinct job in flight
            engine.submitted[0].set_result({"sentinel": True})
            return await asyncio.gather(first, second)

        (r1, s1, k1), (r2, s2, k2) = asyncio.run(scenario())
        assert len(engine.submitted) == 1  # the compile ran once
        assert (s1, s2) == ("compiled", "coalesced")
        assert r1 is r2
        assert k1 == k2 == job_key(circuit, config)

    def test_coalesce_during_cache_lookup_window(self):
        # the second identical request must coalesce even while the first
        # is still in its (awaited) cache lookup, before submit happens
        engine = FakeEngine()
        circuit, config = tiny_circuit(), tiny_config()

        async def scenario():
            broker = CompileBroker(engine, max_pending=4)
            first = asyncio.ensure_future(broker.resolve(circuit, config))
            await asyncio.sleep(0)  # leader registered, lookup dispatched
            second = asyncio.ensure_future(broker.resolve(circuit, config))
            while not engine.submitted or broker.metrics.coalesced == 0:
                await asyncio.sleep(0.001)
            engine.submitted[0].set_result({"sentinel": 1})
            results = await asyncio.gather(first, second)
            assert broker.metrics.coalesced == 1
            assert broker.metrics.compiled == 1
            return results

        (_, s1, _), (_, s2, _) = asyncio.run(scenario())
        assert sorted((s1, s2)) == ["coalesced", "compiled"]
        assert len(engine.submitted) == 1

    def test_overload_sheds_distinct_jobs_beyond_bound(self):
        engine = FakeEngine()
        circuit = tiny_circuit()
        config_a, config_b = tiny_config(), tiny_config(routing_paths=4)

        async def scenario():
            broker = CompileBroker(engine, max_pending=1)
            first = asyncio.ensure_future(broker.resolve(circuit, config_a))
            while not engine.submitted:
                await asyncio.sleep(0)
            with pytest.raises(OverloadedError):
                await broker.resolve(circuit, config_b)
            assert broker.metrics.overloaded == 1
            engine.submitted[0].set_result({"sentinel": 1})
            await first

        asyncio.run(scenario())
        assert len(engine.submitted) == 1

    def test_max_pending_zero_sheds_every_cold_compile(self):
        engine = FakeEngine()

        async def scenario():
            broker = CompileBroker(engine, max_pending=0)
            with pytest.raises(OverloadedError):
                await broker.resolve(tiny_circuit(), tiny_config())

        asyncio.run(scenario())
        assert not engine.submitted

    def test_cache_hit_resolves_without_submit(self):
        engine = FakeEngine()
        circuit, config = tiny_circuit(), tiny_config()
        key = job_key(circuit, config)
        engine.cache[key] = {"cached": True}

        async def scenario():
            broker = CompileBroker(engine, max_pending=0)  # hits bypass bound
            result, source, resolved_key = await broker.resolve(circuit, config)
            assert broker.metrics.memo_hits == 1
            return result, source, resolved_key

        result, source, resolved_key = asyncio.run(scenario())
        assert source == "memo"
        assert result == {"cached": True}
        assert resolved_key == key
        assert not engine.submitted

    def test_failed_compile_propagates_to_coalesced_waiter(self):
        engine = FakeEngine()
        circuit, config = tiny_circuit(), tiny_config()

        async def scenario():
            broker = CompileBroker(engine, max_pending=4)
            first = asyncio.ensure_future(broker.resolve(circuit, config))
            while not engine.submitted:
                await asyncio.sleep(0)
            second = asyncio.ensure_future(broker.resolve(circuit, config))
            # wait until the second request has actually coalesced (its
            # key computation runs on an executor thread) before failing
            # the shared compile
            while broker.metrics.coalesced == 0:
                await asyncio.sleep(0.001)
            engine.submitted[0].set_exception(RuntimeError("worker died"))
            for task in (first, second):
                with pytest.raises(RuntimeError, match="worker died"):
                    await task
            # the failed key must not be stuck: a retry submits again
            assert broker.pending == 0

        asyncio.run(scenario())


# -- end-to-end over TCP -------------------------------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One shared server (1 worker, fresh disk cache) for the module."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    with ServiceThread(jobs=1, cache=CompileCache(cache_dir)) as thread:
        yield thread


class TestServiceEndToEnd:
    def test_ping(self, service):
        with Client(*service.address) as client:
            reply = client.ping()
        assert reply["ok"] and reply["protocol"] == protocol.PROTOCOL_VERSION

    def test_round_trip_matches_direct_compilation(self, service):
        circuit, config = tiny_circuit(), tiny_config()
        direct = FaultTolerantCompiler(config).compile(circuit)
        with Client(*service.address) as client:
            reply = client.compile(workload=WORKLOAD, routing_paths=3, full=True)
        # the content-addressed key is byte-identical to a local one
        assert reply.key == job_key(circuit, config)
        # and so is the behavioural fingerprint
        assert reply.fingerprint == {
            "makespan": direct.schedule.makespan,
            "num_ops": len(direct.schedule),
            "num_moves": direct.schedule.num_moves,
            "stats": dict(direct.stats),
        }
        assert reply.summary["execution_time"] == direct.execution_time
        assert reply.result is not None
        assert reply.result.to_dict() == direct.to_dict()

    def test_warm_path_does_zero_compilations(self, service):
        with Client(*service.address) as client:
            cold = client.compile(workload=WORKLOAD, num_factories=2)
            before = client.stats()["engine"]["compiled"]
            warm = client.compile(workload=WORKLOAD, num_factories=2)
            after = client.stats()["engine"]["compiled"]
        assert warm.warm and warm.source == "memo"
        assert warm.key == cold.key
        assert warm.fingerprint == cold.fingerprint
        assert after == before  # zero compilations for the warm request

    def test_disk_cache_survives_server_restart(self, service):
        with Client(*service.address) as client:
            cold = client.compile(workload=WORKLOAD, routing_paths=4)
        # a brand-new server process state on the same cache directory
        with ServiceThread(
            jobs=1, cache=CompileCache(service.service.engine.cache.root)
        ) as fresh:
            with Client(*fresh.address) as client:
                warm = client.compile(workload=WORKLOAD, routing_paths=4)
                stats = client.stats()
        assert warm.source == "disk"
        assert warm.fingerprint == cold.fingerprint
        assert stats["engine"]["compiled"] == 0
        assert stats["compile"]["cache_hits"] == 1

    def test_concurrent_identical_requests_compile_once(self, service):
        config_kwargs = {"routing_paths": 3, "num_factories": 2}

        def one_request(_):
            with Client(*service.address) as client:
                return client.compile(workload=WORKLOAD, **config_kwargs).source

        with ThreadPoolExecutor(max_workers=6) as pool:
            sources = list(pool.map(one_request, range(6)))
        assert sources.count("compiled") == 1
        assert all(s in ("compiled", "coalesced", "memo", "disk") for s in sources)
        with Client(*service.address) as client:
            stats = client.stats()["compile"]
        # across the whole burst exactly one compilation happened
        assert stats["coalesced"] + stats["cache_hits"] >= 5

    def test_unknown_workload_is_structured_error(self, service):
        with Client(*service.address) as client:
            with pytest.raises(ServiceError) as err:
                client.compile(workload="not_a_workload")
        assert err.value.code == protocol.E_UNKNOWN_WORKLOAD

    def test_unknown_op_and_bad_json(self, service):
        with Client(*service.address) as client:
            with pytest.raises(ServiceError) as err:
                client.request({"op": "frobnicate"})
            assert err.value.code == protocol.E_BAD_REQUEST
            # raw garbage on the wire still yields a structured response
            client._sock.sendall(b"this is not json\n")
            line = client._reader.readline()
            stats = client.stats()
        response = json.loads(line)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_BAD_REQUEST
        # client-invented op names must not grow the metrics key space
        assert "frobnicate" not in stats["endpoints"]
        assert stats["endpoints"]["?"]["requests"] >= 2

    def test_request_id_is_echoed(self, service):
        with Client(*service.address) as client:
            reply = client.compile(
                workload=WORKLOAD, routing_paths=3, request_id="req-42"
            )
        assert reply.raw["id"] == "req-42"


class TestServiceOverload:
    def test_overload_surfaces_as_error_code(self):
        # max_pending=0 sheds every cold compile: deterministic overload
        with ServiceThread(jobs=1, max_pending=0) as thread:
            with Client(*thread.address) as client:
                with pytest.raises(ServiceError) as err:
                    client.compile(workload=WORKLOAD)
                stats = client.stats()
        assert err.value.code == protocol.E_OVERLOADED
        assert stats["compile"]["overloaded"] == 1


class TestServiceValidation:
    def test_corrupt_cache_entry_rejected_as_structured_error(self, tmp_path):
        # seed the on-disk cache with a tampered result for this exact job,
        # then ask a validating server for it: the replay validator must
        # reject the disk hit and the client must see the structured error
        circuit, config = tiny_circuit(), tiny_config()
        key = job_key(circuit, config)
        result = FaultTolerantCompiler(config).compile(circuit)
        ops = result.schedule.ops
        ops[0] = ops[0].shifted(-5.0)  # structure violation
        # encode (and so checksum) the tampered result so the entry passes
        # the cache's integrity layer — this test targets replay
        # validation, the layer that catches corruption the checksum
        # cannot (well-formed bytes, bad plan)
        from repro.compiler import codec

        CompileCache(tmp_path).put(key, codec.encode(result))

        with ServiceThread(
            jobs=1, cache=CompileCache(tmp_path), validate=True
        ) as thread:
            with Client(*thread.address) as client:
                with pytest.raises(ServiceError) as err:
                    client.compile(workload=WORKLOAD, routing_paths=3)
                stats = client.stats()
        assert err.value.code == protocol.E_VALIDATION
        assert err.value.details["ok"] is False
        assert any(
            v["code"] == "structure" for v in err.value.details["violations"]
        )
        assert stats["compile"]["validation_failures"] == 1

    def test_validating_server_serves_good_results(self, tmp_path):
        with ServiceThread(
            jobs=1, cache=CompileCache(tmp_path), validate=True
        ) as thread:
            with Client(*thread.address) as client:
                cold = client.compile(workload=WORKLOAD, routing_paths=3)
                warm = client.compile(workload=WORKLOAD, routing_paths=3)
        assert cold.source == "compiled"
        assert warm.warm


class TestServiceShutdown:
    def test_shutdown_op_drains_server(self):
        thread = ServiceThread(jobs=1).start()
        with Client(*thread.address) as client:
            client.compile(workload=WORKLOAD, routing_paths=3)
            client.shutdown()
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()

    def test_stats_shape(self):
        with ServiceThread(jobs=1) as thread:
            with Client(*thread.address) as client:
                client.ping()
                stats = client.stats()
        assert stats["cache"] is None
        assert stats["jobs"] == 1
        assert stats["endpoints"]["ping"]["requests"] == 1
        assert stats["endpoints"]["ping"]["p50_ms"] is not None
        assert stats["max_pending"] > 0
