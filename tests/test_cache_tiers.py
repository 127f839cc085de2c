"""Tiered-cache tests: the CacheBackend contract, each tier's policy
(memo LRU, disk budget + quarantine cap, remote checksum/breaker), the
cache peer protocol, and the tier interactions the design promises —
promotion on hit, replay-validated ingest of remote bytes, and outage
degrading to a miss with identical fingerprints."""

import base64
import dataclasses
import socket
import zlib

import pytest

from repro.compiler import codec
from repro.compiler.config import CompilerConfig
from repro.faultinject import ScriptedDiskFaults, ScriptedPeerFaults
from repro.scheduling.events import Schedule
from repro.service import CachePeerThread, RemoteCache, RetryPolicy
from repro.sweep import (
    CompileCache,
    MemoryCache,
    SweepEngine,
    TieredCache,
    job_key,
    payload_checksum,
)
from repro.service import protocol
from repro.workloads import ising_2d, load_benchmark


@pytest.fixture(scope="module")
def compiled():
    """One compiled job: (circuit, config, key, result) shared read-only."""
    circuit, config = ising_2d(2), CompilerConfig(routing_paths=3)
    engine = SweepEngine()
    result = engine.compile(circuit, config)
    engine.shutdown()
    return circuit, config, job_key(circuit, config), result


def _keys(n):
    return [f"{i:064x}" for i in range(n)]


class TestMemoryCache:
    def test_lru_bound_evicts_oldest(self, compiled):
        *_, result = compiled
        memo = MemoryCache(limit=2)
        k1, k2, k3 = _keys(3)
        for key in (k1, k2, k3):
            memo.put_result(key, result)
        assert len(memo) == 2
        assert memo.get_result(k1) is None  # oldest gone
        assert memo.get_result(k3) is result  # no serialization round-trip
        assert memo.evictions == 1
        snap = memo.stats()
        assert snap["entries"] == 2 and snap["limit"] == 2

    def test_hit_refreshes_recency(self, compiled):
        *_, result = compiled
        memo = MemoryCache(limit=2)
        k1, k2, k3 = _keys(3)
        memo.put_result(k1, result)
        memo.put_result(k2, result)
        assert memo.get_result(k1) is result  # k1 becomes most recent
        memo.put_result(k3, result)  # so k2 is the LRU victim
        assert memo.get_result(k2) is None
        assert memo.get_result(k1) is result

    def test_discard_and_counters(self, compiled):
        *_, result = compiled
        memo = MemoryCache(limit=4)
        key = _keys(1)[0]
        memo.put_result(key, result)
        assert memo.discard(key) is True
        assert memo.discard(key) is False
        assert memo.get_result(key) is None
        assert memo.hits == 0 and memo.misses == 1 and memo.puts == 1


class TestDiskTier:
    def test_dict_contract_roundtrip(self, tmp_path, compiled):
        *_, key, result = compiled
        cache = CompileCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, codec.encode(result))
        assert cache.contains(key)
        restored = cache.get_result(key)
        assert restored.fingerprint() == result.fingerprint()
        snap = cache.stats()
        assert snap["stores"] == 1 and snap["evictions"] == 0

    def test_tier_stats_count_failed_and_successful_writes(
        self, tmp_path, compiled
    ):
        circuit, config, *_ = compiled
        faults = ScriptedDiskFaults()
        faults.arm(fail_writes=1)
        engine = SweepEngine(cache=CompileCache(tmp_path, faults=faults))
        engine.compile(circuit, config)
        failed = engine.tier_stats()["disk"]
        engine.compile(circuit, CompilerConfig(routing_paths=4))
        stored = engine.tier_stats()["disk"]
        engine.shutdown()
        # the same counters as the memo and remote tiers report
        assert {"puts", "errors", "rejected"} <= set(failed)
        assert failed["errors"] == failed["store_errors"] == 1
        assert failed["puts"] == 0
        assert stored["puts"] == 1 and stored["errors"] == 1

    def test_size_budget_evicts_oldest_first(self, tmp_path, compiled):
        *_, result = compiled
        payload = codec.encode(result)
        probe = CompileCache(tmp_path / "probe")
        probe.put(_keys(1)[0], payload)
        entry_size = sum(
            p.stat().st_size for p in (tmp_path / "probe").rglob("*.json")
        )
        assert entry_size > 0
        cache = CompileCache(tmp_path / "lru", size_budget=int(2.5 * entry_size))
        keys = _keys(5)
        for key in keys:
            cache.put(key, payload)
        assert len(cache) <= 2
        assert cache.stats()["evictions"] >= 3
        assert cache.contains(keys[-1])  # newest entry survives
        assert not cache.contains(keys[0])

    def test_pinned_entry_never_evicted(self, tmp_path, compiled):
        """An entry currently being served must survive budget eviction."""
        *_, result = compiled
        payload = codec.encode(result)
        cache = CompileCache(tmp_path, size_budget=1)  # everything over budget
        pinned, other = _keys(2)
        cache._pin(pinned)  # a read of this entry is in flight
        try:
            cache.put(pinned, payload)
            assert cache.contains(pinned)  # over budget, but pinned
            cache.put(other, payload)  # triggers eviction of all unpinned
            assert cache.contains(pinned)
            assert not cache.contains(other)
        finally:
            cache._unpin(pinned)
        cache.put(other, payload)  # unpinned now: evictable again
        assert not cache.contains(pinned)

    def test_quarantine_cap_trims_oldest(self, tmp_path, compiled):
        *_, result = compiled
        cache = CompileCache(tmp_path, quarantine_cap=3)
        for key in _keys(5):
            cache.quarantine_payload(key, codec.encode(result), reason="remote")
        files = list((tmp_path / "quarantine").glob("*.json"))
        assert len(files) == 3
        assert cache.stats()["quarantine_evictions"] == 2
        assert all(f.name.endswith(".remote.json") for f in files)


class TestCachePeer:
    def test_roundtrip_and_stats(self, tmp_path, compiled):
        *_, key, result = compiled
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            with RemoteCache(*peer.address) as remote:
                assert remote.ping()
                assert remote.get(key) is None
                remote.put_result(key, result)
                restored = remote.get_result(key)
                assert restored.fingerprint() == result.fingerprint()
                stats = remote.peer_stats()
                assert stats["entries"] == 1
                assert stats["requests"] >= 3
                assert stats["rejected_puts"] == 0

    def test_torn_upload_rejected(self, tmp_path, compiled):
        """A put whose checksum mismatches its payload must not land."""
        *_, key, result = compiled
        torn = bytearray(codec.encode(result))
        torn[-1] ^= 0xFF  # one flipped body byte: the digest no longer holds
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            host, port = peer.address
            request = {
                "op": "cache-put",
                "key": key,
                "blob": base64.b64encode(bytes(torn)).decode("ascii"),
            }
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(protocol.encode_line(request))
                reply = protocol.decode_line(sock.makefile("rb").readline())
            assert not reply["ok"]
            assert reply["error"]["code"] == protocol.E_BAD_REQUEST
            with RemoteCache(host, port) as remote:
                assert remote.get(key) is None
                assert remote.peer_stats()["rejected_puts"] == 1

    def test_bad_key_rejected(self, tmp_path):
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            host, port = peer.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(
                    protocol.encode_line({"op": "cache-get", "key": "../evil"})
                )
                reply = protocol.decode_line(sock.makefile("rb").readline())
            assert not reply["ok"]
            assert reply["error"]["code"] == protocol.E_BAD_REQUEST


class TestRemoteCounters:
    """What the remote tier counts: a put only when the peer stored it,
    an oversized frame as a named error that is never sent, a torn reply
    as ``corrupt``."""

    def test_failed_put_is_an_error_not_a_put(self, tmp_path, compiled):
        *_, key, result = compiled
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            address = peer.address
            with _fast_remote(*address) as remote:
                remote.put_result(key, result)
                assert remote.stats()["puts"] == 1
        # the peer is stopped now
        with _fast_remote(*address) as remote:
            remote.put_result(key, result)
            snap = remote.stats()
        assert snap["puts"] == 0
        assert snap["errors"] == 1

    def test_failed_peer_write_is_an_error_not_a_put(self, tmp_path, compiled):
        *_, key, result = compiled
        faults = ScriptedDiskFaults()
        faults.arm(fail_writes=1)
        with CachePeerThread(cache=CompileCache(tmp_path, faults=faults)) as peer:
            with RemoteCache(*peer.address) as remote:
                assert not remote.put(key, codec.encode(result))
                snap = remote.stats()
                assert snap["puts"] == 0
                assert snap["errors"] == 1
                assert remote.breaker_trips == 0  # the peer is healthy
                assert remote.put(key, codec.encode(result))  # budget spent
                assert remote.stats()["puts"] == 1
        assert faults.write_faults == 1

    def test_oversized_frame_is_counted_and_never_sent(
        self, tmp_path, compiled, monkeypatch
    ):
        *_, key, result = compiled
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            with RemoteCache(*peer.address) as remote:
                remote.put_result(key, result)
                snap = remote.stats()
                assert snap["too_large"] == 1
                assert snap["errors"] == 1
                assert snap["puts"] == 0
                assert remote.breaker_trips == 0  # the peer is healthy
                # the peer never saw the put: this stats call is request 1
                stats = remote.peer_stats()
        assert stats["requests"] == 1
        assert stats["entries"] == 0

    def test_torn_reply_counted_corrupt(self, tmp_path, compiled):
        *_, key, result = compiled
        faults = ScriptedPeerFaults()
        with CachePeerThread(cache=CompileCache(tmp_path), faults=faults) as peer:
            with RemoteCache(*peer.address) as remote:
                remote.put_result(key, result)
                faults.arm(corrupt_gets=1)
                assert remote.get(key) is None  # one flipped byte: rejected
                assert remote.stats()["corrupt"] == 1
                assert faults.corruptions == 1
                assert remote.get(key) == codec.encode(result)  # budget spent

    def test_undecodable_remote_entry_rejected(self, tmp_path, compiled):
        """Bytes whose digest holds but which decode to nothing are missed."""
        circuit, config, key, result = compiled
        body = zlib.compress(b"\x02\x00\x00\x00{}")
        junk = codec.MAGIC + payload_checksum(body).encode() + body
        peer_cache = CompileCache(tmp_path / "peer")
        peer_cache.put(key, junk)
        with CachePeerThread(cache=peer_cache) as peer:
            engine = SweepEngine(
                cache=CompileCache(tmp_path / "local"),
                remote=RemoteCache(*peer.address),
            )
            fresh = engine.compile(circuit, config)
            tiers = engine.tier_stats()
            engine.shutdown()
        assert fresh.fingerprint() == result.fingerprint()
        assert engine.counters.compiled == 1
        assert tiers["remote"]["rejected"] == 1
        assert tiers["remote"]["corrupt"] == 0  # the frame itself was intact

    @pytest.mark.slow
    def test_large_result_round_trips_through_a_live_peer(self, tmp_path):
        """A 16x16 Ising result (13 MB as JSON) fits one frame encoded."""
        circuit = ising_2d(16)
        config = CompilerConfig(routing_paths=4, num_factories=2)
        engine = SweepEngine()
        result = engine.compile(circuit, config)
        engine.shutdown()
        key = job_key(circuit, config)
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            with RemoteCache(*peer.address, timeout=30.0) as remote:
                remote.put_result(key, result)
                restored = remote.get_result(key)
                snap = remote.stats()
        assert snap["puts"] == 1 and snap["errors"] == 0
        assert restored is not None
        assert restored.fingerprint() == result.fingerprint()


def _dead_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _fast_remote(host, port, **kwargs):
    kwargs.setdefault("timeout", 0.2)
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=1, base_delay=0.0, max_delay=0.0)
    )
    return RemoteCache(host, port, **kwargs)


class TestTierInteractions:
    def test_remote_hit_promotes_to_disk_and_memo(self, tmp_path, compiled):
        circuit, config, key, result = compiled
        with CachePeerThread(cache=CompileCache(tmp_path / "peer")) as peer:
            with RemoteCache(*peer.address) as seeder:
                seeder.put_result(key, result)
            disk = CompileCache(tmp_path / "local")
            engine = SweepEngine(
                cache=disk, remote=RemoteCache(*peer.address)
            )
            first = engine.compile(circuit, config)
            assert first.fingerprint() == result.fingerprint()
            assert engine.counters.compiled == 0
            assert engine.counters.remote_hits == 1
            assert disk.contains(key)  # promoted to the disk tier
            # with the very bytes the peer stored: no decode-and-re-encode
            assert disk.get(key) == peer.peer.cache.get(key)
            engine.compile(circuit, config)
            assert engine.counters.memo_hits == 1  # and to the memo tier
            tiers = engine.tier_stats()
            assert tiers["remote"]["hits"] == 1
            assert tiers["memo"]["hits"] == 1
            engine.shutdown()

    def test_remote_hit_is_promoted_without_reencoding(
        self, tmp_path, compiled, monkeypatch
    ):
        circuit, config, key, result = compiled
        with CachePeerThread(cache=CompileCache(tmp_path / "peer")) as peer:
            with RemoteCache(*peer.address) as seeder:
                seeder.put_result(key, result)

            def no_encode(_result):
                raise AssertionError("a promoted hit was encoded again")

            monkeypatch.setattr(codec, "encode", no_encode)
            engine = SweepEngine(
                cache=CompileCache(tmp_path / "local"),
                remote=RemoteCache(*peer.address),
            )
            hit = engine.compile(circuit, config)
            engine.shutdown()
        assert engine.counters.remote_hits == 1
        assert hit.fingerprint() == result.fingerprint()

    def test_poisoned_remote_entry_rejected_and_quarantined(
        self, tmp_path, compiled
    ):
        circuit, config, key, result = compiled
        poisoned = dataclasses.replace(
            result, schedule=Schedule(result.schedule.ops[:-1])
        )  # one op short: replay validation must notice
        peer_cache = CompileCache(tmp_path / "peer")
        peer_cache.put(key, codec.encode(poisoned))  # checksum is consistent: only
        # replay validation can catch this
        with CachePeerThread(cache=peer_cache) as peer:
            disk = CompileCache(tmp_path / "local")
            engine = SweepEngine(
                cache=disk, remote=RemoteCache(*peer.address)
            )
            clean = engine.compile(circuit, config)
            # the poisoned entry was rejected, recompiled from scratch,
            # and the fingerprint is the clean one
            assert clean.fingerprint() == result.fingerprint()
            assert engine.counters.compiled == 1
            assert engine.counters.remote_hits == 0
            assert engine.tier_stats()["remote"]["rejected"] == 1
            quarantined = tmp_path / "local" / "quarantine" / f"{key}.remote.json"
            assert quarantined.is_file()
            engine.shutdown()

    def test_remote_outage_matches_no_remote_run(self, tmp_path, compiled):
        circuit, config, _, _ = compiled
        engine_down = SweepEngine(
            cache=CompileCache(tmp_path / "a"),
            remote=_fast_remote("127.0.0.1", _dead_port()),
        )
        engine_none = SweepEngine(cache=CompileCache(tmp_path / "b"))
        down = engine_down.compile(circuit, config)
        plain = engine_none.compile(circuit, config)
        assert down.to_dict() == plain.to_dict()
        assert engine_down.counters.compiled == 1
        assert engine_down.tier_stats()["remote"]["errors"] >= 1
        engine_down.shutdown()
        engine_none.shutdown()

    def test_breaker_skips_dead_peer_then_reprobes(self, compiled):
        *_, key, _ = compiled
        clock = {"now": 0.0}
        remote = _fast_remote(
            "127.0.0.1",
            _dead_port(),
            breaker_threshold=3,
            breaker_cooldown=5.0,
            sleep=lambda _s: None,
            clock=lambda: clock["now"],
        )
        for _ in range(3):
            assert remote.get(key) is None
        assert remote.breaker_trips == 1
        assert remote.get(key) is None  # breaker open: not even a connect
        assert remote.skipped == 1
        clock["now"] = 6.0  # cooldown elapsed: one probe goes through
        errors = remote.errors
        assert remote.get(key) is None
        assert remote.errors == errors + 1
        remote.close()

    def test_fill_and_promotion_serialize_once(self, compiled):
        """TieredCache encodes the result at most once per fill."""
        *_, key, result = compiled
        calls = {"n": 0}

        class Spy(MemoryCache):
            name = "spy"
            object_store = False

            def put_result(self, k, r, payload=None):
                assert payload is not None  # precomputed by the stack
                calls["n"] += 1
                super().put_result(k, r, payload)

        stack = TieredCache([MemoryCache(limit=4), Spy(limit=4), Spy(limit=4)])
        stack.fill(key, result)
        assert calls["n"] == 2
        hit = stack.lookup(key)
        assert hit is not None and hit[1] == "memo"


class TestStrategyIsolation:
    """The ``strategy`` knob must partition every cache tier: it changes
    the compiled schedule, so a hit recorded under one strategy must never
    be served to another."""

    def test_job_key_distinguishes_strategies(self, compiled):
        circuit, config, key, _ = compiled
        assert job_key(circuit, config.with_(strategy="balanced")) != key

    def test_config_fingerprint_includes_strategy(self, compiled):
        from repro.sweep.jobs import config_fingerprint

        _, config, *_ = compiled
        assert config_fingerprint(config) != config_fingerprint(
            config.with_(strategy="balanced")
        )

    def test_no_tier_cross_serves_between_strategies(self, tmp_path, compiled):
        """Warm memo, disk and remote under one strategy; the other
        strategy must compile fresh through the full stack."""
        circuit, config, _, _ = compiled
        with CachePeerThread(cache=CompileCache(tmp_path / "peer")) as peer:
            engine = SweepEngine(
                cache=CompileCache(tmp_path / "local"),
                remote=RemoteCache(*peer.address),
            )
            engine.compile(circuit, config)  # warms all three tiers
            assert engine.counters.compiled == 1
            engine.compile(circuit, config.with_(strategy="balanced"))
            assert engine.counters.compiled == 2  # no tier answered
            assert engine.counters.memo_hits == 0
            tiers = engine.tier_stats()
            assert tiers["disk"]["hits"] == 0
            assert tiers["remote"]["hits"] == 0
            # both entries now coexist: each strategy hits its own
            engine.compile(circuit, config)
            engine.compile(circuit, config.with_(strategy="balanced"))
            assert engine.counters.compiled == 2
            assert engine.counters.memo_hits == 2
            engine.shutdown()


class TestTierPathsOverTheFastMatrix:
    """Every resolution path of the tier stack, end to end over a live
    peer: remote hits, disk promotion, memo, and a dead peer — each must
    reproduce the seeding compile's fingerprints exactly."""

    def test_fleet_warms_from_one_seeded_peer(self, tmp_path):
        from repro.perf import bench_cases

        jobs = [
            (
                load_benchmark(case.workload),
                CompilerConfig(
                    routing_paths=case.routing_paths,
                    num_factories=case.num_factories,
                ),
            )
            for case in bench_cases(fast=True)
        ]

        def resolve(engine):
            return [engine.compile(c, cfg).fingerprint() for c, cfg in jobs]

        with CachePeerThread(cache=CompileCache(tmp_path / "peer")) as peer:
            seeder = SweepEngine(
                cache=CompileCache(tmp_path / "seed"),
                remote=RemoteCache(*peer.address),
            )
            reference = resolve(seeder)
            assert seeder.counters.compiled == len(jobs)
            seeder.shutdown()

            # a fresh engine with an empty disk: every case is a remote hit
            warm = SweepEngine(
                cache=CompileCache(tmp_path / "warm"),
                remote=RemoteCache(*peer.address),
            )
            assert resolve(warm) == reference
            assert warm.counters.compiled == 0
            assert warm.counters.remote_hits == len(jobs)
            warm.shutdown()

        # remote hits were promoted: the warmed disk alone serves every case
        disk = SweepEngine(cache=CompileCache(tmp_path / "warm"))
        assert resolve(disk) == reference
        assert disk.counters.disk_hits == len(jobs)
        assert disk.counters.compiled == 0
        # and the same engine again, entirely from its memo
        assert resolve(disk) == reference
        assert disk.counters.memo_hits == len(jobs)
        disk.shutdown()

        # the peer is gone: the outage degrades to misses, never errors
        down = SweepEngine(
            cache=CompileCache(tmp_path / "down"),
            remote=_fast_remote("127.0.0.1", _dead_port()),
        )
        assert resolve(down) == reference
        assert down.counters.compiled == len(jobs)
        down.shutdown()
