"""Crash-safety tests for the on-disk compile cache (repro.sweep.cache).

The cache must be an accelerator, never a liability: torn or tampered
entries are quarantined instead of served, injected I/O errors turn into
counted misses instead of request failures, and a failing store never
breaks the compile that tried to warm it.
"""

import os
import zlib

import pytest

from repro.compiler import codec
from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.faultinject import ScriptedDiskFaults
from repro.sweep import job_key
from repro.sweep.cache import (
    QUARANTINE_DIR,
    CompileCache,
    FaultInjector,
    payload_checksum,
)
from repro.workloads import load_benchmark

WORKLOAD = "ising_2d_2x2"


@pytest.fixture(scope="module")
def compiled():
    """One real (circuit, config, key, result) tuple, compiled once."""
    circuit = load_benchmark(WORKLOAD)
    config = CompilerConfig(routing_paths=3)
    result = FaultTolerantCompiler(config).compile(circuit)
    return circuit, config, job_key(circuit, config), result


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert cache.health() == {
            "hits": 1, "misses": 0, "stores": 1,
            "quarantined": 0, "read_errors": 0, "store_errors": 0,
        }

    def test_entry_carries_checksum(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.store(key, result)
        raw = (tmp_path / key[:2] / f"{key}.json").read_bytes()
        assert raw[:64] == key.encode()
        digest, body = codec.split(raw[64:])
        assert digest == payload_checksum(body)
        # the entry is exactly the encoded result, stored undecoded
        assert raw[64:] == codec.encode(result)
        assert cache.get(key) == raw[64:]

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1
        assert cache.read_errors == 0
        assert cache.quarantined == 0

    def test_no_tmp_droppings_after_store(self, tmp_path, compiled):
        _, _, key, result = compiled
        CompileCache(tmp_path).store(key, result)
        assert list(tmp_path.rglob("*.tmp")) == []


class TestQuarantine:
    def _stored(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.store(key, result)
        return cache, key, tmp_path / key[:2] / f"{key}.json"

    def test_truncated_entry_quarantined(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIR / path.name).exists()
        # the corruption cannot be re-hit: next lookup is a clean miss
        assert cache.load(key) is None
        assert cache.quarantined == 1

    def test_checksum_mismatch_quarantined(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # one flipped body byte: stale checksum now
        path.write_bytes(bytes(raw))
        assert cache.get(key) is None  # the undecoded read checks it too
        assert cache.quarantined == 1
        assert (tmp_path / QUARANTINE_DIR / path.name).exists()

    def test_wrong_key_quarantined(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        other = "f" * len(key)
        other_path = tmp_path / other[:2] / f"{other}.json"
        other_path.parent.mkdir(parents=True, exist_ok=True)
        # right checksum, wrong address
        other_path.write_bytes(path.read_bytes())
        assert cache.load(other) is None
        assert cache.quarantined == 1

    def test_undecodable_body_quarantined(self, tmp_path, compiled):
        """A body whose checksum holds but which is no encoded result."""
        cache, key, path = self._stored(tmp_path, compiled)
        body = zlib.compress(b"\x05\x00\x00\x00junk!")
        path.write_bytes(
            key.encode() + codec.MAGIC + payload_checksum(body).encode() + body
        )
        assert cache.get(key) is not None  # integrity holds: served as bytes
        assert cache.load(key) is None  # but it never decodes into a result
        assert cache.quarantined == 1

    def test_quarantined_entries_not_counted_as_cached(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        assert len(cache) == 1
        path.write_text("{")
        cache.load(key)
        assert cache.quarantined == 1
        assert len(cache) == 0


class TestFaultInjection:
    def test_injected_read_error_is_counted_miss(self, tmp_path, compiled):
        _, _, key, result = compiled
        faults = ScriptedDiskFaults()
        cache = CompileCache(tmp_path, faults=faults)
        cache.store(key, result)
        faults.arm(fail_reads=1)
        assert cache.load(key) is None
        assert cache.read_errors == 1
        assert cache.quarantined == 0  # the bytes on disk are fine
        # budget spent: the entry is served again
        assert cache.load(key) is not None

    def test_injected_write_error_is_swallowed(self, tmp_path, compiled):
        _, _, key, result = compiled
        faults = ScriptedDiskFaults()
        cache = CompileCache(tmp_path, faults=faults)
        faults.arm(fail_writes=1)
        cache.store(key, result)  # must not raise
        assert cache.store_errors == 1
        assert cache.stores == 0
        assert cache.load(key) is None  # nothing landed
        cache.store(key, result)  # budget spent: store works again
        assert cache.load(key) is not None

    def test_injected_truncation_quarantined_on_read(self, tmp_path, compiled):
        _, _, key, result = compiled
        faults = ScriptedDiskFaults()
        cache = CompileCache(tmp_path, faults=faults)
        faults.arm(truncate_writes=1)
        cache.store(key, result)
        assert faults.truncations == 1
        # an independent reader over the same directory refuses the entry
        reader = CompileCache(tmp_path)
        assert reader.load(key) is None
        assert reader.quarantined == 1

    def test_default_injector_is_transparent(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path, faults=FaultInjector())
        cache.store(key, result)
        assert cache.load(key) is not None
