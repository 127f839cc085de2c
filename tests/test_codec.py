"""The binary result codec (repro.compiler.codec): lossless, self-checking,
and strict about what it accepts.

Every encoded result crosses a process, disk or socket boundary, and
remote bytes are untrusted, so malformed input must raise ``CodecError``
(a ``ValueError``) and nothing else.
"""

import dataclasses
import json
import pickle
import random
import sys
import threading
import zlib

import pytest

from repro.compiler import codec
from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.perf import bench_cases
from repro.scheduling.events import Schedule, ScheduledOp
from repro.service import protocol
from repro.workloads import load_benchmark


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fast_matrix():
    return [
        FaultTolerantCompiler(
            CompilerConfig(
                routing_paths=case.routing_paths, num_factories=case.num_factories
            )
        ).compile(load_benchmark(case.workload))
        for case in bench_cases(fast=True)
    ]


@pytest.fixture(scope="module")
def result(fast_matrix):
    return fast_matrix[0]


def _with_ops(result, ops):
    return dataclasses.replace(result, schedule=Schedule(list(ops)))


def _blob(body: bytes) -> bytes:
    """An encoded result around ``body`` whose digest holds."""
    return codec.MAGIC + codec.payload_checksum(body).encode() + body


class TestRoundTrip:
    def test_fast_matrix_serializes_byte_identically(self, fast_matrix):
        for result in fast_matrix:
            decoded = codec.decode(codec.encode(result))
            assert _canonical(decoded) == _canonical(result)
            assert decoded.fingerprint() == result.fingerprint()

    def test_ops_are_scheduled_ops_with_tuple_fields(self, result):
        decoded = codec.decode(codec.encode(result))
        assert decoded.schedule.ops == result.schedule.ops
        op = decoded.schedule.ops[0]
        assert type(op) is ScheduledOp
        assert isinstance(op.qubits, tuple) and isinstance(op.cells, tuple)
        assert all(isinstance(cell, tuple) for cell in op.cells)

    def test_encoding_is_deterministic_and_compact(self, result):
        blob = codec.encode(result)
        assert blob == codec.encode(result)
        assert len(blob) * 5 < len(_canonical(result))

    def test_values_outside_the_packed_columns_stay_exact(self, result):
        first, second, *rest = result.schedule.ops
        odd = [
            dataclasses.replace(first, start=3, gate_index=None),  # int, None
            dataclasses.replace(second, qubits=[0, 1], note="é"),  # a list
            *rest,
        ]
        changed = _with_ops(result, odd)
        decoded = codec.decode(codec.encode(changed))
        assert _canonical(decoded) == _canonical(changed)
        assert type(decoded.schedule.ops[0].start) is int
        assert decoded.schedule.ops[0].gate_index is None

    def test_empty_schedule(self, result):
        empty = _with_ops(result, [])
        decoded = codec.decode(codec.encode(empty))
        assert _canonical(decoded) == _canonical(empty)
        assert len(decoded.schedule) == 0

    def test_decoded_result_remembers_its_bytes(self, result):
        blob = codec.encode(result)
        decoded = codec.decode(blob)
        assert codec.encoded(decoded) is not None
        assert codec.encoded(decoded) == blob
        # a result never decoded is encoded afresh
        assert codec.encoded(result) == blob
        # a copy is a new result: it does not inherit the bytes
        assert codec.encoded(dataclasses.replace(decoded, t_states=0)) != blob

    def test_digest_covers_the_body(self, result):
        digest, body = codec.split(codec.encode(result))
        assert digest == codec.payload_checksum(body)

    def test_checksum_of_a_dict_is_canonical_json(self):
        import hashlib

        expected = hashlib.sha256(b'{"a": 1, "b": 2}').hexdigest()
        assert codec.payload_checksum({"b": 2, "a": 1}) == expected
        assert codec.payload_checksum(b'{"a": 1, "b": 2}') == expected


class TestOpsBuiltOnFirstTouch:
    """A decoded result holds checked columns; its ops are built when read."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        """A list that grows by one per ScheduledOp constructed."""
        made = []
        init = ScheduledOp.__init__

        def counting(self, *args, **kwargs):
            made.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScheduledOp, "__init__", counting)
        return made

    def test_summary_readers_build_no_op(self, fast_matrix, constructions):
        blobs = [codec.encode(result) for result in fast_matrix]
        expected = [result.fingerprint() for result in fast_matrix]
        constructions.clear()
        for blob, fingerprint in zip(blobs, expected):
            decoded = codec.decode(blob)
            assert decoded.fingerprint() == fingerprint
            reply = protocol.compile_response(decoded, "k", "disk", 0.0, full=False)
            assert reply["fingerprint"] == fingerprint
            assert "schedule" not in decoded.to_dict(include_schedule=False)
            assert codec.encoded(decoded) == blob
            assert not decoded.schedule.built
        assert constructions == []

    def test_first_access_builds_every_op_once(self, result, constructions):
        decoded = codec.decode(codec.encode(result))
        lazy = decoded.fingerprint()
        assert not decoded.schedule.built
        assert decoded.schedule.ops == result.schedule.ops
        built = len(constructions)
        assert built == len(result.schedule)
        assert decoded.schedule.built
        assert decoded.fingerprint() == lazy == result.fingerprint()
        assert decoded.to_dict() == result.to_dict()
        assert len(constructions) == built

    def test_summaries_of_odd_columns_match_the_ops(self, result):
        first, second, *rest = result.schedule.ops
        odd = [
            dataclasses.replace(first, start=-1, duration=0),  # ints, end < 0
            dataclasses.replace(second, kind=["move"]),  # an unhashable kind
            *rest,
        ]
        for ops in (odd, odd[:2], [odd[0]], []):
            changed = _with_ops(result, ops)
            decoded = codec.decode(codec.encode(changed))
            lazy = decoded.fingerprint()
            assert not decoded.schedule.built
            assert lazy == changed.fingerprint()
            assert type(lazy["makespan"]) is type(changed.fingerprint()["makespan"])
            decoded.schedule.ops
            assert decoded.fingerprint() == lazy

    def test_concurrent_first_access_sees_one_list(self, result):
        decoded = codec.decode(codec.encode(result))
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def touch():
            try:
                barrier.wait()
                seen.append(decoded.schedule.ops)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=touch) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == 8
        assert all(ops is seen[0] for ops in seen)
        assert seen[0] == result.schedule.ops

    def test_an_unbuilt_result_pickles(self, result):
        decoded = codec.decode(codec.encode(result))
        copy = pickle.loads(pickle.dumps(decoded))
        assert not copy.schedule.built
        assert copy.fingerprint() == result.fingerprint()
        assert copy.to_dict() == result.to_dict()

    def test_assigning_ops_replaces_the_columns(self, result):
        decoded = codec.decode(codec.encode(result))
        decoded.schedule.ops = result.schedule.ops[:1]
        assert len(decoded.schedule) == 1
        assert decoded.schedule.makespan == result.schedule.ops[0].end


class TestRejects:
    def test_truncated_prefix(self, result):
        with pytest.raises(codec.CodecError):
            codec.split(codec.encode(result)[:20])

    def test_wrong_magic(self, result):
        blob = codec.encode(result)
        with pytest.raises(codec.CodecError):
            codec.decode(b"XXXX" + blob[4:])

    def test_truncated_body(self, result):
        blob = codec.encode(result)
        with pytest.raises(codec.CodecError):
            codec.decode(blob[: len(blob) - 10])

    def test_trailing_bytes(self, result):
        with pytest.raises(codec.CodecError):
            codec.decode(codec.encode(result) + b"\x00")

    def test_inflation_beyond_the_bound(self, result, monkeypatch):
        monkeypatch.setattr(codec, "MAX_BODY_BYTES", 1024)
        with pytest.raises(codec.CodecError, match="inflates"):
            codec.decode(codec.encode(result))

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"\xff\xff\xff\xff{}",  # header length past the end
            b"\x02\x00\x00\x00{}",  # header without fields
            b"\x02\x00\x00\x00[]",  # header of the wrong type
            b"\x05\x00\x00\x00" + b"[" * 5,  # unterminated JSON
        ],
    )
    def test_malformed_bodies(self, raw):
        with pytest.raises(codec.CodecError):
            codec.decode(_blob(zlib.compress(raw)))

    def test_deeply_nested_header(self):
        header = b"[" * 100_000 + b"]" * 100_000
        raw = len(header).to_bytes(4, "little") + header
        with pytest.raises(codec.CodecError):
            codec.decode(_blob(zlib.compress(raw)))

    def test_column_shorter_than_the_op_count(self, result):
        raw = zlib.decompress(codec.split(codec.encode(result))[1])
        with pytest.raises(codec.CodecError):
            codec.decode(_blob(zlib.compress(raw[:-4])))

    def test_accepted_bytes_build_without_error(self, result):
        """Damage decode lets through never fails later, at first op access."""
        raw = zlib.decompress(codec.split(codec.encode(result))[1])
        rng = random.Random(0)
        accepted = 0
        for _ in range(300):
            body = bytearray(raw)
            for _ in range(rng.choice((1, 2, 4))):
                body[rng.randrange(len(body))] = rng.randrange(256)
            try:
                decoded = codec.decode(_blob(zlib.compress(bytes(body))))
            except codec.CodecError:
                continue
            accepted += 1
            lazy = decoded.fingerprint()
            rows = decoded.to_dict()["schedule"]["ops"]
            assert len(rows) == len(decoded.schedule)
            assert decoded.fingerprint() == lazy
        assert accepted > 0

    def test_table_index_out_of_range(self, result):
        raw = bytearray(zlib.decompress(codec.split(codec.encode(result))[1]))
        raw[-4:] = (2**32 - 1).to_bytes(4, "little")  # last note index
        with pytest.raises(codec.CodecError):
            codec.decode(_blob(zlib.compress(bytes(raw))))
