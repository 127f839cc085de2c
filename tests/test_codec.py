"""The binary result codec (repro.compiler.codec): lossless, self-checking,
and strict about what it accepts.

Every encoded result crosses a process, disk or socket boundary, and
remote bytes are untrusted, so malformed input must raise ``CodecError``
(a ``ValueError``) and nothing else.
"""

import dataclasses
import json
import zlib

import pytest

from repro.compiler import codec
from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.perf import bench_cases
from repro.scheduling.events import Schedule, ScheduledOp
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

    def test_table_index_out_of_range(self, result):
        raw = bytearray(zlib.decompress(codec.split(codec.encode(result))[1]))
        raw[-4:] = (2**32 - 1).to_bytes(4, "little")  # last note index
        with pytest.raises(codec.CodecError):
            codec.decode(_blob(zlib.compress(bytes(raw))))
