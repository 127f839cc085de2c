"""The binary result codec (repro.compiler.codec): lossless, self-checking,
and strict about what it accepts.

Every encoded result crosses a process, disk or socket boundary, and
remote bytes are untrusted, so malformed input must raise ``CodecError``
(a ``ValueError``) and nothing else.
"""

import dataclasses
import hashlib
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
from repro.ir.dag import DagCircuit
from repro.perf import bench_cases
from repro.scheduling.events import MOVE_KINDS, Schedule, ScheduledOp
from repro.service import CachePeerThread, RemoteCache, protocol
from repro.sweep import CompileCache, SweepEngine, job_key
from repro.verify import validate_result
from repro.workloads import load_benchmark


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _fast_cases(strategy="default"):
    return [
        (
            load_benchmark(case.workload),
            CompilerConfig(
                routing_paths=case.routing_paths,
                num_factories=case.num_factories,
                strategy=strategy,
            ),
        )
        for case in bench_cases(fast=True)
    ]


def _case_name(circuit, config):
    return (
        f"{config.strategy}/{circuit.name}"
        f"/r{config.routing_paths}/f{config.num_factories}"
    )


#: sha256 of ``codec.encode`` of every fast-matrix result, per strategy.
#: Generated before the compile path moved onto columns; any drift in the
#: schedule, its field types or its intern tables changes a digest.
GOLDEN_ENCODE_DIGESTS = {
    "balanced/fermi_hubbard_2d_2x2/r4/f1": "cbbe2cde91d204f627cb038958bae0502d154e11371ccdabacc28c2ca0629d61",
    "balanced/heisenberg_2d_2x2/r3/f1": "80b2074edf8b3a7a5b11931d9f6df4187302f38bdef199c5f76d7e8c641ad027",
    "balanced/ising_2d_2x2/r3/f1": "d6b09fde02b65f1d684db79a67a4384ded139e543dd6cd52fb1336978ed0197d",
    "balanced/ising_2d_4x4/r4/f2": "74b126cfa73ca4d75e5a60344c16049d707922a83d46f6d5bb85eb76e92c0822",
    "default/fermi_hubbard_2d_2x2/r4/f1": "546461940ce79d04b0a40d2c2e39afb831af638d1f8726b27f4013d89f42fd3a",
    "default/heisenberg_2d_2x2/r3/f1": "2ef04d7f8c3145d4dc8aa6dab3fb7a1cb8d7bf5c494ed5dedfe0f1cf90279942",
    "default/ising_2d_2x2/r3/f1": "33fb177a0c127b2ab6d56576164af4c9b2482bbf5c799f7a63ff1e169ba9f4c2",
    "default/ising_2d_4x4/r4/f2": "09ec1191dc68cdbe71f2945cdce9762f14de02018636762ba714a6e8eb2e7b5e",
}


@pytest.fixture(scope="module")
def fast_inputs():
    """``(circuit, config)`` per fast-matrix case."""
    return _fast_cases()


@pytest.fixture(scope="module")
def fast_matrix(fast_inputs):
    return [
        FaultTolerantCompiler(config).compile(circuit)
        for circuit, config in fast_inputs
    ]


@pytest.fixture(scope="module")
def balanced_inputs():
    return _fast_cases("balanced")


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

    def test_golden_encode_digests(self, fast_inputs, fast_matrix, balanced_inputs):
        balanced = [
            FaultTolerantCompiler(config).compile(circuit)
            for circuit, config in balanced_inputs
        ]
        digests = {
            _case_name(circuit, config): hashlib.sha256(codec.encode(result)).hexdigest()
            for (circuit, config), result in zip(
                fast_inputs + balanced_inputs, fast_matrix + balanced
            )
        }
        assert digests == GOLDEN_ENCODE_DIGESTS

    def test_checksum_of_a_dict_is_canonical_json(self):
        import hashlib

        expected = hashlib.sha256(b'{"a": 1, "b": 2}').hexdigest()
        assert codec.payload_checksum({"b": 2, "a": 1}) == expected
        assert codec.payload_checksum(b'{"a": 1, "b": 2}') == expected


class TestOpsBuiltOnFirstTouch:
    """A schedule holds only its columns; each read of ``ops`` builds them."""

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

    @pytest.fixture
    def dags(self, monkeypatch):
        """A list that grows by one per DagCircuit constructed."""
        made = []
        init = DagCircuit.__init__

        def counting(self, *args, **kwargs):
            made.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DagCircuit, "__init__", counting)
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
        assert constructions == []

    def test_compile_fingerprint_encode_and_validation_build_no_op(
        self, fast_inputs, balanced_inputs, constructions
    ):
        for circuit, config in fast_inputs + balanced_inputs:
            result = FaultTolerantCompiler(config).compile(circuit)
            assert result.fingerprint()["num_ops"] == len(result.schedule) > 0
            assert codec.decode(codec.encode(result)).fingerprint() == result.fingerprint()
            report = validate_result(result, circuit, config)
            assert report.ok, report.summary()
        assert constructions == []

    def test_replay_validation_builds_no_op(
        self, fast_inputs, fast_matrix, constructions, dags
    ):
        blobs = [codec.encode(result) for result in fast_matrix]
        constructions.clear()
        dags.clear()
        for blob, (circuit, config) in zip(blobs, fast_inputs):
            decoded = codec.decode(blob)
            report = validate_result(decoded, circuit, config)
            assert report.ok, report.summary()
            assert report.ops_checked == len(decoded.schedule) > 0
        assert constructions == []
        assert dags == []

    def test_remote_hit_builds_no_op_and_promotes_the_peer_bytes(
        self, tmp_path, fast_inputs, fast_matrix, constructions, dags
    ):
        (circuit, config), result = fast_inputs[-1], fast_matrix[-1]
        key = job_key(circuit, config)
        peer_cache = CompileCache(tmp_path / "peer")
        peer_cache.put(key, codec.encode(result))
        with CachePeerThread(cache=peer_cache) as peer:
            disk = CompileCache(tmp_path / "local")
            engine = SweepEngine(cache=disk, remote=RemoteCache(*peer.address))
            constructions.clear()
            dags.clear()
            hit = engine.compile(circuit, config)
            engine.shutdown()
        assert constructions == []
        assert dags == []
        assert engine.counters.remote_hits == 1
        assert engine.counters.compiled == 0
        assert hit.fingerprint() == result.fingerprint()
        assert disk.get(key) == peer_cache.get(key) == codec.encode(result)

    def test_each_read_of_ops_builds_every_op(self, result, constructions):
        decoded = codec.decode(codec.encode(result))
        expected = result.schedule.ops
        constructions.clear()
        lazy = decoded.fingerprint()
        assert constructions == []
        first = decoded.schedule.ops
        assert len(constructions) == len(result.schedule)
        second = decoded.schedule.ops
        assert len(constructions) == 2 * len(result.schedule)
        assert type(first) is tuple
        assert first == second == expected
        assert decoded.fingerprint() == lazy == result.fingerprint()
        assert decoded.to_dict() == result.to_dict()

    def test_summaries_of_odd_columns_match_the_ops(self, result):
        first, second, *rest = result.schedule.ops
        odd = [
            dataclasses.replace(first, start=-1, duration=0),  # ints, end < 0
            dataclasses.replace(second, qubits=[1, 2]),  # a list: "j" column
            *rest,
        ]
        for ops in (odd, odd[:2], [odd[0]], []):
            changed = _with_ops(result, ops)
            decoded = codec.decode(codec.encode(changed))
            lazy = decoded.fingerprint()
            assert lazy == changed.fingerprint()
            assert type(lazy["makespan"]) is type(changed.fingerprint()["makespan"])
            walked = decoded.schedule.ops
            assert lazy["num_ops"] == len(walked)
            assert lazy["num_moves"] == sum(op.kind in MOVE_KINDS for op in walked)
            assert lazy["makespan"] == max([0.0, *(op.end for op in walked)])

    def test_concurrent_reads_see_equal_ops(self, result):
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
        assert all(ops == seen[0] for ops in seen)
        assert seen[0] == result.schedule.ops

    def test_a_result_pickles_as_its_columns(self, result, constructions):
        decoded = codec.decode(codec.encode(result))
        decoded.schedule.ops  # a read leaves nothing behind to pickle
        constructions.clear()
        blob = pickle.dumps(decoded)
        copy = pickle.loads(blob)
        assert copy.fingerprint() == result.fingerprint()
        assert constructions == []
        assert b"ScheduledOp" not in blob
        assert copy.to_dict() == result.to_dict()

    def test_ops_are_read_only_and_an_edit_makes_a_new_schedule(self, result):
        decoded = codec.decode(codec.encode(result))
        op = decoded.schedule.ops[-1]
        with pytest.raises(TypeError):
            decoded.schedule.ops[0] = op
        with pytest.raises(AttributeError):
            setattr(decoded.schedule, "ops", [op])
        assert decoded.fingerprint() == result.fingerprint()
        edited = _with_ops(decoded, decoded.schedule.ops[:1])
        assert len(edited.schedule) == 1
        assert edited.schedule.makespan == result.schedule.ops[0].end
        assert decoded.fingerprint() == result.fingerprint()


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


#: a value of the wrong type for each op field (a bool is neither an int
#: nor a float; a cell is a pair of ints; an int time fits a float).
MISTYPED = [
    ("uid", "1"), ("uid", 1.5), ("uid", True), ("uid", None),
    ("kind", 1), ("kind", None), ("kind", ["gate"]), ("kind", True),
    ("name", 2), ("name", None),
    ("qubits", (1, "a")), ("qubits", (1.5,)), ("qubits", (True,)), ("qubits", 5),
    ("qubits", [[1]]),
    ("cells", ((1, 2, 3),)), ("cells", ((1,),)), ("cells", ((1, "a"),)),
    ("cells", [[1, [2]]]), ("cells", ((True, 1),)), ("cells", ("ab",)),
    ("start", "x"), ("start", True), ("start", None), ("start", [1.0]),
    ("start", 10**400), ("duration", "1"), ("duration", False),
    ("min_start", "0"), ("min_start", None),
    ("gate_index", "x"), ("gate_index", 1.5), ("gate_index", True),
    ("note", 1), ("note", None), ("note", ["a"]),
]


class TestMistypedValues:
    """Decode checks each table and ``j`` value against its field's type."""

    @pytest.mark.parametrize("field,value", MISTYPED, ids=lambda v: repr(v))
    def test_rejected_at_decode(self, result, field, value):
        first, *rest = result.schedule.ops
        bad = _with_ops(result, [dataclasses.replace(first, **{field: value}), *rest])
        with pytest.raises(codec.CodecError, match="wrong type|malformed"):
            codec.decode(codec.encode(bad))

    @pytest.mark.parametrize(
        "field,value",
        [("gate_index", "x"), ("start", "x"), ("cells", [[1, [2]]])],
    )
    def test_a_live_peer_entry_is_rejected_and_compiled_locally(
        self, tmp_path, fast_inputs, fast_matrix, field, value
    ):
        (circuit, config), result = fast_inputs[0], fast_matrix[0]
        key = job_key(circuit, config)
        first, *rest = result.schedule.ops
        bad = _with_ops(result, [dataclasses.replace(first, **{field: value}), *rest])
        peer_cache = CompileCache(tmp_path / "peer")
        peer_cache.put(key, codec.encode(bad))  # the checksum holds
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
        assert tiers["remote"]["corrupt"] == 0

    def test_ints_and_floats_mix_in_a_time_column(self, fast_inputs, result):
        first, *rest = result.schedule.ops
        mixed = _with_ops(result, [dataclasses.replace(first, start=0), *rest])
        decoded = codec.decode(codec.encode(mixed))
        assert _canonical(decoded) == _canonical(mixed)
        circuit, config = fast_inputs[0]
        assert validate_result(decoded, circuit, config).ok
