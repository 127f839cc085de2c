"""OpenQASM 2 round-trip tests."""

import math
import random
import time

import pytest

from repro.compiler.pipeline import compile_circuit
from repro.ir import qasm
from repro.ir.circuit import Circuit, bell_pair
from repro.ir.qasm import QasmError
from repro.workloads import ising_2d


class TestDumps:
    def test_header_and_register(self):
        text = qasm.dumps(bell_pair())
        assert "OPENQASM 2.0;" in text
        assert "qreg q[2];" in text

    def test_gate_lines(self):
        text = qasm.dumps(bell_pair())
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text

    def test_angle_formatting(self):
        text = qasm.dumps(Circuit(1).rz(math.pi / 4, 0))
        assert "rz(pi/4) q[0];" in text

    def test_negative_angle(self):
        text = qasm.dumps(Circuit(1).rz(-math.pi / 2, 0))
        assert "rz(-pi/2)" in text or "rz(3*pi/2)" in text

    def test_measure_lines(self):
        text = qasm.dumps(Circuit(1).measure(0))
        assert "measure q[0] -> c[0];" in text


class TestLoads:
    def test_parse_simple(self):
        circuit = qasm.loads(qasm.dumps(bell_pair()))
        assert circuit.gate_counts() == {"h": 1, "cx": 1}

    def test_missing_header_rejected(self):
        with pytest.raises(QasmError):
            qasm.loads("qreg q[2]; h q[0];")

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmError):
            qasm.loads("OPENQASM 2.0; h q[0];")

    def test_empty_register_rejected(self):
        with pytest.raises(QasmError, match=r"qreg q\[0\];' declares no qubits"):
            qasm.loads("OPENQASM 2.0;\nqreg q[0];\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmError):
            qasm.loads("OPENQASM 2.0; qreg q[1]; frob q[0];")

    def test_angle_expressions(self):
        circuit = qasm.loads("OPENQASM 2.0; qreg q[1]; rz(3*pi/4) q[0];")
        assert circuit[0].param == pytest.approx(3 * math.pi / 4)

    def test_evil_angle_rejected(self):
        with pytest.raises(QasmError):
            qasm.loads("OPENQASM 2.0; qreg q[1]; rz(__import__) q[0];")

    @pytest.mark.parametrize("angle", ["9**9**8", "9**9**9", "2 ** 3", "pi**2"])
    def test_exponent_rejected_before_evaluation(self, angle):
        started = time.perf_counter()
        with pytest.raises(QasmError, match="unsupported angle expression"):
            qasm.loads(f"OPENQASM 2.0; qreg q[1]; rz({angle}) q[0];")
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("angle", ["1e999", "-1e999", "1e999-1e999"])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(QasmError, match="is not finite"):
            qasm.loads(f"OPENQASM 2.0; qreg q[1]; rx({angle}) q[0];")

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("cx q[0],q[0];", "gate 'cx' has duplicate qubits (0, 0)"),
            ("h q[5];", "gate h [5] addresses qubit outside register of size 2"),
            ("h(pi) q[0];", "gate 'h' takes no parameter"),
        ],
    )
    def test_invalid_gate_is_a_qasm_error(self, statement, message):
        with pytest.raises(QasmError) as err:
            qasm.loads(f"OPENQASM 2.0; qreg q[2]; {statement}")
        assert str(err.value) == message

    def test_comments_stripped(self):
        text = "OPENQASM 2.0; // header\nqreg q[1];\nh q[0]; // gate\n"
        assert qasm.loads(text).count("h") == 1


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [bell_pair, lambda: ising_2d(2)])
    def test_full_round_trip(self, builder):
        original = builder()
        recovered = qasm.loads(qasm.dumps(original))
        assert recovered.num_qubits == original.num_qubits
        assert recovered.gate_counts() == original.gate_counts()
        for a, b in zip(original, recovered):
            assert a.name == b.name
            assert a.qubits == b.qubits
            if a.param is not None:
                assert b.param == pytest.approx(a.param)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "bell.qasm")
        qasm.dump_file(bell_pair(), path)
        assert qasm.load_file(path).gate_counts() == {"h": 1, "cx": 1}


class TestBarriers:
    """Barriers carry DAG pseudo-dependency edges since the scheduler
    serialises across them, so they must survive the round trip."""

    def circuit(self):
        circuit = Circuit(3, name="barriered")
        circuit.h(0).cx(0, 1)
        circuit.barrier(0, 1)
        circuit.t(1)
        circuit.barrier()  # whole register
        circuit.h(2)
        return circuit

    def test_dumps_emits_indexed_barrier(self):
        assert "barrier q[0],q[1];" in qasm.dumps(self.circuit())

    def test_dumps_emits_whole_register_barrier(self):
        assert "barrier q;" in qasm.dumps(self.circuit())

    def test_loads_preserves_barriers(self):
        recovered = qasm.loads(qasm.dumps(self.circuit()))
        barriers = [gate for gate in recovered if gate.name == "barrier"]
        assert [gate.qubits for gate in barriers] == [(0, 1), ()]

    def test_round_trip_gate_stream_identical(self):
        original = self.circuit()
        recovered = qasm.loads(qasm.dumps(original))
        assert [(g.name, g.qubits) for g in recovered] == [
            (g.name, g.qubits) for g in original
        ]

    def test_loaded_circuit_schedules_identically(self):
        # the bug this fixes: loads() used to drop barriers, so a
        # file-loaded circuit scheduled differently from the in-memory one
        original = self.circuit()
        recovered = qasm.loads(qasm.dumps(original))
        a = compile_circuit(original, routing_paths=3)
        b = compile_circuit(recovered, routing_paths=3)
        assert a.schedule.makespan == b.schedule.makespan
        assert [
            (op.kind, op.name, op.start, op.cells) for op in a.schedule
        ] == [(op.kind, op.name, op.start, op.cells) for op in b.schedule]


class TestWholeRegisterMeasure:
    def test_expands_to_per_qubit_measures(self):
        text = "OPENQASM 2.0; qreg q[3]; creg c[3]; measure q -> c;"
        circuit = qasm.loads(text)
        assert circuit.gate_counts() == {"measure": 3}
        assert [gate.qubits for gate in circuit] == [(0,), (1,), (2,)]

    def test_indexed_measure_still_works(self):
        text = "OPENQASM 2.0; qreg q[3]; creg c[3]; measure q[2] -> c[0];"
        circuit = qasm.loads(text)
        assert [gate.qubits for gate in circuit] == [(2,)]

    def test_measure_without_arrow_accepted(self):
        text = "OPENQASM 2.0; qreg q[2]; measure q[1];"
        assert [gate.qubits for gate in qasm.loads(text)] == [(1,)]

    def test_garbage_measure_rejected(self):
        with pytest.raises(QasmError):
            qasm.loads("OPENQASM 2.0; qreg q[2]; measure 17;")

    def test_multi_statement_line(self):
        text = (
            "OPENQASM 2.0; qreg q[2]; creg c[2]; "
            "h q[0]; measure q[0] -> c[0]; measure q[1] -> c[1];"
        )
        circuit = qasm.loads(text)
        assert circuit.gate_counts() == {"h": 1, "measure": 2}


class TestAngleRoundTrip:
    """Property tests: loads(dumps(c)) preserves every rz/rx angle,
    through both the tidy pi-multiple formatter and the repr fallback."""

    def _round_trip_angles(self, angles):
        circuit = Circuit(1)
        for theta in angles:
            circuit.rz(theta, 0)
            circuit.rx(theta, 0)
        recovered = qasm.loads(qasm.dumps(circuit))
        assert len(recovered) == len(circuit)
        for a, b in zip(circuit, recovered):
            assert b.name == a.name
            assert b.param == pytest.approx(a.param, abs=1e-12)

    def test_tidy_pi_multiples(self):
        angles = [
            k * math.pi / denom
            for denom in (1, 2, 3, 4, 6, 8, 16)
            for k in (-5, -1, 1, 2, 7)
        ]
        self._round_trip_angles(angles)

    def test_zero_and_full_turns(self):
        self._round_trip_angles([0.0, 2 * math.pi, -2 * math.pi, 64 * math.pi])

    def test_random_angles_repr_fallback(self):
        rng = random.Random(20260730)
        angles = [rng.uniform(-8 * math.pi, 8 * math.pi) for _ in range(50)]
        self._round_trip_angles(angles)

    def test_tiny_and_huge_magnitudes(self):
        self._round_trip_angles([1e-9, -1e-9, 1e3, -123.456789, 3e-5])

    def test_non_tidy_near_pi_multiples(self):
        # close to, but not exactly, tidy multiples: must use the fallback
        self._round_trip_angles(
            [math.pi / 4 + 1e-7, -math.pi / 2 - 1e-7, 3 * math.pi / 8 + 1e-6]
        )
