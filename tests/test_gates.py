"""Unit tests for repro.ir.gates."""

import math
import pickle

import pytest

from repro.ir import gates as g
from repro.ir.gates import Gate, GateError, is_multiple_of, normalize_angle


class TestNormalizeAngle:
    def test_identity_range(self):
        assert normalize_angle(1.0) == pytest.approx(1.0)

    def test_negative_wraps(self):
        assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_two_pi_is_zero(self):
        assert normalize_angle(2 * math.pi) == pytest.approx(0.0)

    def test_large_angle(self):
        assert normalize_angle(5 * math.pi) == pytest.approx(math.pi)


class TestIsMultipleOf:
    def test_pi_is_multiple_of_half_pi(self):
        assert is_multiple_of(math.pi, math.pi / 2)

    def test_quarter_pi_not_multiple_of_half_pi(self):
        assert not is_multiple_of(math.pi / 4, math.pi / 2)

    def test_quarter_pi_is_multiple_of_quarter_pi(self):
        assert is_multiple_of(math.pi / 4, math.pi / 4)

    def test_noise_tolerated(self):
        assert is_multiple_of(math.pi / 2 + 1e-12, math.pi / 2)


class TestGateConstruction:
    def test_unknown_name_rejected(self):
        with pytest.raises(GateError):
            Gate("frobnicate", (0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(GateError):
            Gate(g.CX, (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(GateError):
            Gate(g.CX, (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(GateError):
            Gate(g.H, (-1,))

    def test_param_required_for_rz(self):
        with pytest.raises(GateError):
            Gate(g.RZ, (0,))

    def test_param_forbidden_for_h(self):
        with pytest.raises(GateError):
            Gate(g.H, (0,), param=1.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("frobnicate", (0,)), "unknown gate name 'frobnicate'"),
            ((g.RZ, (0,)), "gate 'rz' requires an angle parameter"),
            ((g.H, (0,), 1.0), "gate 'h' takes no parameter"),
            ((g.CX, (0,)), "gate 'cx' acts on 2 qubit(s), got 1"),
            ((g.H, ()), "gate 'h' acts on 1 qubit(s), got 0"),
            ((g.MOVE, (1, 2)), "gate 'move' acts on 1 qubit(s), got 2"),
            ((g.BARRIER, (1, 2, 1)), "gate 'barrier' has duplicate qubits (1, 2, 1)"),
            ((g.CX, (-1, -1)), "gate 'cx' has duplicate qubits (-1, -1)"),
            ((g.BARRIER, (-1, 2)), "qubit indices must be non-negative"),
        ],
    )
    def test_error_messages(self, args, message):
        with pytest.raises(GateError) as err:
            Gate(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", [g.RZ, g.RX])
    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, name, angle):
        with pytest.raises(GateError, match="finite angle"):
            Gate(name, (0,), param=angle)
        with pytest.raises(GateError, match="finite angle"):
            g.interned(name, (0,), angle)

    def test_builders(self):
        assert g.h(3).qubits == (3,)
        assert g.cx(0, 1).qubits == (0, 1)
        assert g.rz(0.5, 2).param == 0.5


class TestClassification:
    def test_h_is_clifford(self):
        assert g.h(0).is_clifford
        assert not g.h(0).is_t_like

    def test_t_is_t_like(self):
        assert g.t(0).is_t_like
        assert not g.t(0).is_clifford

    def test_clifford_rz(self):
        assert g.rz(math.pi / 2, 0).is_clifford
        assert g.rz(math.pi, 0).is_clifford
        assert not g.rz(math.pi / 2, 0).is_t_like

    def test_non_clifford_rz(self):
        assert g.rz(math.pi / 4, 0).is_t_like
        assert g.rz(0.3, 0).is_t_like

    def test_pauli_flags(self):
        assert g.x(0).is_pauli
        assert g.z(0).is_pauli
        assert not g.h(0).is_pauli

    def test_two_qubit(self):
        assert g.cx(0, 1).is_two_qubit
        assert not g.t(0).is_two_qubit


class TestDagger:
    def test_s_dagger(self):
        assert g.s(0).dagger().name == g.SDG
        assert g.sdg(0).dagger().name == g.S

    def test_t_dagger(self):
        assert g.t(0).dagger().name == g.TDG

    def test_self_inverse(self):
        for gate in (g.h(0), g.x(0), g.cx(0, 1), g.swap(0, 1)):
            assert gate.dagger() == gate

    def test_rz_dagger_negates(self):
        assert g.rz(0.7, 0).dagger().param == pytest.approx(-0.7)

    def test_measure_has_no_inverse(self):
        with pytest.raises(GateError):
            g.measure(0).dagger()


class TestRemap:
    def test_on_moves_qubits(self):
        gate = g.cx(0, 1).on(4, 7)
        assert gate.qubits == (4, 7)
        assert gate.name == g.CX

    def test_str_contains_name(self):
        assert "cx" in str(g.cx(0, 1))
        assert "rz" in str(g.rz(0.25, 3))


def _fields(gate):
    return tuple(repr(getattr(gate, f)) for f in ("name", "qubits", "param", "label"))


class TestInterning:
    @pytest.fixture
    def table(self, monkeypatch):
        """A private, empty intern table for the test."""
        fresh = {}
        monkeypatch.setattr(g, "_INTERNED", fresh)
        return fresh

    @pytest.mark.parametrize(
        "build, direct",
        [
            (lambda: g.h(3), lambda: Gate(g.H, (3,))),
            (lambda: g.s(3), lambda: Gate(g.S, (3,))),
            (lambda: g.sdg(3), lambda: Gate(g.SDG, (3,))),
            (lambda: g.x(3), lambda: Gate(g.X, (3,))),
            (lambda: g.y(3), lambda: Gate(g.Y, (3,))),
            (lambda: g.z(3), lambda: Gate(g.Z, (3,))),
            (lambda: g.sx(3), lambda: Gate(g.SX, (3,))),
            (lambda: g.t(3), lambda: Gate(g.T, (3,))),
            (lambda: g.tdg(3), lambda: Gate(g.TDG, (3,))),
            (lambda: g.rz(0.25, 3), lambda: Gate(g.RZ, (3,), param=0.25)),
            (lambda: g.rz(1, 3), lambda: Gate(g.RZ, (3,), param=1.0)),
            (lambda: g.rx(-0.0, 3), lambda: Gate(g.RX, (3,), param=-0.0)),
            (lambda: g.cx(0, 3), lambda: Gate(g.CX, (0, 3))),
            (lambda: g.cz(0, 3), lambda: Gate(g.CZ, (0, 3))),
            (lambda: g.swap(0, 3), lambda: Gate(g.SWAP, (0, 3))),
            (lambda: g.measure(3), lambda: Gate(g.MEASURE, (3,))),
            (lambda: g.barrier(0, 3), lambda: Gate(g.BARRIER, (0, 3))),
            (lambda: g.barrier(), lambda: Gate(g.BARRIER, ())),
            (lambda: g.s(3).dagger(), lambda: Gate(g.SDG, (3,))),
            (lambda: g.rz(0.25, 3).dagger(), lambda: Gate(g.RZ, (3,), param=-0.25)),
        ],
    )
    def test_factories_match_direct_construction(self, table, build, direct):
        first = build()
        assert first == direct()
        assert _fields(first) == _fields(direct())
        assert build() is first  # the repeat is served from the table
        assert any(gate is first for gate in table.values())

    def test_signed_zero_is_not_shared(self, table):
        assert repr(g.rz(0.0, 0).param) == "0.0"
        assert repr(g.rz(-0.0, 0).param) == "-0.0"
        assert repr(g.rz(0.0, 0).param) == "0.0"
        assert len(table) == 2

    @pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
    def test_int_and_float_params_are_not_shared(self, table, order):
        for param in order:
            gate = g.interned(g.RZ, (0,), param)
            assert type(gate.param) is type(param)
            assert _fields(gate) == _fields(Gate(g.RZ, (0,), param=param))

    def test_qubit_types_are_not_shared(self, table):
        assert repr(g.interned(g.H, (1,)).qubits) == "(1,)"
        assert repr(g.interned(g.H, (True,)).qubits) == "(True,)"

    def test_invalid_gate_is_not_stored(self, table):
        with pytest.raises(GateError, match="duplicate qubits"):
            g.interned(g.CX, (1, 1))
        assert table == {}

    def test_table_stops_growing_at_its_cap(self, table, monkeypatch):
        monkeypatch.setattr(g, "INTERN_CAP", 3)
        early = [g.rz(0.1 * k, 0) for k in range(3)]
        late = [g.rz(0.1 * k, 0) for k in range(3, 10)]
        assert len(table) == 3
        assert [g.rz(0.1 * k, 0) for k in range(3)] == early
        assert all(g.rz(0.1 * k, 0) is early[k] for k in range(3))
        for k, gate in enumerate(late, start=3):
            assert _fields(gate) == _fields(Gate(g.RZ, (0,), param=0.1 * k))
            assert g.rz(0.1 * k, 0) is not gate  # built fresh, uncached
        assert len(table) == 3

    def test_pickle_round_trip(self):
        gates = [g.h(2), g.cx(0, 1), g.rz(-0.0, 1), g.rx(3 * math.pi / 4, 0)]
        for gate in gates[:2]:
            gate.canonical_line  # noqa: B018 - a cached line rides along
        for gate, back in zip(gates, pickle.loads(pickle.dumps(gates))):
            assert back == gate
            assert _fields(back) == _fields(gate)
            assert back.canonical_line == gate.canonical_line

    def test_canonical_line(self):
        assert g.cx(0, 12).canonical_line == "cx|0,12|\n"
        assert g.rz(-0.0, 3).canonical_line == "rz|3|-0.0\n"
        assert g.barrier().canonical_line == "barrier||\n"
