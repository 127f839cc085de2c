"""A minimal quantum circuit container with a fluent builder API.

This plays the role Qiskit's ``QuantumCircuit`` plays in the paper: the
front-end representation of a Clifford+T program before mapping onto the
surface-code grid.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from . import gates as g
from .gates import Gate, GateError


class Circuit:
    """An ordered list of :class:`~repro.ir.gates.Gate` on ``num_qubits`` wires.

    The builder methods (``h``, ``cx``, ``rz``, ...) append a gate and return
    ``self`` so construction chains fluently::

        qc = Circuit(2, name="bell").h(0).cx(0, 1)
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, idx: int) -> Gate:
        return self._gates[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"gates={len(self._gates)})"
        )

    @property
    def gates(self) -> Sequence[Gate]:
        """Read-only view of the gate list."""
        return tuple(self._gates)

    # -- mutation -----------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append a gate, validating qubit indices against the register."""
        qubits = gate.qubits
        if qubits and max(qubits) >= self.num_qubits:
            raise GateError(
                f"gate {gate} addresses qubit outside register of size "
                f"{self.num_qubits}"
            )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append every gate from ``gates``."""
        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "Circuit", offset: int = 0) -> "Circuit":
        """Append ``other``'s gates, shifting qubit indices by ``offset``."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        for gate in other:
            self.append(gate.on(*(q + offset for q in gate.qubits)))
        return self

    # -- builder methods ------------------------------------------------

    def h(self, q: int) -> "Circuit":
        """Hadamard."""
        return self.append(g.h(q))

    def s(self, q: int) -> "Circuit":
        """Phase gate."""
        return self.append(g.s(q))

    def sdg(self, q: int) -> "Circuit":
        """Inverse phase gate."""
        return self.append(g.sdg(q))

    def x(self, q: int) -> "Circuit":
        """Pauli X."""
        return self.append(g.x(q))

    def y(self, q: int) -> "Circuit":
        """Pauli Y."""
        return self.append(g.y(q))

    def z(self, q: int) -> "Circuit":
        """Pauli Z."""
        return self.append(g.z(q))

    def sx(self, q: int) -> "Circuit":
        """Square root of X."""
        return self.append(g.sx(q))

    def t(self, q: int) -> "Circuit":
        """T gate."""
        return self.append(g.t(q))

    def tdg(self, q: int) -> "Circuit":
        """Inverse T gate."""
        return self.append(g.tdg(q))

    def rz(self, theta: float, q: int) -> "Circuit":
        """Z rotation."""
        return self.append(g.rz(theta, q))

    def rx(self, theta: float, q: int) -> "Circuit":
        """X rotation."""
        return self.append(g.rx(theta, q))

    def cx(self, control: int, target: int) -> "Circuit":
        """Controlled-NOT."""
        return self.append(g.cx(control, target))

    def cz(self, a: int, b: int) -> "Circuit":
        """Controlled-Z."""
        return self.append(g.cz(a, b))

    def swap(self, a: int, b: int) -> "Circuit":
        """SWAP."""
        return self.append(g.swap(a, b))

    def measure(self, q: int) -> "Circuit":
        """Measure one qubit in the Z basis."""
        return self.append(g.measure(q))

    def barrier(self, *qubits: int) -> "Circuit":
        """Scheduling barrier over ``qubits`` (whole register when empty)."""
        return self.append(g.barrier(*qubits))

    def measure_all(self) -> "Circuit":
        """Measure every qubit."""
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    # -- analysis -------------------------------------------------------

    def gate_counts(self) -> Dict[str, int]:
        """Histogram of gate names, e.g. ``{"cx": 360, "rz": 280}``."""
        return dict(Counter(gate.name for gate in self._gates))

    def count(self, name: str) -> int:
        """Number of gates with mnemonic ``name``."""
        return sum(1 for gate in self._gates if gate.name == name)

    def t_count(self, t_per_rotation: int = 1) -> int:
        """Number of magic states the circuit consumes.

        Explicit T/Tdg gates cost one state each; each non-Clifford rotation
        costs ``t_per_rotation`` states (see
        :mod:`repro.synthesis.clifford_t` for calibrated models).
        """
        total = 0
        for gate in self._gates:
            if gate.name in g.T_LIKE:
                total += 1
            elif gate.is_t_like:
                total += t_per_rotation
        return total

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates."""
        return sum(1 for gate in self._gates if gate.is_two_qubit)

    def depth(self) -> int:
        """Circuit depth counting every gate (including Paulis) as one layer."""
        level: Dict[int, int] = {}
        depth = 0
        for gate in self._gates:
            if gate.name == g.BARRIER:
                continue
            start = max((level.get(q, 0) for q in gate.qubits), default=0)
            for q in gate.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def used_qubits(self) -> List[int]:
        """Sorted list of qubit indices that appear in at least one gate."""
        seen = set()
        for gate in self._gates:
            seen.update(gate.qubits)
        return sorted(seen)

    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (gates reversed and inverted)."""
        inv = Circuit(self.num_qubits, name=f"{self.name}_dg")
        for gate in reversed(self._gates):
            if gate.name in (g.MEASURE, g.BARRIER):
                raise GateError("cannot invert a circuit containing measurements")
            inv.append(gate.dagger())
        return inv

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Shallow copy (gates are immutable, so this is a full copy)."""
        dup = Circuit(self.num_qubits, name=name or self.name)
        dup._gates = list(self._gates)
        return dup

    def remap(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "Circuit":
        """Return a copy with qubit indices translated through ``mapping``."""
        size = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(size, name=self.name)
        for gate in self._gates:
            out.append(gate.on(*(mapping[q] for q in gate.qubits)))
        return out

    def summary(self) -> str:
        """One-line human-readable description used by the experiment tables."""
        counts = ", ".join(
            f"{name}:{n}" for name, n in sorted(self.gate_counts().items())
        )
        return f"{self.name}: {self.num_qubits} qubits, {counts}"


def bell_pair() -> Circuit:
    """Tiny example circuit used in docs and smoke tests."""
    return Circuit(2, name="bell").h(0).cx(0, 1)


def ghz_chain(n: int) -> Circuit:
    """Linear-depth GHZ state preparation on ``n`` qubits."""
    if n < 2:
        raise ValueError("GHZ needs at least two qubits")
    qc = Circuit(n, name=f"ghz_chain_{n}")
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    return qc


def random_clifford_t(
    num_qubits: int,
    num_gates: int,
    seed: int = 7,
    t_fraction: float = 0.2,
    two_qubit_fraction: float = 0.3,
) -> Circuit:
    """Deterministic pseudo-random Clifford+T circuit for tests.

    Uses a local linear congruential generator rather than :mod:`random`
    so that circuits are stable across Python versions.
    """
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    state = seed & 0xFFFFFFFF

    def nxt() -> int:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return state

    qc = Circuit(num_qubits, name=f"random_{num_qubits}x{num_gates}")
    one_qubit = [g.h, g.s, g.sdg, g.x, g.z, g.sx]
    for _ in range(num_gates):
        roll = (nxt() % 1000) / 1000.0
        a = nxt() % num_qubits
        if roll < two_qubit_fraction:
            b = nxt() % num_qubits
            if b == a:
                b = (a + 1) % num_qubits
            qc.cx(a, b)
        elif roll < two_qubit_fraction + t_fraction:
            qc.t(a) if nxt() % 2 else qc.tdg(a)
        elif roll < two_qubit_fraction + t_fraction + 0.1:
            qc.rz(math.pi / 4 * (1 + nxt() % 3), a)
        else:
            qc.append(one_qubit[nxt() % len(one_qubit)](a))
    return qc
