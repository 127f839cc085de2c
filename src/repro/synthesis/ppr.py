"""Litinski Pauli-product-rotation (PPR) transpilation.

Implements the circuit rewriting of "A Game of Surface Codes" [28] used by
the paper's strongest baseline (Sec. VII-C): every Clifford gate is commuted
to the end of the circuit, leaving a sequence of pi/8 Pauli-product
rotations followed by Pauli-product measurements.  The commutation is exact
Pauli conjugation (see :mod:`repro.synthesis.pauli`).

The paper's Fig. 10 / Appendix then implement each PPR with a constant-depth
nearest-neighbour decomposition [30] whose latency and ancilla requirements
are modelled in :mod:`repro.baselines.litinski`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ir import gates as g
from ..ir.circuit import Circuit
from ..ir.gates import Gate, is_multiple_of, normalize_angle
from .pauli import PauliString

#: rotation classes by angle denominator: pi/8 rotations need magic states,
#: pi/4 rotations are Clifford and can be absorbed.
T_ROTATION = 8
CLIFFORD_ROTATION = 4


@dataclass(frozen=True)
class PauliRotation:
    """A rotation ``exp(-i * theta * P)`` for Pauli product ``P``.

    Attributes:
        pauli: rotation axis.
        theta: rotation angle in radians (the exponent's coefficient).
        denominator: 8 for pi/8 (T-type), 4 for pi/4 (Clifford), 0 for a
            generic angle requiring synthesis.
    """

    pauli: PauliString
    theta: float
    denominator: int

    @property
    def is_t_type(self) -> bool:
        """True when the rotation consumes magic states."""
        return self.denominator not in (CLIFFORD_ROTATION,) and not self.is_trivial

    @property
    def is_trivial(self) -> bool:
        return abs(math.sin(2 * self.theta)) < 1e-12 and abs(
            math.cos(2 * self.theta) - 1
        ) < 1e-12

    def weight(self) -> int:
        """Number of qubits in the rotation's support."""
        return self.pauli.weight()

    def __str__(self) -> str:
        return f"exp(-i {self.theta:.4g} {self.pauli.label()})"


@dataclass(frozen=True)
class PauliMeasurement:
    """A Pauli-product measurement at the end of a PPR program."""

    pauli: PauliString


@dataclass
class PprProgram:
    """Result of transpiling a circuit into Litinski normal form.

    Attributes:
        num_qubits: register width.
        rotations: ordered non-Clifford (pi/8 or generic) rotations.
        measurements: trailing Pauli-product measurements.
        absorbed_cliffords: how many Clifford gates were commuted away.
    """

    num_qubits: int
    rotations: List[PauliRotation] = field(default_factory=list)
    measurements: List[PauliMeasurement] = field(default_factory=list)
    absorbed_cliffords: int = 0

    @property
    def t_rotation_count(self) -> int:
        """Number of magic-state-consuming rotations (n_T for Eq. 2)."""
        return sum(1 for r in self.rotations if r.is_t_type)

    def max_weight(self) -> int:
        """Largest rotation support — drives the PPR layout footprint."""
        weights = [r.weight() for r in self.rotations]
        weights += [m.pauli.weight() for m in self.measurements]
        return max(weights, default=0)

    def summary(self) -> str:
        return (
            f"PPR program: {len(self.rotations)} rotations "
            f"({self.t_rotation_count} pi/8), "
            f"{len(self.measurements)} measurements, "
            f"{self.absorbed_cliffords} Cliffords absorbed, "
            f"max weight {self.max_weight()}"
        )


def _rotation_for_gate(gate: Gate, num_qubits: int) -> Optional[PauliRotation]:
    """Map a non-Clifford gate to its Pauli rotation, or None for Cliffords."""
    if gate.name == g.T:
        return PauliRotation(
            PauliString.single(num_qubits, gate.qubits[0], "Z"), math.pi / 8, T_ROTATION
        )
    if gate.name == g.TDG:
        return PauliRotation(
            PauliString.single(num_qubits, gate.qubits[0], "Z"), -math.pi / 8, T_ROTATION
        )
    if gate.name in g.PARAMETRIC and gate.is_t_like:
        assert gate.param is not None
        letter = "Z" if gate.name == g.RZ else "X"
        theta = gate.param / 2.0  # rz(a) = exp(-i a/2 Z)
        denominator = T_ROTATION if is_multiple_of(
            normalize_angle(gate.param), math.pi / 4
        ) else 0
        return PauliRotation(
            PauliString.single(num_qubits, gate.qubits[0], letter), theta, denominator
        )
    return None


def _clifford_sequence(gate: Gate) -> List[Gate]:
    """Express Clifford rotations (rz/rx multiples of pi/2) as named gates."""
    if gate.name not in g.PARAMETRIC:
        return [gate]
    assert gate.param is not None
    (qubit,) = gate.qubits
    theta = normalize_angle(gate.param)
    quarter_turns = int(round(theta / (math.pi / 2))) % 4
    z_names = {0: [], 1: [g.S], 2: [g.Z], 3: [g.SDG]}[quarter_turns]
    names = z_names if gate.name == g.RZ else None
    if names is None:
        # rx = H rz H
        return (
            [g.interned(g.H, (qubit,))]
            + [g.interned(n, (qubit,)) for n in z_names]
            + [g.interned(g.H, (qubit,))]
        )
    return [g.interned(n, (qubit,)) for n in names]


def transpile_to_ppr(circuit: Circuit, measure_all: bool = True) -> PprProgram:
    """Rewrite a Clifford+T circuit into pi/8 rotations + measurements.

    Walks the circuit front to back keeping the list of Clifford gates seen
    so far; each non-Clifford rotation's axis is conjugated by that prefix
    (pushing the Cliffords past it), exactly as Litinski's procedure.  The
    accumulated Clifford tail is finally absorbed into the measurements.
    """
    program = PprProgram(num_qubits=circuit.num_qubits)
    clifford_prefix: List[Gate] = []

    for gate in circuit:
        if gate.name in (g.BARRIER, g.MEASURE):
            continue
        rotation = _rotation_for_gate(gate, circuit.num_qubits)
        if rotation is None:
            for named in _clifford_sequence(gate):
                clifford_prefix.append(named)
                program.absorbed_cliffords += 1
            continue
        # Conjugate the axis by the *inverse order* prefix: moving the
        # rotation left past C turns exp(-i t P) C into C exp(-i t C†PC).
        axis = rotation.pauli
        for clifford in reversed(clifford_prefix):
            axis = axis.conjugated_by(clifford.dagger())
        sign = -1.0 if axis.phase == 2 else 1.0
        if axis.phase in (1, 3):
            raise RuntimeError("Pauli axis acquired imaginary phase")
        axis = PauliString(axis.x, axis.z, 0)
        program.rotations.append(
            PauliRotation(axis, sign * rotation.theta, rotation.denominator)
        )

    if measure_all:
        for qubit in range(circuit.num_qubits):
            axis = PauliString.single(circuit.num_qubits, qubit, "Z")
            for clifford in reversed(clifford_prefix):
                axis = axis.conjugated_by(clifford.dagger())
            axis = PauliString(axis.x, axis.z, 0)
            program.measurements.append(PauliMeasurement(axis))
    return program


def rotation_axes_profile(program: PprProgram) -> Tuple[int, int, int]:
    """Count rotations whose axis is all-Z, all-X/Y-free... profile used in
    Sec. VII-C's discussion of ``Z⊗I…⊗Z`` patterns.

    Returns:
        (pure_z, contains_identity_gaps, other) counts over T-type rotations.
    """
    pure_z = gaps = other = 0
    for rotation in program.rotations:
        if not rotation.is_t_type:
            continue
        label = rotation.pauli.label()
        support = rotation.pauli.support()
        if set(label) <= {"I", "Z"}:
            if support and (max(support) - min(support) + 1) != len(support):
                gaps += 1
            else:
                pure_z += 1
        else:
            other += 1
    return pure_z, gaps, other
