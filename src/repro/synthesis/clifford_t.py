"""Rz -> Clifford+T synthesis cost models.

The paper's lower bound (Eq. 2) is driven by ``n_T``, the number of magic
states a circuit consumes.  Explicit T/Tdg gates consume one each; arbitrary
Rz rotations must first be synthesised over Clifford+T.  The paper accounts
each benchmark Rz as one magic state (its Table I counts Rz gates directly
and the evaluation scales with them); we expose that as the default model
and additionally provide a gridsynth-style logarithmic model for
precision-parameterised resource estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..ir import gates as g
from ..ir.circuit import Circuit
from ..ir.gates import Gate, is_multiple_of, normalize_angle


@dataclass(frozen=True)
class SynthesisModel:
    """T-cost model for non-Clifford single-qubit rotations.

    Attributes:
        name: model identifier.
        t_per_rotation: fixed T-count charged per non-Clifford rotation when
            ``per_epsilon`` is False.
        per_epsilon: when True, charge ``ceil(c0 + c1 * log2(1/epsilon))``
            T gates per rotation instead (Ross-Selinger style scaling).
        c0 / c1 / epsilon: parameters of the logarithmic model.
    """

    name: str = "single_t"
    t_per_rotation: int = 1
    per_epsilon: bool = False
    c0: float = 0.0
    c1: float = 3.0
    epsilon: float = 1e-10

    @classmethod
    def single_t(cls) -> "SynthesisModel":
        """One magic state per non-Clifford rotation (paper accounting)."""
        return cls(name="single_t", t_per_rotation=1)

    @classmethod
    def fixed(cls, t_per_rotation: int) -> "SynthesisModel":
        """A constant T-count per rotation."""
        if t_per_rotation < 1:
            raise ValueError("t_per_rotation must be >= 1")
        return cls(name=f"fixed_{t_per_rotation}", t_per_rotation=t_per_rotation)

    @classmethod
    def gridsynth(cls, epsilon: float = 1e-10, c0: float = 0.0, c1: float = 3.0) -> "SynthesisModel":
        """Ross-Selinger style ``c0 + c1*log2(1/eps)`` T gates per rotation."""
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        return cls(name="gridsynth", per_epsilon=True, c0=c0, c1=c1, epsilon=epsilon)

    def t_cost(self, gate: Gate) -> int:
        """Magic states consumed by ``gate`` under this model."""
        if gate.name in g.T_LIKE:
            return 1
        if not gate.is_t_like:
            return 0
        if self.per_epsilon:
            return max(1, math.ceil(self.c0 + self.c1 * math.log2(1.0 / self.epsilon)))
        return self.t_per_rotation

    def circuit_t_count(self, circuit: Circuit) -> int:
        """Total magic states consumed by ``circuit``."""
        return sum(self.t_cost(gate) for gate in circuit)


def clifford_rz_replacement(theta: float) -> List[str]:
    """Gate names replacing an Rz whose angle is a multiple of pi/2.

    >>> clifford_rz_replacement(math.pi)
    ['z']
    """
    theta = normalize_angle(theta)
    if not is_multiple_of(theta, math.pi / 2):
        raise ValueError("angle is not a Clifford rotation")
    quarter_turns = int(round(theta / (math.pi / 2))) % 4
    return {0: [], 1: [g.S], 2: [g.Z], 3: [g.SDG]}[quarter_turns]


def rz_to_clifford_t(theta: float, qubit: int) -> List[Gate]:
    """Exact Clifford+T expansion for angles that are multiples of pi/4.

    Multiples of pi/2 become S/Z/Sdg; odd multiples of pi/4 become a T or
    Tdg possibly composed with a Clifford.  Other angles raise ValueError —
    those must go through an approximate synthesis model.
    """
    theta = normalize_angle(theta)
    if is_multiple_of(theta, math.pi / 2):
        return [g.interned(name, (qubit,)) for name in clifford_rz_replacement(theta)]
    if not is_multiple_of(theta, math.pi / 4):
        raise ValueError(f"angle {theta} is not an exact Clifford+T rotation")
    eighth_turns = int(round(theta / (math.pi / 4))) % 8  # odd here
    # rz(k*pi/4) = rz((k-1)*pi/4) . T  with (k-1) even
    clifford_part = clifford_rz_replacement((eighth_turns - 1) * math.pi / 4)
    return [g.interned(g.T, (qubit,))] + [
        g.interned(name, (qubit,)) for name in clifford_part
    ]


def decompose_rotations(circuit: Circuit, model: SynthesisModel) -> Circuit:
    """Lower every Rz/Rx to the Clifford+T gate set.

    Exact pi/4-multiple angles expand exactly.  Generic angles are replaced
    by a representative T-gate ladder of length ``model.t_cost`` interleaved
    with Hadamards — the standard stand-in sequence whose scheduling
    behaviour (serial magic-state consumptions on one qubit) matches real
    synthesised sequences.
    """
    lowered = Circuit(circuit.num_qubits, name=f"{circuit.name}_clifford_t")
    for gate in circuit:
        if gate.name not in g.PARAMETRIC:
            lowered.append(gate)
            continue
        assert gate.param is not None
        (qubit,) = gate.qubits
        basis_change = gate.name == g.RX
        if basis_change:
            lowered.h(qubit)
        theta = normalize_angle(gate.param)
        if is_multiple_of(theta, math.pi / 4):
            lowered.extend(rz_to_clifford_t(theta, qubit))
        else:
            cost = model.t_cost(g.interned(g.RZ, (qubit,), theta))
            for i in range(cost):
                lowered.t(qubit)
                if i + 1 < cost:
                    lowered.h(qubit)
        if basis_change:
            lowered.h(qubit)
    return lowered


def validate_clifford_t(circuit: Circuit) -> bool:
    """True when every gate is Clifford, T-like, measure or barrier."""
    for gate in circuit:
        if gate.name in g.PARAMETRIC:
            assert gate.param is not None
            if not is_multiple_of(gate.param, math.pi / 4):
                return False
        elif gate.name not in (
            g.CLIFFORD_1Q | g.CLIFFORD_2Q | g.T_LIKE | {g.MEASURE, g.BARRIER}
        ):
            return False
    return True
