"""Standard gate decompositions into the Clifford+T set.

The arithmetic workloads (adder, multiplier) are built from Toffoli and
controlled-phase primitives; these helpers expand them into the gate set the
compiler schedules.  All decompositions are textbook-exact.
"""

from __future__ import annotations

from typing import List

from ..ir import gates as g
from ..ir.circuit import Circuit
from ..ir.gates import Gate


def toffoli(a: int, b: int, target: int) -> List[Gate]:
    """Seven-T Toffoli decomposition (Nielsen & Chuang Fig. 4.9)."""
    return [
        g.h(target),
        g.cx(b, target),
        g.tdg(target),
        g.cx(a, target),
        g.t(target),
        g.cx(b, target),
        g.tdg(target),
        g.cx(a, target),
        g.t(b),
        g.t(target),
        g.h(target),
        g.cx(a, b),
        g.t(a),
        g.tdg(b),
        g.cx(a, b),
    ]


def controlled_phase(theta: float, control: int, target: int) -> List[Gate]:
    """CP(theta) = Rz(theta/2)⊗Rz(theta/2) · CX·Rz(-theta/2)·CX (up to phase)."""
    return [
        g.rz(theta / 2.0, control),
        g.rz(theta / 2.0, target),
        g.cx(control, target),
        g.rz(-theta / 2.0, target),
        g.cx(control, target),
    ]


def controlled_rz(theta: float, control: int, target: int) -> List[Gate]:
    """Controlled-Rz via two CNOTs and two half-angle rotations."""
    return [
        g.rz(theta / 2.0, target),
        g.cx(control, target),
        g.rz(-theta / 2.0, target),
        g.cx(control, target),
    ]


def zz_rotation(theta: float, a: int, b: int) -> List[Gate]:
    """exp(-i theta/2 Z⊗Z) as CX · Rz(theta) · CX."""
    return [g.cx(a, b), g.rz(theta, b), g.cx(a, b)]


def xx_rotation(theta: float, a: int, b: int) -> List[Gate]:
    """exp(-i theta/2 X⊗X): Hadamard basis change around a ZZ rotation."""
    return [g.h(a), g.h(b)] + zz_rotation(theta, a, b) + [g.h(a), g.h(b)]


def yy_rotation(theta: float, a: int, b: int) -> List[Gate]:
    """exp(-i theta/2 Y⊗Y): S†H basis change around a ZZ rotation."""
    pre = [g.sdg(a), g.sdg(b), g.h(a), g.h(b)]
    post = [g.h(a), g.h(b), g.s(a), g.s(b)]
    return pre + zz_rotation(theta, a, b) + post


def swap_via_cnots(a: int, b: int) -> List[Gate]:
    """SWAP as three CNOTs (used when the instruction set lacks swap)."""
    return [g.cx(a, b), g.cx(b, a), g.cx(a, b)]


def expand_swaps(circuit: Circuit) -> Circuit:
    """Replace every swap gate by three CNOTs."""
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        if gate.name == g.SWAP:
            out.extend(swap_via_cnots(*gate.qubits))
        else:
            out.append(gate)
    return out
