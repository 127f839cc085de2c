"""Transverse-field Ising model Trotter circuits (1D chain and 2D grid).

Single first-order Trotter step of
``H = -J * sum_<ij> Z_i Z_j - h * sum_i X_i``:

* an initial Hadamard layer preparing ``|+>^n`` (the standard start state
  for quench dynamics);
* one ZZ rotation (CX-Rz-CX) per lattice edge;
* the transverse field as ``H Rz H`` on every site.

For the 10x10 lattice this reproduces the paper's Table I gate counts
exactly: CNOT 360 (2 per each of the 180 edges), Rz 280 (180 edge + 100
field rotations), H 300 (100 initial + 200 field basis changes).
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

from ..ir.circuit import Circuit
from ..synthesis.decompositions import zz_rotation

#: non-Clifford default angles (arbitrary generic Trotter step values).
DEFAULT_J_ANGLE = math.pi / 7
DEFAULT_H_ANGLE = math.pi / 5


def grid_edges(side: int) -> Iterator[Tuple[int, int]]:
    """Nearest-neighbour edges of a ``side x side`` square lattice.

    Sites are numbered row-major; horizontal edges first within each row,
    then vertical edges between rows, matching the order the Hamiltonian
    terms are usually Trotterised in.
    """
    for r in range(side):
        for c in range(side - 1):
            a = r * side + c
            yield (a, a + 1)
    for r in range(side - 1):
        for c in range(side):
            a = r * side + c
            yield (a, a + side)


def chain_edges(n: int) -> Iterator[Tuple[int, int]]:
    """Edges of an open 1D chain."""
    for i in range(n - 1):
        yield (i, i + 1)


def ising_2d(
    side: int,
    j_angle: float = DEFAULT_J_ANGLE,
    h_angle: float = DEFAULT_H_ANGLE,
    initial_layer: bool = True,
) -> Circuit:
    """Single Trotter step of the 2D transverse-field Ising model.

    Args:
        side: lattice side (paper sweeps 2..10, i.e. 4..100 qubits).
        j_angle: ZZ coupling rotation angle (non-Clifford by default).
        h_angle: transverse-field rotation angle.
        initial_layer: include the |+> preparation Hadamards (Table I's
            counts include them).
    """
    if side < 2:
        raise ValueError("need side >= 2")
    n = side * side
    qc = Circuit(n, name=f"ising_2d_{side}x{side}")
    if initial_layer:
        for q in range(n):
            qc.h(q)
    for a, b in grid_edges(side):
        qc.extend(zz_rotation(j_angle, a, b))
    for q in range(n):
        qc.h(q)
        qc.rz(h_angle, q)
        qc.h(q)
    return qc


def ising_1d(
    n: int,
    j_angle: float = DEFAULT_J_ANGLE,
    h_angle: float = DEFAULT_H_ANGLE,
    initial_layer: bool = True,
) -> Circuit:
    """Single Trotter step of the 1D transverse-field Ising chain."""
    if n < 2:
        raise ValueError("need n >= 2")
    qc = Circuit(n, name=f"ising_1d_{n}")
    if initial_layer:
        for q in range(n):
            qc.h(q)
    for a, b in chain_edges(n):
        qc.extend(zz_rotation(j_angle, a, b))
    for q in range(n):
        qc.h(q)
        qc.rz(h_angle, q)
        qc.h(q)
    return qc
