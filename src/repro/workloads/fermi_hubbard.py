"""Fermi-Hubbard model Trotter circuits on a 2D lattice.

Single Trotter step of a spinless-fermion Hubbard layer in the
Jordan-Wigner picture restricted to disjoint term pairs (the standard
"brick" pattern that keeps every term nearest-neighbour on the lattice):

* **hopping** terms ``(X_i X_j + Y_i Y_j)/2`` on a set of disjoint
  horizontal bonds (one per site pair — ``side**2 / 2`` bonds);
* **interaction** terms ``Z_i Z_j`` on a set of disjoint vertical bonds.

For the 10x10 lattice (50 hopping + 50 interaction bonds) this reproduces
Table I exactly: H 400, CNOT 300, S 100, S† 100, Rz 150.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

from ..ir.circuit import Circuit
from ..synthesis.decompositions import xx_rotation, yy_rotation, zz_rotation

DEFAULT_HOP_ANGLE = math.pi / 6
DEFAULT_INT_ANGLE = math.pi / 10


def hopping_bonds(side: int) -> Iterator[Tuple[int, int]]:
    """Disjoint horizontal bonds: (2c, 2c+1) pairs in every row."""
    for r in range(side):
        for c in range(0, side - 1, 2):
            a = r * side + c
            yield (a, a + 1)


def interaction_bonds(side: int) -> Iterator[Tuple[int, int]]:
    """Disjoint vertical bonds: (2r, 2r+1) row pairs in every column."""
    for r in range(0, side - 1, 2):
        for c in range(side):
            a = r * side + c
            yield (a, a + side)


def fermi_hubbard_2d(
    side: int,
    hop_angle: float = DEFAULT_HOP_ANGLE,
    int_angle: float = DEFAULT_INT_ANGLE,
) -> Circuit:
    """Single Trotter step of the 2D Fermi-Hubbard brick layer.

    Args:
        side: lattice side (even values match the paper's sizes 2..10).
        hop_angle: rotation angle of each hopping term.
        int_angle: rotation angle of each interaction term.
    """
    if side < 2:
        raise ValueError("need side >= 2")
    n = side * side
    qc = Circuit(n, name=f"fermi_hubbard_2d_{side}x{side}")
    for a, b in hopping_bonds(side):
        qc.extend(xx_rotation(hop_angle, a, b))
        qc.extend(yy_rotation(hop_angle, a, b))
    for a, b in interaction_bonds(side):
        qc.extend(zz_rotation(int_angle, a, b))
    return qc
