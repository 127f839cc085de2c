"""Real arithmetic circuits: ripple-carry adder and shift-add multiplier.

These are exact, runnable constructions (CDKM majority/unmajority ripple
adder and a controlled-addition multiplier) expressed over Clifford+T via
the seven-T Toffoli decomposition.  They complement the Table-I-calibrated
QASMBench generators in :mod:`repro.workloads.qasmbench`: the fixed-count
generators reproduce the paper's exact benchmark sizes, while these scale
with operand width for broader studies.
"""

from __future__ import annotations

from ..ir.circuit import Circuit
from ..synthesis.decompositions import toffoli


def cdkm_adder(num_bits: int) -> Circuit:
    """CDKM ripple-carry adder: ``|a>|b> -> |a>|a+b>``.

    Register layout: qubit 0 is the incoming carry ancilla, qubits
    ``1..n`` hold ``b``, qubits ``n+1..2n`` hold ``a``, and qubit ``2n+1``
    receives the carry-out.  Total ``2*num_bits + 2`` qubits.

    Uses the MAJ / UMA ladder (Cuccaro-Draper-Kutin-Moulton 2004) with
    each Toffoli expanded into the seven-T decomposition.
    """
    if num_bits < 1:
        raise ValueError("need at least one bit")
    n = num_bits
    total = 2 * n + 2
    qc = Circuit(total, name=f"cdkm_adder_{n}bit")

    def a(i: int) -> int:
        return n + 1 + i

    def b(i: int) -> int:
        return 1 + i

    carry_in = 0
    carry_out = 2 * n + 1

    def maj(c: int, y: int, x: int) -> None:
        qc.cx(x, y)
        qc.cx(x, c)
        qc.extend(toffoli(c, y, x))

    def uma(c: int, y: int, x: int) -> None:
        qc.extend(toffoli(c, y, x))
        qc.cx(x, c)
        qc.cx(c, y)

    maj(carry_in, b(0), a(0))
    for i in range(1, n):
        maj(a(i - 1), b(i), a(i))
    qc.cx(a(n - 1), carry_out)
    for i in range(n - 1, 0, -1):
        uma(a(i - 1), b(i), a(i))
    uma(carry_in, b(0), a(0))
    return qc


def shift_add_multiplier(num_bits: int) -> Circuit:
    """Schoolbook multiplier ``|a>|b>|0> -> |a>|b>|a*b mod 2^n>``.

    Register layout (total ``4n + 1`` qubits): ``a`` in ``0..n-1``, ``b``
    in ``n..2n-1``, the truncated product accumulator in ``2n..3n-1``, a
    ripple-carry register in ``3n..4n-1`` and one partial-product ancilla.
    Every partial product ``a_i AND b_j`` is computed into the ancilla with
    a Toffoli and added into the accumulator with standard full-adder
    cells (two Toffolis + two CNOTs per bit), then uncomputed.
    """
    if num_bits < 1:
        raise ValueError("need at least one bit")
    n = num_bits
    qc = Circuit(4 * n + 1, name=f"shift_add_multiplier_{n}bit")
    a = list(range(n))
    b = list(range(n, 2 * n))
    prod = list(range(2 * n, 3 * n))
    carry = list(range(3 * n, 4 * n))
    anc = 4 * n

    for i in range(n):
        for j in range(n - i):
            k = i + j
            qc.extend(toffoli(a[i], b[j], anc))  # anc = partial product bit
            # Full-adder ripple: add anc into prod[k..n-1] with carries.
            qc.extend(toffoli(anc, prod[k], carry[k]))
            qc.cx(anc, prod[k])
            for u in range(k + 1, n):
                qc.extend(toffoli(carry[u - 1], prod[u], carry[u]))
                qc.cx(carry[u - 1], prod[u])
            # Uncompute carries (truncated product drops the overflow).
            for u in range(n - 1, k, -1):
                qc.extend(toffoli(carry[u - 1], prod[u], carry[u]))
            qc.extend(toffoli(anc, prod[k], carry[k]))
            qc.extend(toffoli(a[i], b[j], anc))  # uncompute the ancilla
    return qc


def adder(num_bits: int) -> Circuit:
    """Alias for :func:`cdkm_adder` (the default adder construction)."""
    return cdkm_adder(num_bits)
