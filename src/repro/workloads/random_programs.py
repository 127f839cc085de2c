"""Seeded random program families (fuzzing inputs and stress workloads).

The paper's 18-benchmark suite exercises the compiler on *structured*
programs; the fuzzing subsystem (:mod:`repro.fuzz`) needs unstructured ones
whose shape varies wildly while staying valid by construction.  Both
families here are deterministic in their ``seed`` and stable across Python
versions (they draw from a local xorshift-style generator rather than
:mod:`random`, following :func:`repro.ir.circuit.random_clifford_t`).

``random_mixed_stream``
    A flat gate stream over the full front-end gate set — Cliffords,
    T/Tdg, Rz/Rx (tidy pi/4-multiples and generic angles), CX/CZ/SWAP —
    with optional scheduling barriers and a trailing measurement block.
``random_rotation_layers``
    PPR-style programs: alternating layers of single-qubit rotations and
    a brick pattern of entanglers, the shape Pauli-product-rotation
    pipelines (Litinski normal form) produce.
``random_qaoa_layers``
    QAOA ansätze over random problem graphs: per layer a cost block of
    ZZ interactions (CX - Rz - CX) over the graph's edges followed by a
    transverse mixer (Rx on every qubit).  The interaction graph — not
    just the angles — varies with the seed, so delivery pressure and
    CNOT congestion differ per instance.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..ir import gates as g
from ..ir.circuit import Circuit

#: rotation angles used by the random families: Clifford multiples, exact
#: Clifford+T multiples, and generic angles that exercise the synthesis
#: accounting (non-multiples of pi/4).
ROTATION_ANGLES = (
    math.pi / 2,
    -math.pi / 2,
    math.pi,
    math.pi / 4,
    -math.pi / 4,
    3 * math.pi / 4,
    7 * math.pi / 4,
    math.pi / 8,
    0.3,
    -1.234567,
    2 * math.pi,
)


def _make_rng(seed: int) -> Callable[[int], int]:
    """A tiny deterministic generator: ``draw(n)`` yields ints in [0, n)."""
    state = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF

    def draw(n: int) -> int:
        nonlocal state
        # xorshift64* — stable across platforms, good enough for fuzzing
        state ^= (state >> 12) & 0xFFFFFFFFFFFFFFFF
        state = (state ^ (state << 25)) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        return ((state * 0x2545F4914F6CDD1D) >> 32) % n

    return draw


def random_mixed_stream(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    barrier_every: Optional[int] = None,
    measure_tail: bool = False,
    name: Optional[str] = None,
) -> Circuit:
    """A flat random program over the full supported gate set.

    Args:
        num_qubits: register width (>= 2).
        num_gates: gates to emit (barriers and measurements come on top).
        seed: deterministic generator seed.
        barrier_every: insert a whole-register barrier after every this
            many gates (None: no barriers).
        measure_tail: end with a measurement of every qubit.
        name: circuit name (defaults to a seed-derived one).
    """
    if num_qubits < 2:
        raise ValueError("random programs need at least two qubits")
    if num_gates < 0:
        raise ValueError("negative gate count")
    draw = _make_rng(seed)
    qc = Circuit(
        num_qubits, name=name or f"mixed_{num_qubits}q_{num_gates}g_s{seed}"
    )
    one_qubit = [g.h, g.s, g.sdg, g.x, g.y, g.z, g.sx, g.t, g.tdg]
    for i in range(num_gates):
        roll = draw(100)
        a = draw(num_qubits)
        if roll < 30:  # two-qubit gate
            b = draw(num_qubits - 1)
            if b >= a:
                b += 1
            two = draw(10)
            if two < 6:
                qc.cx(a, b)
            elif two < 9:
                qc.cz(a, b)
            else:
                qc.swap(a, b)
        elif roll < 50:  # rotation (tidy or generic angle)
            theta = ROTATION_ANGLES[draw(len(ROTATION_ANGLES))]
            if draw(2):
                qc.rz(theta, a)
            else:
                qc.rx(theta, a)
        else:  # plain one-qubit gate
            qc.append(one_qubit[draw(len(one_qubit))](a))
        if barrier_every and (i + 1) % barrier_every == 0 and i + 1 < num_gates:
            qc.barrier()
    if measure_tail:
        qc.measure_all()
    return qc


def random_rotation_layers(
    num_qubits: int,
    num_layers: int,
    seed: int = 0,
    rotation_fraction: float = 0.7,
    barrier_between: bool = False,
    name: Optional[str] = None,
) -> Circuit:
    """A PPR-style layered program: rotations then a brick of entanglers.

    Each layer rotates a random subset of qubits (Rz or Rx, angles from
    :data:`ROTATION_ANGLES`) and then entangles alternating neighbour
    pairs — the dependency shape a transpiled Pauli-product-rotation
    sequence presents to the scheduler.

    Args:
        num_qubits: register width (>= 2).
        num_layers: rotation/entangler layer count.
        seed: deterministic generator seed.
        rotation_fraction: probability each qubit is rotated in a layer.
        barrier_between: serialise layers with whole-register barriers.
        name: circuit name (defaults to a seed-derived one).
    """
    if num_qubits < 2:
        raise ValueError("random programs need at least two qubits")
    if num_layers < 0:
        raise ValueError("negative layer count")
    if not 0.0 <= rotation_fraction <= 1.0:
        raise ValueError("rotation_fraction must lie in [0, 1]")
    draw = _make_rng(seed ^ 0x5EED)
    qc = Circuit(
        num_qubits, name=name or f"layers_{num_qubits}q_{num_layers}l_s{seed}"
    )
    threshold = int(rotation_fraction * 1000)
    for layer in range(num_layers):
        for q in range(num_qubits):
            if draw(1000) < threshold:
                theta = ROTATION_ANGLES[draw(len(ROTATION_ANGLES))]
                if draw(2):
                    qc.rz(theta, q)
                else:
                    qc.rx(theta, q)
        offset = layer % 2
        for q in range(offset, num_qubits - 1, 2):
            qc.cx(q, q + 1)
        if barrier_between and layer + 1 < num_layers:
            qc.barrier()
    return qc


def random_qaoa_layers(
    num_qubits: int,
    num_layers: int,
    seed: int = 0,
    edge_fraction: float = 0.5,
    name: Optional[str] = None,
) -> Circuit:
    """A QAOA ansatz over a random problem graph.

    Each layer applies the cost Hamiltonian — one ZZ interaction
    (CX, Rz(gamma), CX) per edge of a seed-drawn graph — and then the
    transverse-field mixer (Rx(beta) on every qubit).  The graph is
    sampled once and shared by all layers, as in real QAOA: the same
    qubit pairs contend for alignment every layer, which is exactly the
    repeated-interaction pressure the benchmark suite's Trotter circuits
    show and flat random streams do not.

    Args:
        num_qubits: register width (>= 2).
        num_layers: QAOA depth p (cost + mixer repetitions).
        seed: deterministic generator seed.
        edge_fraction: fraction of all qubit pairs included as edges (at
            least a spanning path is always kept so no qubit idles).
        name: circuit name (defaults to a seed-derived one).
    """
    if num_qubits < 2:
        raise ValueError("random programs need at least two qubits")
    if num_layers < 0:
        raise ValueError("negative layer count")
    if not 0.0 <= edge_fraction <= 1.0:
        raise ValueError("edge_fraction must lie in [0, 1]")
    draw = _make_rng(seed ^ 0xA0A0)
    qc = Circuit(
        num_qubits, name=name or f"qaoa_{num_qubits}q_{num_layers}p_s{seed}"
    )
    # Problem graph: a spanning path (connectivity floor) plus extra pairs.
    edges = [(q, q + 1) for q in range(num_qubits - 1)]
    extra = [
        (a, b)
        for a in range(num_qubits)
        for b in range(a + 2, num_qubits)
    ]
    threshold = int(edge_fraction * 1000)
    edges.extend(pair for pair in extra if draw(1000) < threshold)
    for _ in range(num_layers):
        gamma = ROTATION_ANGLES[draw(len(ROTATION_ANGLES))]
        for a, b in edges:
            qc.cx(a, b)
            qc.rz(gamma, b)
            qc.cx(a, b)
        beta = ROTATION_ANGLES[draw(len(ROTATION_ANGLES))]
        for q in range(num_qubits):
            qc.rx(beta, q)
    return qc
