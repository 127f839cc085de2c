"""Seeded inputs: everything a workload sends is derived from ``--seed``.

The program under test receives only what these functions produce:
workload names with configs (the paper-suite matrix) and QASM text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: the fig9/fig11 matrix of ``repro bench``: (workload, routing paths, factories).
MATRIX: List[Tuple[str, int, int]] = [
    ("ising_2d_2x2", 3, 1),
    ("heisenberg_2d_2x2", 3, 1),
    ("fermi_hubbard_2d_2x2", 4, 1),
    ("ising_2d_4x4", 3, 1),
    ("ising_2d_4x4", 4, 2),
    ("ising_2d_4x4", 6, 4),
    ("heisenberg_2d_4x4", 3, 1),
    ("heisenberg_2d_4x4", 5, 2),
    ("fermi_hubbard_2d_4x4", 4, 1),
    ("fermi_hubbard_2d_4x4", 6, 2),
    ("ising_2d_6x6", 3, 1),
    ("ising_2d_6x6", 6, 2),
    ("heisenberg_2d_6x6", 4, 1),
    ("ising_2d_8x8", 4, 2),
    ("heisenberg_2d_8x8", 6, 2),
    ("ising_2d_10x10", 4, 2),
]

#: gateway-mixed working set: the eight cheapest matrix points.
WORKING_SET: List[Tuple[str, int, int]] = MATRIX[:8]

#: one fresh (cold) request in every block of this many requests.
COLD_EVERY = 10

#: shape of the fresh QAOA programs (about 20 ms to compile each).
QAOA_QUBITS = 8
QAOA_LAYERS = 2


def case_key(case: Tuple[str, int, int]) -> str:
    workload, paths, factories = case
    return f"{workload}/r{paths}/f{factories}"


def matrix_order(seed: int) -> List[Tuple[str, int, int]]:
    """The full matrix in a seed-shuffled order (the order of one pass)."""
    cases = list(MATRIX)
    random.Random(seed).shuffle(cases)
    return cases


@dataclass(frozen=True)
class Request:
    """One gateway-mixed request: a working-set point or a fresh program."""

    index: int
    warm: Optional[Tuple[str, int, int]] = None
    qaoa_seed: Optional[int] = None

    @property
    def cold(self) -> bool:
        return self.warm is None


def gateway_sequence(seed: int) -> Iterator[Request]:
    """The endless request sequence of one gateway-mixed run.

    Every block of :data:`COLD_EVERY` requests holds exactly one fresh
    program at a seeded position, so each pass of 100 requests carries
    the same 90/10 mix.  Warm requests draw a working-set point; fresh
    programs get QAOA seeds that are distinct within the run and differ
    between run seeds.
    """
    rng = random.Random(seed)
    base = (seed * 1_000_003) << 20
    index = 0
    fresh = 0
    while True:
        cold_slot = rng.randrange(COLD_EVERY)
        for slot in range(COLD_EVERY):
            if slot == cold_slot:
                yield Request(index, qaoa_seed=base + fresh)
                fresh += 1
            else:
                yield Request(index, warm=WORKING_SET[rng.randrange(len(WORKING_SET))])
            index += 1


def qaoa_program(qaoa_seed: int):
    """The fresh circuit for one cold request, as OpenQASM 2 text."""
    from repro.ir import qasm
    from repro.workloads.random_programs import random_qaoa_layers

    circuit = random_qaoa_layers(QAOA_QUBITS, QAOA_LAYERS, seed=qaoa_seed)
    return qasm.dumps(circuit)
