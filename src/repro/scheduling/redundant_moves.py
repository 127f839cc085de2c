"""Redundant move elimination (paper Sec. V-D).

Greedy per-gate planning frequently produces *inverse move pairs*: a qubit
is pushed from r_i to r_j (e.g. evicted out of a route) and later moved
straight back with no intervening use — ``U†(ri->rj) U(rj->ri) = I``.  This
scheduling-stage pass finds such pairs in the committed schedule, removes
them, and re-times the remaining operations (see
:mod:`repro.scheduling.resim`), shortening execution without changing the
computation.  It reads :meth:`Schedule.columns` and builds no op: the
pruned schedule is the input's columns under a keep mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Dict, List, Tuple

from ..arch.grid import Position
from ..ir import gates as g
from ..perf.profiler import profiled
from .events import MOVE_KINDS, Schedule


@dataclass(frozen=True)
class EliminationReport:
    """Outcome of one elimination pass."""

    removed_pairs: int
    ops_before: int
    ops_after: int

    @property
    def moves_removed(self) -> int:
        return 2 * self.removed_pairs


def find_redundant_pairs(schedule: Schedule) -> List[Tuple[int, int]]:
    """Indices (into ``schedule.ops``) of cancellable inverse move pairs.

    A pair (i, j), i < j, cancels when:

    * both are unit moves of the same qubit, with op_j exactly inverting
      op_i (``A -> B`` then ``B -> A``);
    * no other op between them involves that qubit (the qubit never used
      position B for work);
    * no op between them locks cell A or cell B (nothing routed through
      either endpoint, so leaving the qubit parked at A is safe).
    """
    _, kinds, names, qubit_col, cell_col, *_ = schedule.columns()
    pairs: List[Tuple[int, int]] = []
    # Pending unmatched move per qubit: (index, origin, dest).
    pending: Dict[int, Tuple[int, Position, Position]] = {}
    # A pending pair is invalidated by later activity; rather than growing a
    # dirty-set per pending qubit (quadratic in schedule length), track the
    # last op index that used each qubit / locked each cell and compare
    # against the pending move's index.
    last_use: Dict[int, int] = {}
    last_touch: Dict[Position, int] = {}

    for idx, kind, name, qubits, cells in zip(
        count(), kinds, names, qubit_col, cell_col
    ):
        if kind in MOVE_KINDS and name == g.MOVE and len(cells) == 2:
            (qubit,) = qubits
            origin, dest = cells
            prior = pending.get(qubit)
            if (
                prior is not None
                and last_use.get(qubit, -1) <= prior[0]
                and prior[1] == dest
                and prior[2] == origin
                and last_touch.get(origin, -1) <= prior[0]
                and last_touch.get(dest, -1) <= prior[0]
            ):
                pairs.append((prior[0], idx))
                del pending[qubit]
                # Cancelled pairs vanish from the schedule, so they do not
                # invalidate other qubits' pending moves.
                continue
            pending[qubit] = (idx, origin, dest)
            last_touch[origin] = idx
            last_touch[dest] = idx
            continue
        for qubit in qubits:
            last_use[qubit] = idx
        for cell in cells:
            last_touch[cell] = idx
    return pairs


@profiled("optimize.eliminate")
def eliminate_redundant_moves(schedule: Schedule) -> Tuple[Schedule, EliminationReport]:
    """Remove inverse move pairs; the result needs re-timing via resim.

    Returns the pruned (still original-timed) schedule and a report.
    """
    pairs = find_redundant_pairs(schedule)
    columns = schedule.columns()
    ops_before = len(schedule)
    if pairs:
        keep = bytearray(b"\x01") * ops_before
        for i, j in pairs:
            keep[i] = keep[j] = 0
        columns = [list(compress(column, keep)) for column in columns]
    pruned = Schedule.from_columns(columns)
    return pruned, EliminationReport(len(pairs), ops_before, len(pruned))
