"""Re-time a schedule after structural edits (list-scheduling replay).

After redundant-move elimination the remaining operations keep their order
but can generally start earlier.  ``resimulate`` replays the schedule's
columns with the same resource rules the scheduler used — per-qubit
timelines, per-cell locks and external release times (``min_start``, which
preserves magic-state availability) — writing a new start column of each
op's earliest feasible start.
"""

from __future__ import annotations

from typing import Dict, List

from ..arch.grid import Position
from ..perf.profiler import profiled
from .events import MOVE_KINDS, Schedule, TableColumn


@profiled("optimize.resim")
def resimulate(schedule: Schedule) -> Schedule:
    """Earliest-start replay of ``schedule`` preserving op order semantics.

    An op whose start does not move keeps its old start value (an int stays
    an int).  The table fields are interned over the result's own ops, so
    it encodes exactly as ``Schedule(ops)`` of the same ops would.
    """
    uid, kind, name, qubits, cells, starts, duration, min_start, gate_index, note = (
        schedule.columns()
    )
    qubit_free: Dict[int, float] = {}
    cell_free: Dict[Position, float] = {}
    retimed: List[float] = []
    append = retimed.append
    qget = qubit_free.get
    cget = cell_free.get
    for op_kind, op_qubits, op_cells, old, op_duration, start in zip(
        kind, qubits, cells, starts, duration, min_start
    ):
        # inline resource_cells(): moves lock only their destination
        if len(op_cells) == 2 and op_kind in MOVE_KINDS:
            resources = op_cells[1:]
        else:
            resources = op_cells
        for q in op_qubits:
            t = qget(q, 0.0)
            if t > start:
                start = t
        for c in resources:
            t = cget(c, 0.0)
            if t > start:
                start = t
        append(old if start == old else start)
        end = start + op_duration
        for q in op_qubits:
            qubit_free[q] = end
        for c in resources:
            cell_free[c] = end
    kind, name, qubits, cells, note = (
        TableColumn.of(list(column)) for column in (kind, name, qubits, cells, note)
    )
    return Schedule.from_columns(
        (uid, kind, name, qubits, cells, retimed, duration, min_start, gate_index, note)
    )


def optimize_schedule(schedule: Schedule):
    """Full scheduling-stage optimisation: prune inverse moves, then re-time.

    With the ``REPRO_VALIDATE`` environment variable set, the re-timed
    schedule is replay-checked on the spot (qubit timelines, cell locks,
    ``min_start`` floors) — a debug assertion that localises a broken
    optimisation pass to this stage rather than to some downstream metric.

    Returns:
        (optimised schedule, elimination report)
    """
    from ..verify.validator import env_forced
    from .redundant_moves import eliminate_redundant_moves

    pruned, report = eliminate_redundant_moves(schedule)
    optimised = resimulate(pruned)
    if env_forced():
        optimised.validate()
    return optimised, report
