"""Replay validator: independently re-check a compiled :class:`Schedule`.

The scheduler and the Sec. V-D re-timing pass each keep their own resource
bookkeeping; nothing here reuses it.  The validator re-derives, from
first principles, every invariant an executable lattice-surgery schedule
must satisfy:

* per-qubit timelines are exclusive and in schedule order;
* every cell in an op's :meth:`~repro.scheduling.events.ScheduledOp.resource_cells`
  footprint is locked exclusively for the op's duration;
* ops never start before their declared external release (``min_start``);
* the source circuit's program order, read in one walk of its gate stream
  (no DAG is built), is respected — wire dependencies per shared qubit,
  barrier pseudo-edges by full serialisation;
* every gate of the circuit materialised into at least one op, and no op
  references a gate outside the circuit;
* magic states are conserved per factory: the k-th earliest consumption
  attributed to a factory cannot start before ``k * distill_time`` (the
  distillation pipeline's hard lower bound — a state consumed before its
  round completes, or consumed twice, compresses the sequence below it),
  and the total number of consumptions matches the circuit's T-count.

How a schedule is read
----------------------
Every check reads the schedule's columns
(:meth:`~repro.scheduling.events.Schedule.columns`), never its
:class:`~repro.scheduling.events.ScheduledOp` list, so a compiled result
or a cache hit is validated without building one op.  A fact that depends on one
table value alone is worked out once per table row: whether a kind is a
move, whether a gate name needs an ancilla cell, the factory a note
names, the cells a ``(kind, cells)`` pair locks.  The per-op work is one
fused pass (per-qubit timelines, per-cell time order, per-gate and qubit
extents) plus C-level ``map``/``all``/``compress`` screens over the
columns.  A screen that finds something hands its check to a walk over
the ops in schedule order, so the report (violation order, codes,
messages, counts) is exactly what an op-by-op walk produces;
``tests/test_reference_oracles.py`` keeps such a walk as the oracle.

Use :func:`validate_schedule` for raw schedules, or
:func:`validate_result` to check a full
:class:`~repro.compiler.result.CompilationResult` against the circuit and
config that produced it.
"""

from __future__ import annotations

import math
import os
from array import array
from itertools import compress, count, islice, repeat
from operator import add, getitem, le, lt, mul
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..arch.grid import Position
from ..ir import gates as g
from ..ir.circuit import Circuit
from ..perf.profiler import profiled
from ..scheduling.events import (
    MOVE_KINDS,
    Schedule,
    TableColumn,
    magic_factory,
    resource_cells,
)
from .report import ValidationError, ValidationReport, Violation

#: tolerance for float time comparisons (schedule times are sums of small
#: rational latencies, so anything below 1e-6 is noise, not a conflict).
EPS = 1e-6

#: gate mnemonics whose scheduled op must lock at least one ancilla cell
#: even without DAG context (H/SX need a neighbour, CX/CZ a merge ancilla,
#: T/Tdg a magic-state drop cell).
_CELL_REQUIRED = frozenset({g.H, g.SX, g.SXDG, g.CX, g.CZ, g.T, g.TDG})

#: op kinds whose footprint must be an (origin, dest) cell pair.
_PAIR_KINDS = ("move", "evict", "restore", "route")


def env_forced() -> bool:
    """True when ``REPRO_VALIDATE`` forces validation (debug assertion mode).

    The single source of truth for the env-var convention — the compile
    pipeline and the post-``optimize_schedule`` assertion both consult it.
    """
    return os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


@profiled("verify.replay")
def validate_schedule(
    schedule: Schedule,
    circuit: Optional[Circuit] = None,
    distill_times: Optional[Mapping[int, float]] = None,
    expected_t_states: Optional[int] = None,
    label: str = "",
    eps: float = EPS,
) -> ValidationReport:
    """Run every applicable check; returns the structured report.

    Args:
        schedule: the schedule under test.
        circuit: source program; enables the dependency, barrier and
            coverage checks.
        distill_times: factory index -> distillation round time; enables the
            per-factory magic-state pipeline check.
        expected_t_states: total magic states the circuit consumes under
            the synthesis model; enables the conservation count check.
        label: free-form tag carried into the report (e.g. ``"raw"``).
        eps: float comparison tolerance.
    """
    program = None if circuit is None else _Program(circuit)
    validator = ScheduleValidator(schedule, eps=eps, label=label)
    validator.check_structure()
    validator.check_footprints(None if program is None else program.gates)
    validator.check_timelines()
    validator.check_cell_conflicts()
    validator.check_min_start()
    if program is not None:
        validator.check_dependencies(program)
    if distill_times is not None or expected_t_states is not None:
        validator.check_magic_states(distill_times or {}, expected_t_states)
    return validator.report


def config_distill_times(config) -> Dict[int, float]:
    """Factory index -> distillation time, as the validator consumes it.

    The single derivation shared by :func:`validate_result`, the compile
    pipeline's raw-stage assertion and the mutation self-tests.
    """
    factory_config = config.factory_config()
    return {
        index: factory_config.distill_time
        for index in range(config.num_factories)
    }


def validate_result(result, circuit: Circuit, config, label: str = "") -> ValidationReport:
    """Validate a :class:`CompilationResult` against its circuit and config."""
    return validate_schedule(
        result.schedule,
        circuit=circuit,
        distill_times=config_distill_times(config),
        expected_t_states=result.t_states,
        label=label,
    )


def _rows(column) -> Tuple[Sequence, Sequence[int]]:
    """``(table, row per op)`` of a column; a plain list is its own table."""
    if isinstance(column, TableColumn):
        return column.table, column.rows
    return column, range(len(column))


def _values(column) -> list:
    """A packed column as a list: one value object per op, as ops hold them."""
    return column.tolist() if isinstance(column, array) else column


class _Program:
    """The circuit's program order, from one walk of its gate stream.

    Gates are numbered as :class:`~repro.ir.dag.DagCircuit` numbers its
    nodes (barriers are not gates), and a gate's predecessor set gets the
    DAG node's insertions in their order, so the two sets iterate alike.
    ``barrier_preds`` maps a gate behind a barrier to the predecessors the
    barrier gives it; ``wires`` holds ``pred, gate, qubit`` flat for every
    other predecessor and every qubit the two gates share.
    """

    __slots__ = ("gates", "preds", "barrier_preds", "wires")

    def __init__(self, circuit: Circuit) -> None:
        self.gates: List[g.Gate] = []
        self.preds: List[set] = []
        self.barrier_preds: Dict[int, set] = {}
        self.wires: List[int] = []
        gates, preds, barrier_preds, wires = (
            self.gates, self.preds, self.barrier_preds, self.wires
        )
        last_on_wire: List[Optional[int]] = [None] * circuit.num_qubits
        # qubit -> the gates its next gate waits for behind a barrier
        pending: Dict[int, Tuple[int, ...]] = {}
        for gate in circuit:
            qubits = gate.qubits
            if gate.name == g.BARRIER:
                span = qubits or range(circuit.num_qubits)
                # consecutive barriers chain
                frontier = {last_on_wire[q] for q in span}.union(
                    *(pending.get(q, ()) for q in span)
                )
                frontier.discard(None)
                pending.update(dict.fromkeys(span, tuple(sorted(frontier))))
                continue
            index = len(gates)
            gates.append(gate)
            before = set()
            for qubit in qubits:
                prev = last_on_wire[qubit]
                if prev is not None:
                    before.add(prev)
                for prev in pending.pop(qubit, ()) if pending else ():
                    if prev not in before:
                        before.add(prev)
                        barrier_preds.setdefault(index, set()).add(prev)
                last_on_wire[qubit] = index
            preds.append(before)
            behind_barrier = barrier_preds.get(index, ())
            for prev in before:
                if prev not in behind_barrier:
                    shared = gates[prev].qubits
                    for qubit in qubits:
                        if qubit in shared:
                            wires += (prev, index, qubit)


class _Scan:
    """What the fused pass over the ops found (see :meth:`ScheduleValidator._scan`)."""

    __slots__ = (
        "timeline", "cells_in_order", "cell_intervals", "wire_first", "wire_end",
        "qubit_ids", "stride", "gate_ids",
    )

    def __init__(self, qubit_ids: dict, gate_ids: Optional[dict]) -> None:
        #: ``(op, qubit id, previous op on that qubit)`` per double booking.
        self.timeline: List[Tuple[int, int, int]] = []
        #: each cell's spans, in op order, start at or after the previous
        #: span's end (so op order is sorted order and nothing overlaps).
        self.cells_in_order = True
        self.cell_intervals = 0
        #: ``gate id * stride + qubit id`` -> the first op starting
        #: earliest / the latest end, over the gate's ops on the qubit.
        self.wire_first: Dict[int, int] = {}
        self.wire_end: Dict[int, float] = {}
        #: qubit value -> dense id, below ``stride``.
        self.qubit_ids = qubit_ids
        self.stride = len(qubit_ids) or 1
        #: gate index -> dense id; None when the gate indices are all
        #: ints, which serve as their own ids.
        self.gate_ids = gate_ids


class ScheduleValidator:
    """Stateful runner behind :func:`validate_schedule`.

    Each ``check_*`` method appends to :attr:`report` and records how many
    facts it examined, so a green report also shows the checks actually ran.
    The checks read :meth:`Schedule.columns`; the timeline, cell and
    dependency checks share one pass over the ops, made on first need.
    """

    def __init__(self, schedule: Schedule, eps: float = EPS, label: str = "") -> None:
        self.schedule = schedule
        self.eps = eps
        self.report = ValidationReport(label=label, ops_checked=len(schedule))
        (
            uid, kind, name, qubits, cells, start, duration, min_start,
            gate_index, note,
        ) = schedule.columns()
        self._uid, self._start, self._duration, self._min_start, self._gate_index = map(
            _values, (uid, start, duration, min_start, gate_index)
        )
        #: the gate-index column holds only ints (a packed one always does)
        self._int_gates = isinstance(gate_index, array) or {int} == set(
            map(type, self._gate_index)
        )
        self._kind, self._name, self._qubits, self._cells, self._note = map(
            _rows, (kind, name, qubits, cells, note)
        )
        self._end = list(map(add, self._start, self._duration))
        self._finite: Optional[bool] = None
        self._scanned: Optional[_Scan] = None

    def _flag(self, **kwargs) -> None:
        self.report.add(Violation(**kwargs))

    def _by_kind(self, column, fact: Callable[[object], list]) -> Iterator:
        """Per op, ``fact(kind)[row]``: a fact of the op's kind and of its
        row in ``column``, from one list per kind table row."""
        ktable, krows = self._kind
        _, rows = column
        return map(getitem, map(list(map(fact, ktable)).__getitem__, krows), rows)

    def _all_finite(self) -> bool:
        if self._finite is None:
            # a finite sum has only finite terms; a sum of finite terms
            # that overflows only sends the checks down their exact walks
            self._finite = all(
                math.isfinite(sum(column, 0.0))
                for column in (self._start, self._duration, self._min_start)
            )
        return self._finite

    def _scan(self) -> _Scan:
        """The one pass over the ops behind the timeline, cell and
        dependency checks.

        Per qubit it compares each op with the previous op on that qubit
        (exactly the timeline check).  Per cell it tests that the spans
        come in time order without touching, the common case in which the
        cell check needs no sort.  Per gate index and qubit it folds the
        earliest start (the first op on ties) and the latest end in op
        order, as ``min``/``max`` over those ops would.
        """
        scan = self._scanned
        if scan is not None:
            return scan
        qtable, qrows = self._qubits
        qubit_ids: Dict[object, int] = {}
        qubit_rows = [
            tuple(qubit_ids.setdefault(qubit, len(qubit_ids)) for qubit in row)
            for row in qtable
        ]
        if self._int_gates:
            scan = _Scan(qubit_ids, None)
            gate_keys = list(map(mul, self._gate_index, repeat(scan.stride)))
        else:
            gate_ids: Dict[object, int] = {}
            scan = _Scan(qubit_ids, gate_ids)
            gate_keys = [
                gate_ids.setdefault(index, len(gate_ids)) * scan.stride
                for index in self._gate_index
            ]
        cell_ids: Dict[object, int] = {}
        spans = [
            tuple(cell_ids.setdefault(cell, len(cell_ids)) for cell in cells)
            for cells in self._cells[0]
        ]
        # the cells each kind locks (ScheduledOp.resource_cells): a move
        # of a qubit locks its destination only
        dests = [ids[1:] if len(ids) == 2 else ids for ids in spans]
        locks = self._by_kind(
            self._cells, lambda kind: dests if kind in MOVE_KINDS else spans
        )
        eps, starts, ends = self.eps, self._start, self._end
        timeline, wire_first, wire_end = scan.timeline, scan.wire_first, scan.wire_end
        last_op = [-1] * scan.stride
        cell_end = [-math.inf] * len(cell_ids)
        in_order = True
        cell_intervals = 0
        for i, qubits, cells, start, end, duration, gate_key in zip(
            count(), map(qubit_rows.__getitem__, qrows), locks,
            starts, ends, self._duration, gate_keys,
        ):
            for qubit in qubits:
                prev = last_op[qubit]
                if prev >= 0 and start + eps < ends[prev]:
                    timeline.append((i, qubit, prev))
                last_op[qubit] = i
                key = gate_key + qubit
                first = wire_first.get(key)
                if first is None:
                    wire_first[key] = i
                    wire_end[key] = end
                else:
                    if start < starts[first]:
                        wire_first[key] = i
                    if end > wire_end[key]:
                        wire_end[key] = end
            if duration > 0:
                cell_intervals += len(cells)
                for cell in cells:
                    if start < cell_end[cell]:
                        in_order = False
                    cell_end[cell] = end
        scan.cells_in_order = in_order
        scan.cell_intervals = cell_intervals
        self._scanned = scan
        return scan

    # -- structural sanity ---------------------------------------------------

    def check_structure(self) -> None:
        """Uids strictly increasing, times finite and non-negative."""
        uids, starts, durations = self._uid, self._start, self._duration
        if uids and (
            any(map(le, islice(uids, 1, None), uids))
            or not self._all_finite()
            or min(starts) < -self.eps
            or min(durations) < 0
        ):
            self._walk_structure()
        self.report.checks["structure"] = len(uids)

    def _walk_structure(self) -> None:
        prev_uid: Optional[int] = None
        for uid, start, duration, min_start in zip(
            self._uid, self._start, self._duration, self._min_start
        ):
            if prev_uid is not None and uid <= prev_uid:
                self._flag(
                    code="structure", uid=uid, other_uid=prev_uid,
                    message=f"op uid {uid} not increasing after {prev_uid}",
                )
            prev_uid = uid
            if not all(math.isfinite(t) for t in (start, duration, min_start)):
                # NaN/inf defeats every later comparison (NaN compares
                # False everywhere), so flag it here and move on
                self._flag(
                    code="structure", uid=uid,
                    message=(
                        f"op {uid} has non-finite times "
                        f"(start={start}, duration={duration}, "
                        f"min_start={min_start})"
                    ),
                )
                continue
            if start < -self.eps:
                self._flag(
                    code="structure", uid=uid, time=start,
                    message=f"op {uid} starts before t=0 ({start})",
                )
            if duration < 0:
                self._flag(
                    code="structure", uid=uid,
                    message=f"op {uid} has negative duration {duration}",
                )

    def check_footprints(self, gates: Optional[Sequence[g.Gate]] = None) -> None:
        """Cell footprints are structurally complete for the op's kind.

        A shrunk footprint (a move without its cell pair, an
        ancilla-consuming gate with no locked cell) would make the
        exclusivity checks vacuously pass, so it is a violation in itself.
        ``gates`` (the circuit's, by int gate index) tells which other
        gates consume a magic state.
        """
        ctable = self._cells[0]
        not_a_pair = [len(cells) != 2 for cells in ctable]
        no_cell = [not cells for cells in ctable]
        nothing = [False] * len(ctable)

        def suspect(kind) -> list:
            if kind in _PAIR_KINDS:
                return not_a_pair
            return no_cell if kind == "gate" else nothing

        (ktable, krows), (ntable, nrows) = self._kind, self._name
        uids, gate_indices, crows = self._uid, self._gate_index, self._cells[1]
        name_needs: Dict[int, bool] = {}
        for i in compress(count(), self._by_kind(self._cells, suspect)):
            kind, gate_index = ktable[krows[i]], gate_indices[i]
            if kind in _PAIR_KINDS:
                self._flag(
                    code="footprint", uid=uids[i], gate_index=gate_index,
                    message=(
                        f"{kind} op {uids[i]} must carry an (origin, dest) "
                        f"cell pair, has {len(ctable[crows[i]])}"
                    ),
                )
                continue
            # a gate locking no cell
            row = nrows[i]
            needs_cell = name_needs.get(row)
            if needs_cell is None:
                needs_cell = name_needs[row] = ntable[row] in _CELL_REQUIRED
            if (
                not needs_cell and gates is not None
                and isinstance(gate_index, int) and 0 <= gate_index < len(gates)
            ):
                gate = gates[gate_index]
                # a T-like rotation consumes a magic state per op, so each
                # of its consume ops must lock a drop cell
                needs_cell = gate.is_t_like and gate.name != g.SWAP
            if needs_cell:
                self._flag(
                    code="footprint", uid=uids[i], gate_index=gate_index,
                    message=(
                        f"gate op {uids[i]} ({ntable[row]}) locks no cell but "
                        f"requires an ancilla/drop footprint"
                    ),
                )
        self.report.checks["footprint"] = len(uids)

    # -- resource exclusivity ------------------------------------------------

    def check_timelines(self) -> None:
        """Per-qubit: ops in schedule order, never overlapping in time."""
        scan = self._scan()
        qubits = list(scan.qubit_ids)
        uids, starts, ends = self._uid, self._start, self._end
        for i, qubit, prev in scan.timeline:
            self._flag(
                code="timeline", uid=uids[i], other_uid=uids[prev],
                qubit=qubits[qubit], time=starts[i],
                gate_index=self._gate_index[i],
                message=(
                    f"qubit {qubits[qubit]} double-booked: op {uids[i]} "
                    f"starts at {starts[i]} before op {uids[prev]} "
                    f"ends at {ends[prev]}"
                ),
            )
        qtable, qrows = self._qubits
        self.report.checks["timeline"] = sum(map(list(map(len, qtable)).__getitem__, qrows))

    def check_cell_conflicts(self) -> None:
        """Per-cell: resource footprints never overlap in time."""
        scan = self._scan()
        if scan.cells_in_order and self.eps >= 0 and self._all_finite():
            self.report.checks["cell-conflict"] = scan.cell_intervals
            return
        ctable, crows = self._cells
        by_cell: Dict[Position, List[Tuple[float, float, int]]] = {}
        for kind, cells, start, end, uid, duration in zip(
            map(self._kind[0].__getitem__, self._kind[1]),
            map(ctable.__getitem__, crows), self._start, self._end,
            self._uid, self._duration,
        ):
            if duration <= 0:
                continue
            for cell in resource_cells(kind, cells):
                by_cell.setdefault(cell, []).append((start, end, uid))
        intervals = 0
        for cell, spans in by_cell.items():
            spans.sort()
            intervals += len(spans)
            prev_end, prev_uid = -float("inf"), -1
            for start, end, uid in spans:
                if start + self.eps < prev_end:
                    self._flag(
                        code="cell-conflict", uid=uid, other_uid=prev_uid,
                        cell=cell, time=start,
                        message=(
                            f"cell {cell} locked twice: op {uid} starts at "
                            f"{start} before op {prev_uid} releases at {prev_end}"
                        ),
                    )
                if end > prev_end:
                    prev_end, prev_uid = end, uid
        self.report.checks["cell-conflict"] = intervals

    def check_min_start(self) -> None:
        """External release times (``min_start`` floors) are honoured."""
        uids, starts, min_starts = self._uid, self._start, self._min_start
        early = map(lt, map(add, starts, repeat(self.eps)), min_starts)
        for i in compress(count(), early):
            self._flag(
                code="min-start", uid=uids[i], time=starts[i],
                gate_index=self._gate_index[i],
                message=(
                    f"op {uids[i]} starts at {starts[i]} before its "
                    f"release time {min_starts[i]}"
                ),
            )
        self.report.checks["min-start"] = len(uids)

    # -- program order -------------------------------------------------------

    def check_dependencies(self, program: _Program) -> None:
        """Program order: wire edges per shared qubit, barrier edges in full.

        A wire edge only constrains the qubits the two gates share (moving
        an operand of the successor early is legal while the predecessor
        still executes on its other operands).  A barrier edge links gates
        on disjoint qubits, so it serialises *everything*: no op of the
        successor gate may start before the predecessor gate has fully
        finished.  When every op names a gate by an int index, every gate
        has an op and no barrier orders the circuit, a C-level screen over
        the wire edges stands in for the walk unless it finds a late one.
        """
        gates, gate_indices = program.gates, self._gate_index
        # an all-int column's extremes tell; anything else (None, a float)
        # is looked at op by op
        regular = self._int_gates and (
            not gate_indices
            or min(gate_indices) >= 0 and max(gate_indices) < len(gates)
        )
        if not regular:
            self._walk_gate_indices(len(gates))
        present = set(gate_indices)
        for index, gate in enumerate(gates):
            if index not in present:
                self._flag(
                    code="coverage", gate_index=index,
                    message=f"DAG node {index} ({gate}) produced no scheduled op",
                )

        scan = self._scan()
        if regular and len(present) == len(gates) and not program.barrier_preds:
            wires, stride = program.wires, repeat(scan.stride)
            try:
                dense = list(map(scan.qubit_ids.__getitem__, wires[2::3]))
                pred_end = map(scan.wire_end.__getitem__, map(
                    add, map(mul, wires[::3], stride), dense,
                ))
                first = map(scan.wire_first.__getitem__, map(
                    add, map(mul, wires[1::3], stride), dense,
                ))
                late = any(map(lt, map(
                    add, map(self._start.__getitem__, first), repeat(self.eps),
                ), pred_end))
            except KeyError:  # a qubit, or a gate on a wire, without an op
                late = True
            if not late:
                self.report.checks["dependency"] = sum(map(len, program.preds))
                return
        wire_first, wire_end = scan.wire_first, scan.wire_end
        qubit_ids, gate_ids, stride = scan.qubit_ids, scan.gate_ids, scan.stride
        starts, uids = self._start, self._uid
        barrier_preds = program.barrier_preds
        by_gate = self._gate_spans({
            index
            for gate, before in barrier_preds.items()
            for index in (gate, *before)
        })
        eps = self.eps
        edges = 0
        for index, preds in enumerate(program.preds):
            if index not in present or not preds:
                continue
            gate_key = (index if gate_ids is None else gate_ids[index]) * stride
            gate_qubits = set(gates[index].qubits)
            behind_barrier = barrier_preds.get(index, ())
            for pred_index in preds:
                if pred_index not in present:
                    continue
                edges += 1
                if pred_index in behind_barrier:
                    gate_start, first_uid, _ = by_gate[index]
                    pred_end = by_gate[pred_index][2]
                    if gate_start + eps < pred_end:
                        self._flag(
                            code="barrier", uid=first_uid, gate_index=index,
                            time=gate_start,
                            message=(
                                f"gate {index} starts at {gate_start}, crossing "
                                f"the barrier behind gate {pred_index} "
                                f"(finishes at {pred_end})"
                            ),
                        )
                    continue
                pred_key = (
                    pred_index if gate_ids is None else gate_ids[pred_index]
                ) * stride
                for qubit in gate_qubits & set(gates[pred_index].qubits):
                    dense = qubit_ids.get(qubit)
                    if dense is None:
                        continue
                    pred_end = wire_end.get(pred_key + dense)
                    first = wire_first.get(gate_key + dense)
                    if pred_end is None or first is None:
                        continue
                    gate_start = starts[first]
                    if gate_start + eps < pred_end:
                        self._flag(
                            code="dependency", uid=uids[first], qubit=qubit,
                            gate_index=index, time=gate_start,
                            message=(
                                f"gate {index} runs on qubit {qubit} at "
                                f"{gate_start}, before predecessor gate "
                                f"{pred_index} finishes at {pred_end}"
                            ),
                        )
        self.report.checks["dependency"] = edges

    def _walk_gate_indices(self, num_nodes: int) -> None:
        for uid, gate_index in zip(self._uid, self._gate_index):
            if gate_index is None:
                self._flag(
                    code="coverage", uid=uid,
                    message=f"op {uid} carries no gate index",
                )
            elif not isinstance(gate_index, int):
                self._flag(
                    code="coverage", uid=uid, gate_index=gate_index,
                    message=f"op {uid} carries a non-integer gate index {gate_index!r}",
                )
            elif not 0 <= gate_index < num_nodes:
                self._flag(
                    code="coverage", uid=uid, gate_index=gate_index,
                    message=(
                        f"op {uid} references gate {gate_index} "
                        f"outside the DAG ({num_nodes} nodes)"
                    ),
                )

    def _gate_spans(self, wanted: set) -> Dict[object, list]:
        """Gate index in ``wanted`` -> [earliest start, uid of the first op
        there, latest end] over all its ops, folded in op order."""
        spans: Dict[object, list] = {}
        if not wanted:
            return spans
        for gate_index, start, uid, end in compress(
            zip(self._gate_index, self._start, self._uid, self._end),
            map(wanted.__contains__, self._gate_index),
        ):
            span = spans.get(gate_index)
            if span is None:
                spans[gate_index] = [start, uid, end]
                continue
            if start < span[0]:
                span[0], span[1] = start, uid
            if end > span[2]:
                span[2] = end
        return spans

    # -- magic-state accounting ----------------------------------------------

    def check_magic_states(
        self,
        distill_times: Mapping[int, float],
        expected_t_states: Optional[int] = None,
    ) -> None:
        """Per-factory distillation pipeline bound plus global conservation.

        Each consume op declares its source factory (the scheduler tags it
        in ``note``).  For one factory producing a state every
        ``distill_time``, the k-th earliest consumption cannot start before
        ``k * distill_time`` no matter how collections interleave — the
        pipeline has produced only k-1 states before that.  This bound
        deliberately ignores output-buffer back-pressure (which only delays
        states further), so it can never flag a feasible schedule.  A state
        consumed before its round completes, or one distilled state consumed
        by two gates, compresses the sequence below the bound and is caught.
        """
        ntable, nrows = self._note
        uids, starts, gate_indices = self._uid, self._start, self._gate_index
        factories = list(map(magic_factory, ntable))
        tagged = [factory is not None for factory in factories]
        untagged = [False] * len(ntable)
        consumes: Dict[int, List[int]] = {}
        total = 0
        for i in compress(count(), self._by_kind(
            self._note, lambda kind: tagged if kind == "gate" else untagged
        )):
            factory = factories[nrows[i]]
            total += 1
            if factory not in distill_times:
                self._flag(
                    code="magic-count", uid=uids[i], gate_index=gate_indices[i],
                    message=(
                        f"op {uids[i]} consumes a state from unknown "
                        f"factory f{factory}"
                    ),
                )
                continue
            consumes.setdefault(factory, []).append(i)

        eps = self.eps
        for factory, ops in sorted(consumes.items()):
            distill = distill_times[factory]
            ops.sort(key=lambda i: (starts[i], uids[i]))
            for k, i in enumerate(ops, start=1):
                floor = k * distill
                start = starts[i]
                if start + eps < floor:
                    self._flag(
                        code="magic-pipeline", uid=uids[i], time=start,
                        gate_index=gate_indices[i],
                        message=(
                            f"factory f{factory}: consumption #{k} starts at "
                            f"{start}, before the pipeline can have "
                            f"produced {k} states ({floor})"
                        ),
                    )

        if expected_t_states is not None and total != expected_t_states:
            self._flag(
                code="magic-count",
                message=(
                    f"{total} magic-state consumption(s) scheduled but the "
                    f"circuit requires {expected_t_states}"
                ),
            )
        self.report.checks["magic-state"] = total


def raise_if_invalid(report: ValidationReport) -> ValidationReport:
    """Raise :class:`ValidationError` when the report has violations."""
    if not report.ok:
        raise ValidationError(report)
    return report
