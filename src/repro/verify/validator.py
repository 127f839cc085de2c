"""Replay validator: independently re-check a compiled :class:`Schedule`.

The scheduler and the Sec. V-D re-timing pass each keep their own resource
bookkeeping; nothing here reuses it.  The validator walks the schedule
op-by-op and re-derives, from first principles, every invariant an
executable lattice-surgery schedule must satisfy:

* per-qubit timelines are exclusive and in schedule order;
* every cell in an op's :meth:`~repro.scheduling.events.ScheduledOp.resource_cells`
  footprint is locked exclusively for the op's duration;
* ops never start before their declared external release (``min_start``);
* the source circuit's DAG order is respected — wire dependencies per
  shared qubit, barrier pseudo-edges by full serialisation;
* every DAG node materialised into at least one op, and no op references a
  gate outside the DAG;
* magic states are conserved per factory: the k-th earliest consumption
  attributed to a factory cannot start before ``k * distill_time`` (the
  distillation pipeline's hard lower bound — a state consumed before its
  round completes, or consumed twice, compresses the sequence below it),
  and the total number of consumptions matches the circuit's T-count.

Use :func:`validate_schedule` for raw schedules, or
:func:`validate_result` to check a full
:class:`~repro.compiler.result.CompilationResult` against the circuit and
config that produced it.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Mapping, Optional, Tuple

from ..arch.grid import Position
from ..ir import gates as g
from ..ir.circuit import Circuit
from ..ir.dag import DagCircuit
from ..perf.profiler import profiled
from ..scheduling.events import Schedule, ScheduledOp
from .report import ValidationError, ValidationReport, Violation

#: tolerance for float time comparisons (schedule times are sums of small
#: rational latencies, so anything below 1e-6 is noise, not a conflict).
EPS = 1e-6

#: gate mnemonics whose scheduled op must lock at least one ancilla cell
#: even without DAG context (H/SX need a neighbour, CX/CZ a merge ancilla,
#: T/Tdg a magic-state drop cell).
_CELL_REQUIRED = frozenset({g.H, g.SX, g.SXDG, g.CX, g.CZ, g.T, g.TDG})


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
    dag: Optional[DagCircuit] = None,
    distill_times: Optional[Mapping[int, float]] = None,
    expected_t_states: Optional[int] = None,
    label: str = "",
    eps: float = EPS,
) -> ValidationReport:
    """Run every applicable check; returns the structured report.

    Args:
        schedule: the schedule under test.
        circuit: source program; enables the DAG-dependency, barrier and
            coverage checks (ignored when ``dag`` is given directly).
        dag: pre-built dependency DAG of the source program.
        distill_times: factory index -> distillation round time; enables the
            per-factory magic-state pipeline check.
        expected_t_states: total magic states the circuit consumes under
            the synthesis model; enables the conservation count check.
        label: free-form tag carried into the report (e.g. ``"raw"``).
        eps: float comparison tolerance.
    """
    if dag is None and circuit is not None:
        dag = DagCircuit(circuit)
    validator = ScheduleValidator(schedule, eps=eps, label=label)
    validator.check_structure()
    validator.check_footprints(dag=dag)
    validator.check_timelines()
    validator.check_cell_conflicts()
    validator.check_min_start()
    if dag is not None:
        validator.check_dependencies(dag)
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


class ScheduleValidator:
    """Stateful runner behind :func:`validate_schedule`.

    Each ``check_*`` method appends to :attr:`report` and records how many
    facts it examined, so a green report also shows the checks actually ran.
    """

    def __init__(self, schedule: Schedule, eps: float = EPS, label: str = "") -> None:
        self.schedule = schedule
        self.eps = eps
        self.report = ValidationReport(label=label, ops_checked=len(schedule.ops))

    def _flag(self, **kwargs) -> None:
        self.report.add(Violation(**kwargs))

    # -- structural sanity ---------------------------------------------------

    def check_structure(self) -> None:
        """Uids strictly increasing, times finite and non-negative."""
        prev_uid: Optional[int] = None
        for op in self.schedule.ops:
            if prev_uid is not None and op.uid <= prev_uid:
                self._flag(
                    code="structure", uid=op.uid, other_uid=prev_uid,
                    message=f"op uid {op.uid} not increasing after {prev_uid}",
                )
            prev_uid = op.uid
            if not all(
                math.isfinite(t) for t in (op.start, op.duration, op.min_start)
            ):
                # NaN/inf defeats every later comparison (NaN compares
                # False everywhere), so flag it here and move on
                self._flag(
                    code="structure", uid=op.uid,
                    message=(
                        f"op {op.uid} has non-finite times "
                        f"(start={op.start}, duration={op.duration}, "
                        f"min_start={op.min_start})"
                    ),
                )
                continue
            if op.start < -self.eps:
                self._flag(
                    code="structure", uid=op.uid, time=op.start,
                    message=f"op {op.uid} starts before t=0 ({op.start})",
                )
            if op.duration < 0:
                self._flag(
                    code="structure", uid=op.uid,
                    message=f"op {op.uid} has negative duration {op.duration}",
                )
        self.report.checks["structure"] = len(self.schedule.ops)

    def check_footprints(self, dag: Optional[DagCircuit] = None) -> None:
        """Cell footprints are structurally complete for the op's kind.

        A shrunk footprint (a move without its cell pair, an
        ancilla-consuming gate with no locked cell) would make the
        exclusivity checks vacuously pass, so it is a violation in itself.
        """
        checked = 0
        for op in self.schedule.ops:
            checked += 1
            if op.kind in ("move", "evict", "restore", "route"):
                if len(op.cells) != 2:
                    self._flag(
                        code="footprint", uid=op.uid, gate_index=op.gate_index,
                        message=(
                            f"{op.kind} op {op.uid} must carry an "
                            f"(origin, dest) cell pair, has {len(op.cells)}"
                        ),
                    )
                continue
            if op.kind != "gate":
                continue
            needs_cell = op.name in _CELL_REQUIRED
            if not needs_cell and dag is not None and op.gate_index is not None:
                if 0 <= op.gate_index < len(dag.nodes):
                    gate = dag.node(op.gate_index).gate
                    # a T-like rotation consumes a magic state per op, so
                    # each of its consume ops must lock a drop cell
                    needs_cell = gate.is_t_like and gate.name != g.SWAP
            if needs_cell and not op.cells:
                self._flag(
                    code="footprint", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"gate op {op.uid} ({op.name}) locks no cell but "
                        f"requires an ancilla/drop footprint"
                    ),
                )
        self.report.checks["footprint"] = checked

    # -- resource exclusivity ------------------------------------------------

    def check_timelines(self) -> None:
        """Per-qubit: ops in schedule order, never overlapping in time."""
        last: Dict[int, ScheduledOp] = {}
        intervals = 0
        for op in self.schedule.ops:
            for qubit in op.qubits:
                prev = last.get(qubit)
                if prev is not None and op.start + self.eps < prev.end:
                    self._flag(
                        code="timeline", uid=op.uid, other_uid=prev.uid,
                        qubit=qubit, time=op.start, gate_index=op.gate_index,
                        message=(
                            f"qubit {qubit} double-booked: op {op.uid} "
                            f"starts at {op.start} before op {prev.uid} "
                            f"ends at {prev.end}"
                        ),
                    )
                last[qubit] = op
                intervals += 1
        self.report.checks["timeline"] = intervals

    def check_cell_conflicts(self) -> None:
        """Per-cell: resource footprints never overlap in time."""
        by_cell: Dict[Position, List[Tuple[float, float, int]]] = {}
        for op in self.schedule.ops:
            if op.duration <= 0:
                continue
            for cell in op.resource_cells():
                by_cell.setdefault(cell, []).append((op.start, op.end, op.uid))
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
        for op in self.schedule.ops:
            if op.start + self.eps < op.min_start:
                self._flag(
                    code="min-start", uid=op.uid, time=op.start,
                    gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} starts at {op.start} before its "
                        f"release time {op.min_start}"
                    ),
                )
        self.report.checks["min-start"] = len(self.schedule.ops)

    # -- program order -------------------------------------------------------

    def check_dependencies(self, dag: DagCircuit) -> None:
        """DAG order: wire edges per shared qubit, barrier edges in full.

        A wire edge only constrains the qubits the two gates share (moving
        an operand of the successor early is legal while the predecessor
        still executes on its other operands).  A barrier edge links gates
        on disjoint qubits, so it serialises *everything*: no op of the
        successor node may start before the predecessor node has fully
        finished.
        """
        ops_by_node: Dict[int, List[ScheduledOp]] = {}
        for op in self.schedule.ops:
            if op.gate_index is None:
                self._flag(
                    code="coverage", uid=op.uid,
                    message=f"op {op.uid} carries no gate index",
                )
                continue
            if not 0 <= op.gate_index < len(dag.nodes):
                self._flag(
                    code="coverage", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} references gate {op.gate_index} "
                        f"outside the DAG ({len(dag.nodes)} nodes)"
                    ),
                )
                continue
            ops_by_node.setdefault(op.gate_index, []).append(op)

        for node in dag.nodes:
            if node.index not in ops_by_node:
                self._flag(
                    code="coverage", gate_index=node.index,
                    message=(
                        f"DAG node {node.index} ({node.gate}) produced no "
                        f"scheduled op"
                    ),
                )

        edges = 0
        for node in dag.nodes:
            node_ops = ops_by_node.get(node.index)
            if not node_ops:
                continue
            for pred_index in node.predecessors:
                pred_ops = ops_by_node.get(pred_index)
                if not pred_ops:
                    continue
                edges += 1
                if pred_index in node.barrier_predecessors:
                    self._check_barrier_edge(dag, pred_index, pred_ops, node, node_ops)
                else:
                    self._check_wire_edge(dag, pred_index, pred_ops, node, node_ops)
        self.report.checks["dependency"] = edges

    def _check_wire_edge(self, dag, pred_index, pred_ops, node, node_ops) -> None:
        shared = set(node.qubits) & set(dag.node(pred_index).qubits)
        for qubit in shared:
            pred_end = max(
                (op.end for op in pred_ops if qubit in op.qubits), default=None
            )
            node_start = min(
                (op.start for op in node_ops if qubit in op.qubits), default=None
            )
            if pred_end is None or node_start is None:
                continue
            if node_start + self.eps < pred_end:
                first = min(
                    (op for op in node_ops if qubit in op.qubits),
                    key=lambda op: op.start,
                )
                self._flag(
                    code="dependency", uid=first.uid, qubit=qubit,
                    gate_index=node.index, time=node_start,
                    message=(
                        f"gate {node.index} runs on qubit {qubit} at "
                        f"{node_start}, before predecessor gate "
                        f"{pred_index} finishes at {pred_end}"
                    ),
                )

    def _check_barrier_edge(self, dag, pred_index, pred_ops, node, node_ops) -> None:
        pred_end = max(op.end for op in pred_ops)
        node_start = min(op.start for op in node_ops)
        if node_start + self.eps < pred_end:
            first = min(node_ops, key=lambda op: op.start)
            self._flag(
                code="barrier", uid=first.uid, gate_index=node.index,
                time=node_start,
                message=(
                    f"gate {node.index} starts at {node_start}, crossing "
                    f"the barrier behind gate {pred_index} "
                    f"(finishes at {pred_end})"
                ),
            )

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
        consumes: Dict[int, List[ScheduledOp]] = {}
        total = 0
        for op in self.schedule.ops:
            if op.kind != "gate":
                continue
            factory = op.magic_factory()
            if factory is None:
                continue
            total += 1
            if factory not in distill_times:
                self._flag(
                    code="magic-count", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} consumes a state from unknown "
                        f"factory f{factory}"
                    ),
                )
                continue
            consumes.setdefault(factory, []).append(op)

        for factory, ops in sorted(consumes.items()):
            distill = distill_times[factory]
            ordered = sorted(ops, key=lambda op: (op.start, op.uid))
            for k, op in enumerate(ordered, start=1):
                floor = k * distill
                if op.start + self.eps < floor:
                    self._flag(
                        code="magic-pipeline", uid=op.uid, time=op.start,
                        gate_index=op.gate_index,
                        message=(
                            f"factory f{factory}: consumption #{k} starts at "
                            f"{op.start}, before the pipeline can have "
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
