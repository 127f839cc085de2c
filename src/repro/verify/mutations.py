"""Mutation self-tests: prove the validator catches what it claims to.

A validator that silently passes everything is worse than no validator, so
this layer seeds *known* corruptions into a known-good schedule — swapped
op times, shrunk cell footprints, magic states consumed before distillation,
duplicated consumptions, ops pulled across dependencies and barriers,
deleted gates — and asserts each one is flagged with the expected violation
class.  CI runs this over freshly compiled schedules; a validator regression
(a check weakened or skipped) fails the build even when every real schedule
is clean.

Each mutation is a pure function ``(schedule, ctx) -> Schedule | None``;
``None`` means the corruption is not applicable to this schedule (e.g. no
barrier edges to violate) and the self-test records it as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..ir.circuit import Circuit
from ..ir.dag import DagCircuit
from ..scheduling.events import Schedule, ScheduledOp
from .validator import validate_schedule


@dataclass(frozen=True)
class MutationContext:
    """Everything a mutation may consult about the schedule's origin."""

    dag: DagCircuit
    distill_times: Mapping[int, float]
    expected_t_states: int


@dataclass(frozen=True)
class MutationOutcome:
    """Result of seeding one corruption class."""

    name: str
    expected_code: str
    applicable: bool
    caught: bool
    found_codes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """A skipped mutation is not a failure; an uncaught one is."""
        return self.caught or not self.applicable


def _consumes(ops: List[ScheduledOp]) -> List[Tuple[int, ScheduledOp]]:
    """(index-in-ops, op) of every magic-state consume op."""
    return [
        (i, op)
        for i, op in enumerate(ops)
        if op.kind == "gate" and op.magic_factory() is not None
    ]


def _ops_by_node(ops: List[ScheduledOp]) -> Dict[int, List[int]]:
    """DAG node index -> indices (into ``ops``) of the ops it scheduled."""
    by_node: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        if op.gate_index is not None:
            by_node.setdefault(op.gate_index, []).append(i)
    return by_node


# -- mutation functions -------------------------------------------------------
#
# Each reads ``schedule.ops`` (a fresh tuple per read) once, into a list it
# edits and returns as a new schedule.


def mutate_swap_op_times(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Exchange the start times of two ops on one qubit timeline."""
    ops = list(schedule.ops)
    by_qubit: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        if op.duration <= 0:
            continue
        for q in op.qubits:
            by_qubit.setdefault(q, []).append(i)
    for indices in by_qubit.values():
        if len(indices) < 2:
            continue
        first, last = indices[0], indices[-1]
        a, b = ops[first], ops[last]
        if b.start <= a.start:
            continue
        ops[first] = replace(a, start=b.start)
        ops[last] = replace(b, start=a.start)
        return Schedule(ops)
    return None


def mutate_shrink_footprint(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Erase the cell footprint of an ancilla-consuming gate op."""
    ops = list(schedule.ops)
    for i, op in enumerate(ops):
        if op.kind == "gate" and op.cells and op.duration > 0:
            ops[i] = replace(op, cells=())
            return Schedule(ops)
    return None


def mutate_steal_magic_state(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Consume a magic state before its distillation round completes."""
    ops = list(schedule.ops)
    for i, op in _consumes(ops):
        distill = ctx.distill_times.get(op.magic_factory())
        if distill is None:
            continue
        early = distill / 2.0
        ops[i] = replace(op, start=early, min_start=early)
        return Schedule(ops)
    return None


def mutate_duplicate_consume(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Consume one distilled state twice (conservation violation)."""
    ops = list(schedule.ops)
    consumes = _consumes(ops)
    if not consumes:
        return None
    _, op = consumes[-1]
    max_uid = max(existing.uid for existing in ops)
    ops.append(replace(op, uid=max_uid + 1))
    return Schedule(ops)


def mutate_reorder_dependents(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Start a gate on a shared wire before its predecessor finishes."""
    ops = list(schedule.ops)
    ops_by_node = _ops_by_node(ops)
    for node in ctx.dag.nodes:
        for pred_index in node.predecessors - node.barrier_predecessors:
            shared = set(node.qubits) & set(ctx.dag.node(pred_index).qubits)
            if not shared:
                continue
            qubit = min(shared)
            pred_ops = [
                ops[i]
                for i in ops_by_node.get(pred_index, ())
                if qubit in ops[i].qubits
            ]
            node_indices = [
                i
                for i in ops_by_node.get(node.index, ())
                if qubit in ops[i].qubits
            ]
            if not pred_ops or not node_indices:
                continue
            pred_first = min(pred_ops, key=lambda op: op.start)
            if pred_first.duration <= 0:
                continue
            target = node_indices[0]
            ops[target] = replace(
                ops[target], start=pred_first.start, min_start=0.0
            )
            return Schedule(ops)
    return None


def mutate_pull_across_barrier(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Start a barrier-successor op before the barrier's floor."""
    ops = list(schedule.ops)
    ops_by_node = _ops_by_node(ops)
    for node in ctx.dag.nodes:
        for pred_index in node.barrier_predecessors:
            pred_indices = ops_by_node.get(pred_index, ())
            node_indices = ops_by_node.get(node.index, ())
            if not pred_indices or not node_indices:
                continue
            pred_end = max(ops[i].end for i in pred_indices)
            if pred_end <= 0:
                continue
            target = node_indices[0]
            ops[target] = replace(ops[target], start=0.0, min_start=0.0)
            return Schedule(ops)
    return None


def mutate_violate_min_start(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Start an op before its declared external release time."""
    ops = list(schedule.ops)
    for i, op in enumerate(ops):
        if op.min_start > 0:
            ops[i] = replace(op, start=op.min_start / 2.0)
            return Schedule(ops)
    return None


def mutate_cell_collision(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Retime one op so its footprint collides with another's."""
    ops = list(schedule.ops)
    locked = [
        (i, op)
        for i, op in enumerate(ops)
        if op.duration > 0 and op.resource_cells()
    ]
    if len(locked) < 2:
        return None
    (_, a), (j, b) = locked[0], locked[1]
    ops[j] = replace(b, start=a.start, min_start=0.0, cells=a.cells)
    return Schedule(ops)


def mutate_drop_gate(schedule: Schedule, ctx: MutationContext) -> Optional[Schedule]:
    """Delete every op of one DAG node (the gate silently vanishes)."""
    ops = schedule.ops
    with_gate = [op.gate_index for op in ops if op.gate_index is not None]
    if not with_gate:
        return None
    victim = with_gate[-1]
    kept = [op for op in ops if op.gate_index != victim]
    if len(kept) == len(ops):
        return None
    return Schedule(kept)


#: mutation name -> (function, violation class the validator must raise).
MUTATIONS: Dict[str, Tuple[Callable, str]] = {
    "swap-op-times": (mutate_swap_op_times, "timeline"),
    "shrink-footprint": (mutate_shrink_footprint, "footprint"),
    "steal-magic-state": (mutate_steal_magic_state, "magic-pipeline"),
    "duplicate-consume": (mutate_duplicate_consume, "magic-count"),
    "reorder-dependents": (mutate_reorder_dependents, "dependency"),
    "pull-across-barrier": (mutate_pull_across_barrier, "barrier"),
    "violate-min-start": (mutate_violate_min_start, "min-start"),
    "cell-collision": (mutate_cell_collision, "cell-conflict"),
    "drop-gate": (mutate_drop_gate, "coverage"),
}


def run_self_test(
    schedule: Schedule,
    circuit: Circuit,
    distill_times: Mapping[int, float],
    expected_t_states: int,
) -> List[MutationOutcome]:
    """Seed every corruption class and validate each mutated schedule.

    The input schedule must itself be valid (the caller should have checked
    that already); each mutation then flips exactly one invariant and the
    validator must report the matching violation class.
    """
    ctx = MutationContext(
        dag=DagCircuit(circuit),
        distill_times=distill_times,
        expected_t_states=expected_t_states,
    )
    outcomes: List[MutationOutcome] = []
    for name, (mutate, expected_code) in MUTATIONS.items():
        mutated = mutate(schedule, ctx)
        if mutated is None:
            outcomes.append(
                MutationOutcome(
                    name=name, expected_code=expected_code,
                    applicable=False, caught=False,
                )
            )
            continue
        report = validate_schedule(
            mutated,
            circuit=circuit,
            distill_times=ctx.distill_times,
            expected_t_states=ctx.expected_t_states,
            label=f"mutation:{name}",
        )
        found = tuple(sorted(report.codes()))
        outcomes.append(
            MutationOutcome(
                name=name, expected_code=expected_code, applicable=True,
                caught=expected_code in report.codes(), found_codes=found,
            )
        )
    return outcomes
