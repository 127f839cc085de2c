"""Event-driven lattice-surgery scheduler (the core of Sec. V).

The scheduler consumes a Clifford+T circuit as a DAG and produces a
:class:`~repro.scheduling.events.Schedule` of lattice-surgery operations on
a routing-path-parameterised layout, tracking three resource classes:

* **qubit timelines** — each program qubit is busy during its gates/moves;
* **cell locks** — bus/ancilla cells are busy while a merge, move or magic
  state transit uses them (this produces the routing congestion behind the
  U-shaped curves of Fig. 9);
* **factory pipelines** — each 15-to-1 factory emits one state per 11d,
  pipelined, so routing of one state hides behind distillation of the next
  (the latency-hiding window of Sec. I).

Greedy list scheduling: among DAG-ready gates, always schedule the one with
the earliest feasible start (ties broken by circuit order), planning any
moves needed to satisfy the Fig. 7 placement constraints via the heuristics
of :mod:`repro.routing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.factory import FactoryBank, FactoryConfig
from ..arch.grid import Grid, Position
from ..arch.instruction_set import NEEDS_ANCILLA, InstructionSet
from ..ir import gates as g
from ..ir.circuit import Circuit
from ..ir.dag import DagCircuit, DagNode, ReadyFrontier
from ..perf import profiler as _profiler
from ..perf.profiler import profiled
from ..routing.dijkstra import (
    NoPathError,
    RoutingRequest,
    find_path,
    find_path_to_any,
    find_paths_to_all,
    reachable_free_cells,
)
from ..routing import space_search
from ..routing.neighbor_moves import AlignmentError, plan_cnot_alignment
from ..routing.space_search import (
    SpaceSearchError,
    _displace_blocker,
    _walk_path,
    _walk_path_inner,
    find_space,
)
from ..strategies import Strategy, get_strategy
from ..synthesis.clifford_t import SynthesisModel
from .events import Schedule, ScheduledOp


class SchedulingError(RuntimeError):
    """Raised when a gate cannot be placed on the layout."""


@dataclass
class SchedulerStats:
    """Aggregate counters filled in during scheduling.

    The :meth:`as_dict` keys are part of every behavioural fingerprint
    (``BENCH.json``, the service responses, the chaos drift gate) —
    never add or rename them casually.  Diagnostic counters that must
    not perturb fingerprints live in :meth:`aux_dict` instead and
    surface as ``CompilationResult.aux_stats``.
    """

    moves_planned: int = 0
    evictions: int = 0
    magic_states: int = 0
    route_hops: int = 0
    route_stall_time: float = 0.0
    space_searches: int = 0
    # -- diagnostic counters (aux_dict only; excluded from fingerprints) ----
    eviction_causes: Dict[str, int] = field(default_factory=dict)
    restores: int = 0
    restore_cycle_breaks: int = 0
    displacement_aborts: int = 0

    def count_eviction(self, cause: str) -> None:
        self.eviction_causes[cause] = self.eviction_causes.get(cause, 0) + 1

    def as_dict(self) -> Dict[str, float]:
        return {
            "moves_planned": self.moves_planned,
            "evictions": self.evictions,
            "magic_states": self.magic_states,
            "route_hops": self.route_hops,
            "route_stall_time": self.route_stall_time,
            "space_searches": self.space_searches,
        }

    def aux_dict(self) -> Dict[str, float]:
        """Diagnostic counters: eviction attribution and churn control."""
        aux: Dict[str, float] = {
            f"evictions_{cause}": float(count)
            for cause, count in sorted(self.eviction_causes.items())
        }
        aux["restores"] = float(self.restores)
        aux["restore_cycle_breaks"] = float(self.restore_cycle_breaks)
        aux["displacement_aborts"] = float(self.displacement_aborts)
        return aux


class LatticeSurgeryScheduler:
    """Schedules one circuit onto one layout.

    Args:
        grid: layout grid (cloned internally; the input is not mutated).
        instruction_set: latency model (paper or unit-cost).
        factory_ports: boundary cells where each factory delivers states.
        factory_config: distillation timing/buffering parameters.
        synthesis: T-cost model for non-Clifford rotations.
        lookahead: enable gate-dependent drift goals (Sec. V-A).
        strategy: placement/delivery strategy instance or registry name
            (see :mod:`repro.strategies`); default reproduces the
            historical behaviour bit-for-bit.
    """

    #: evict/restore round-trips of one (qubit, origin) pair before the
    #: restore is abandoned and the qubit stays at its refuge.  A pair
    #: cycling this often is parked on a live delivery corridor and
    #: restoring it only feeds the next eviction (the ising_2d_10x10 storm
    #: restored one qubit onto the same route cell 107 times).  Tuned
    #: empirically: low limits strand qubits on *future* routes and the
    #: resulting delivery stalls cost more makespan than the churn saved
    #: (limit 3: +280 d on ising_2d_10x10 despite -45 % evictions); 30
    #: only clips the pathological tail and improves makespan AND
    #: evictions together.
    RESTORE_CYCLE_LIMIT = 30

    def __init__(
        self,
        grid: Grid,
        instruction_set: InstructionSet,
        factory_ports: Sequence[Position],
        factory_config: Optional[FactoryConfig] = None,
        synthesis: Optional[SynthesisModel] = None,
        lookahead: bool = True,
        strategy: Optional[Strategy] = None,
    ) -> None:
        self._template_grid = grid
        self.isa = instruction_set
        self.synthesis = synthesis or SynthesisModel.single_t()
        self.lookahead = lookahead
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        self.strategy = strategy if strategy is not None else get_strategy("default")
        config = factory_config or FactoryConfig(distill_time=instruction_set.distill)
        self.bank = FactoryBank(list(factory_ports), config)
        # runtime state (reset per run)
        self.grid: Grid = grid
        self._qubit_free: Dict[int, float] = {}
        self._cell_free: Dict[Position, float] = {}
        self._ops: List[ScheduledOp] = []
        self._uid = 0
        self.stats = SchedulerStats()

    # -- public API -----------------------------------------------------------

    @profiled("schedule.run")
    def run(self, circuit: Circuit, placement: Dict[int, Position]) -> Schedule:
        """Schedule ``circuit`` with program qubits initially at ``placement``."""
        self._reset(placement)
        dag = DagCircuit(circuit)
        # Earliest-start-first among ready gates, circuit order as tiebreak.
        # The frontier's lazy heap makes the pick O(log n) per gate; it is
        # exact because a gate's earliest feasible start only moves later as
        # other gates occupy its qubits.
        frontier = ReadyFrontier(dag, priority=self._earliest_start)
        self._dag = dag
        while not frontier.exhausted:
            node = frontier.pop_best()
            self._schedule_node(node)
            frontier.complete(node.index)
        self.stats.displacement_aborts = (
            space_search.COUNTERS.abandoned_mover - self._displacement_base
        )
        return Schedule(self._ops)

    # -- internals --------------------------------------------------------------

    def _reset(self, placement: Dict[int, Position]) -> None:
        self.grid = self._template_grid.clone()
        # Factory delivery cells must stay clear: evictions and chain
        # pushes may transit them but never park a data qubit there.
        from ..arch.grid import CellRole

        for factory in self.bank.factories:
            if self.grid.role(factory.port) == CellRole.BUS:
                self.grid.set_role(factory.port, CellRole.PORT)
        for qubit, pos in placement.items():
            if self.grid.occupant(pos) is not None:
                raise SchedulingError(f"placement collision at {pos}")
            self.grid.place(qubit, pos)
        self._qubit_free = {q: 0.0 for q in placement}
        self._cell_free = {}
        self._home = dict(placement)
        self._ops = []
        self._uid = 0
        self._node_end = {}
        self._barrier_floor = 0.0
        self.stats = SchedulerStats()
        # per-(qubit, origin) restore ledger for the churn cycle breaker
        self._restore_counts: Dict[Tuple[int, Position], int] = {}
        self._displacement_base = space_search.COUNTERS.abandoned_mover
        self.strategy.begin_run(self)

    def _earliest_start(self, node: DagNode) -> float:
        """Earliest feasible start: when every operand qubit falls free."""
        qubit_free = self._qubit_free
        best = 0.0
        for q in node.qubits:
            t = qubit_free.get(q, 0.0)
            if t > best:
                best = t
        return best

    def _record(
        self,
        kind: str,
        name: str,
        qubits: Tuple[int, ...],
        cells: Tuple[Position, ...],
        start: float,
        duration: float,
        min_start: float = 0.0,
        gate_index: Optional[int] = None,
        note: str = "",
    ) -> ScheduledOp:
        # Hand-inlined "schedule.record" seam: this is the single hottest
        # function in the compiler and the @profiled wrapper's extra call
        # layer is measurable at ~55k records per bench suite.
        prof = _profiler._ACTIVE
        if prof is not None:
            prof.enter("schedule.record")
        try:
            # A pending barrier floor rides along as min_start so the
            # Sec. V-D re-timing pass cannot pull the op back across it.
            if self._barrier_floor > min_start:
                min_start = self._barrier_floor
            if start < min_start:
                start = min_start
            op = ScheduledOp(
                self._uid, kind, name, qubits, cells, start, duration,
                min_start, gate_index, note,
            )
            self._uid += 1
            self._ops.append(op)
            end = start + duration
            if gate_index is not None and end > self._node_end.get(gate_index, 0.0):
                self._node_end[gate_index] = end
            qubit_free = self._qubit_free
            for q in qubits:
                if end > qubit_free.get(q, 0.0):
                    qubit_free[q] = end
            cell_free = self._cell_free
            # inline op.resource_cells(): moves lock only their destination
            if len(cells) == 2 and kind in ("move", "evict", "restore"):
                cells = cells[1:]
            for c in cells:
                if end > cell_free.get(c, 0.0):
                    cell_free[c] = end
            return op
        finally:
            if prof is not None:
                prof.exit()

    def _cells_ready(self, cells: Sequence[Position]) -> float:
        cell_free = self._cell_free
        ready = 0.0
        for c in cells:
            t = cell_free.get(c, 0.0)
            if t > ready:
                ready = t
        return ready

    def _execute_moves(
        self,
        moves: Sequence[Tuple[int, Position, Position]],
        cursor: float,
        kind: str = "move",
        gate_index: Optional[int] = None,
        cause: Optional[str] = None,
    ) -> float:
        """Apply planned unit moves to the grid and the schedule, serially.

        ``cause`` attributes evictions (kind == "evict") in the aux
        counters: "route_clear", "port_squatter" or "space_search".
        Returns the completion time of the last move.
        """
        grid = self.grid
        qubit_free = self._qubit_free
        cell_free = self._cell_free
        move_time = self.isa.move
        stats = self.stats
        track = self.strategy.tracks_moves
        for qubit, origin, dest in moves:
            actual = grid.position_of(qubit)
            if actual != origin:
                raise SchedulingError(
                    f"stale move plan for qubit {qubit}: at {actual}, expected {origin}"
                )
            start = cursor
            t = qubit_free.get(qubit, 0.0)
            if t > start:
                start = t
            t = cell_free.get(dest, 0.0)
            if t > start:
                start = t
            grid.move(qubit, dest)
            op = self._record(
                kind,
                g.MOVE,
                (qubit,),
                (origin, dest),
                start,
                move_time,
                gate_index=gate_index,
            )
            cursor = op.start + move_time
            stats.moves_planned += 1
            if kind == "evict":
                stats.evictions += 1
                stats.count_eviction(cause or "other")
            if track and qubit != self._MAGIC_ID:
                self.strategy.note_move(qubit, kind)
        return cursor

    def _restore_evictions(
        self,
        moves: Sequence[Tuple[int, Position, Position]],
        exclude: Tuple[int, ...] = (),
        gate_index: Optional[int] = None,
    ) -> None:
        """Send temporarily displaced qubits back to their home cells.

        Evictions (route clearing, space search) are transient: replaying
        them in reverse keeps the layout stable so locality never degrades
        over the course of a long program.  Restores that have become
        impossible (home cell re-occupied, e.g. by a deliberately moved
        CNOT operand) are skipped; inverse pairs that turn out to be
        unnecessary are cancelled later by the Sec. V-D pass.

        Churn cycle breaker: a qubit whose origin sits on a live delivery
        corridor gets evicted by every magic state passing through, and
        restoring it re-arms the next eviction — the feedback loop behind
        eviction storms on port-adjacent cells.  After
        :data:`RESTORE_CYCLE_LIMIT` restores of the same (qubit, origin)
        pair the restore is abandoned: the qubit keeps its refuge, the
        corridor stays clear, and later gates (or the post-CNOT rehome)
        relocate it on demand.
        """
        track = self.strategy.tracks_moves
        for qubit, origin, dest in reversed(list(moves)):
            if qubit in exclude:
                continue
            try:
                current = self.grid.position_of(qubit)
            except Exception:
                continue
            if current != dest or self.grid.is_occupied(origin):
                continue
            pair = (qubit, origin)
            cycles = self._restore_counts.get(pair, 0)
            if cycles >= self.RESTORE_CYCLE_LIMIT:
                self.stats.restore_cycle_breaks += 1
                continue
            self._restore_counts[pair] = cycles + 1
            start = self._qubit_free.get(qubit, 0.0)
            t = self._cell_free.get(origin, 0.0)
            if t > start:
                start = t
            self.grid.move(qubit, origin)
            self._record(
                "restore", g.MOVE, (qubit,), (dest, origin), start,
                self.isa.move, gate_index=gate_index,
            )
            self.stats.moves_planned += 1
            self.stats.restores += 1
            if track:
                self.strategy.note_move(qubit, "restore")

    # -- per-gate handlers -------------------------------------------------------

    def _schedule_node(self, node: DagNode) -> None:
        gate = node.gate
        name = gate.name
        if name in (g.BARRIER,):
            return
        # Barrier edges link gates on *disjoint* qubits, so the qubit
        # timelines alone cannot serialise them: raise the operands' free
        # times to the barrier predecessors' completion and remember the
        # floor (it becomes min_start for every op this node records).
        floor = 0.0
        for pred in node.barrier_predecessors:
            end = self._node_end.get(pred, 0.0)
            if end > floor:
                floor = end
        self._barrier_floor = floor
        if floor > 0.0:
            for q in gate.qubits:
                if floor > self._qubit_free.get(q, 0.0):
                    self._qubit_free[q] = floor
        if gate.is_pauli:
            start = max(self._qubit_free.get(q, 0.0) for q in gate.qubits)
            self._record("gate", name, gate.qubits, (), start, self.isa.pauli,
                         gate_index=node.index)
            return
        if name in (g.CX, g.CZ):
            self._schedule_cnot(node)
            return
        if name == g.SWAP:
            self._schedule_swap(node)
            return
        if gate.is_t_like:
            self._schedule_t_like(node)
            return
        if name in NEEDS_ANCILLA:
            self._schedule_with_ancilla(node)
            return
        # in-place ops: S/Sdg, Clifford rz/rx, measure
        (qubit,) = gate.qubits
        start = self._qubit_free.get(qubit, 0.0)
        self._record(
            "gate", name, gate.qubits, (), start,
            self.isa.duration(gate), gate_index=node.index,
        )

    def _partner_drift_goal(self, node: DagNode, qubit: int) -> Optional[Position]:
        """Where ``qubit`` should drift: its next partner, else its home.

        This is the gate-dependent look-ahead of Fig. 4; the home-cell
        fallback keeps repeated alignments from marching the data block
        toward one corner of the grid.  The default strategy's drift
        choice; others may rank destinations differently.
        """
        home = self._home.get(qubit)
        if not self.lookahead:
            return home
        nxt = self._dag.next_gate_on_qubit(node.index, qubit)
        if nxt is None or not nxt.gate.is_two_qubit:
            return home
        partner = next((q for q in nxt.qubits if q != qubit), None)
        if partner is None:
            return home
        try:
            return self.grid.position_of(partner)
        except Exception:
            return home

    @profiled("schedule.cnot")
    def _schedule_cnot(self, node: DagNode) -> None:
        control, target = node.gate.qubits
        strategy = self.strategy
        goals = (
            strategy.drift_goal(self, node, control),
            strategy.drift_goal(self, node, target),
        )
        prefer = strategy.cnot_prefer(self, control, target)
        try:
            plan = plan_cnot_alignment(
                self.grid, control, target, goals, prefer=prefer
            )
        except AlignmentError as exc:
            raise SchedulingError(f"CNOT({control},{target}) unalignable: {exc}") from exc
        cursor = max(
            self._qubit_free.get(control, 0.0), self._qubit_free.get(target, 0.0)
        )
        cursor = self._execute_moves(plan.moves, cursor, gate_index=node.index)
        start = max(
            cursor,
            self._qubit_free.get(control, 0.0),
            self._qubit_free.get(target, 0.0),
            self._cells_ready((plan.ancilla,)),
        )
        self._record(
            "gate",
            node.gate.name,
            (control, target),
            (plan.ancilla,),
            start,
            self.isa.cnot,
            gate_index=node.index,
        )
        self._restore_evictions(
            plan.moves, exclude=(control, target), gate_index=node.index
        )
        # Keep the layout stable: operands head home unless their very
        # next gate is another two-qubit interaction nearby (in which case
        # the Fig. 4 drift is the better choice).
        for operand in (control, target):
            self._rehome(operand, node)

    @profiled("schedule.swap")
    def _schedule_swap(self, node: DagNode) -> None:
        """SWAP as a pair of grid relocations when both cells allow it.

        On the lattice a swap of two patches is three CNOTs; when the two
        qubits are the only constraint we exchange their positions with two
        move cycles (cheaper and equivalent for scheduling purposes when an
        intermediate free cell exists), falling back to 3x CNOT latency.
        """
        a, b = node.gate.qubits
        pos_a, pos_b = self.grid.position_of(a), self.grid.position_of(b)
        spare = next(
            (p for p in self.grid.free_neighbors(pos_a) if p != pos_b), None
        )
        start = max(self._qubit_free.get(a, 0.0), self._qubit_free.get(b, 0.0))
        if spare is None:
            self._record("gate", g.SWAP, (a, b), (), start,
                         3 * self.isa.cnot, gate_index=node.index)
            return
        moves = [(a, pos_a, spare), (b, pos_b, pos_a), (a, spare, pos_b)]
        self._execute_moves(moves, start, gate_index=node.index)

    @profiled("schedule.ancilla")
    def _schedule_with_ancilla(self, node: DagNode) -> None:
        """H / SX: needs one free neighbouring ancilla (space search if none)."""
        (qubit,) = node.gate.qubits
        pos = self.grid.position_of(qubit)
        cursor = self._qubit_free.get(qubit, 0.0)
        free = self.grid.free_neighbors(pos)
        if free:
            ancilla = min(free, key=lambda c: self._cell_free.get(c, 0.0))
        else:
            try:
                plan = find_space(self.grid, pos)
            except SpaceSearchError as exc:
                raise SchedulingError(f"no ancilla space for {node.gate}: {exc}") from exc
            self.stats.space_searches += 1
            cursor = self._execute_moves(plan.moves, cursor, kind="evict",
                                         gate_index=node.index,
                                         cause="space_search")
            ancilla = plan.freed_cell
        start = max(cursor, self._qubit_free.get(qubit, 0.0),
                    self._cells_ready((ancilla,)))
        self._record(
            "gate",
            node.gate.name,
            (qubit,),
            (ancilla,),
            start,
            self.isa.duration(node.gate),
            gate_index=node.index,
        )
        if not free:
            self._restore_evictions(plan.moves, gate_index=node.index)

    #: sentinel program-qubit id for in-flight magic states.
    _MAGIC_ID = 10**9

    def _plan_swap_through(self, port: Position, goals: Set[Position]):
        """Swap-through delivery plan (always succeeds given a path).

        The magic state exchanges places with each data qubit it meets —
        a lattice-surgery patch swap per crossing — so no eviction or free
        spill cell is required.  Crossed qubits end up shifted one cell
        toward the port.  Returns (drop, transit) in the same move-list
        format as :meth:`_route_magic_state`, with swap crossings encoded
        as data-qubit moves (origin -> the state's previous cell).
        """
        try:
            best = find_path_to_any(
                self.grid, port, goals, allow_occupied=True, penalty_weight=2
            )
        except NoPathError:
            return None, []
        if self.grid.is_occupied(port):
            return None, []
        transit = []
        with self.grid.scratch() as scratch:
            prev = best.cells[0]
            for cell in best.cells[1:]:
                occupant = scratch.occupant(cell)
                if occupant is not None:
                    scratch.move(occupant, prev)
                    transit.append((occupant, cell, prev))
                transit.append((self._MAGIC_ID, prev, cell))
                prev = cell
        return best.destination, transit

    @profiled("route.magic")
    def _route_magic_state(self, port: Position, qubit: int, goals: Set[Position]):
        """Plan the transit of one magic state from ``port`` to a drop-off.

        The state is walked across the grid like a qubit (it is one — a
        patch in the |m> state), using the full displacement ladder to
        shove parked data qubits out of the way.  Tries every goal in
        ascending path-cost order, preferring routes through free cells.

        Returns:
            (drop_cell, moves) where moves interleave evictions and the
            state's own hops (qubit id ``_MAGIC_ID``), or (None, []) when
            no goal is reachable.
        """
        # One single-source sweep covers every goal; the penalty ladders run
        # only for goals with no free-only route, again one sweep per weight.
        free_paths = find_paths_to_all(
            self.grid, port, goals, allow_occupied=False
        )
        blocked = {g for g in goals if g not in free_paths}
        # Penalty variants: higher weights hug free corridors and cross
        # the data block only for the final cut-in, which keeps the
        # displacement shallow.
        penalised = {
            weight: find_paths_to_all(
                self.grid, port, blocked,
                allow_occupied=True, penalty_weight=weight,
            )
            for weight in ((1, 8, 32) if blocked else ())
        }
        candidates = []
        seen = set()
        for goal in sorted(goals):
            path = free_paths.get(goal)
            if path is not None:
                candidates.append(path)
                continue  # free-only route found; penalised ones are moot
            for weight in (1, 8, 32):
                path = penalised[weight].get(goal)
                if path is None:
                    continue
                if path.cells not in seen:
                    seen.add(path.cells)
                    candidates.append(path)
        for path in self.strategy.order_delivery(self, candidates):
            with self.grid.scratch() as scratch:
                if scratch.is_occupied(port):
                    # A stray data qubit is resting on the delivery cell;
                    # shove it aside before the state can emerge.
                    cleared = _displace_blocker(
                        scratch, port, frozenset(), set(path.cells), 0
                    )
                    if cleared is None:
                        continue
                    prefix = cleared
                else:
                    prefix = []
                scratch.place(self._MAGIC_ID, port)
                moves = _walk_path_inner(
                    scratch,
                    self._MAGIC_ID,
                    path,
                    banned=frozenset(),
                    keep_off=set(),
                    depth=0,
                )
            if moves is not None:
                return path.destination, prefix + moves
        return None, []

    def _rehome(self, qubit: int, node: DagNode) -> None:
        """Walk ``qubit`` back to its home slot when that is free and safe.

        Keeps the static mapping intact across the program so congestion
        does not accumulate.  Skipped when the qubit's next interaction is
        adjacent to its current spot (the drift is then deliberate), when
        the home cell is taken, or when no clean path exists.
        """
        home = self._home.get(qubit)
        if home is None:
            return
        pos = self.grid.position_of(qubit)
        if pos == home or self.grid.is_occupied(home):
            return
        if not self.strategy.should_rehome(self, qubit, node):
            return
        nxt = self._dag.next_gate_on_qubit(node.index, qubit)
        if nxt is not None and nxt.gate.is_two_qubit:
            partner = next((q for q in nxt.qubits if q != qubit), None)
            if partner is not None:
                try:
                    partner_pos = self.grid.position_of(partner)
                    if Grid.manhattan(pos, partner_pos) <= Grid.manhattan(
                        home, partner_pos
                    ):
                        return  # already well placed for the next gate
                except Exception:
                    pass
        try:
            path = find_path(
                self.grid,
                RoutingRequest(source=pos, destination=home, allow_occupied=False),
            )
        except NoPathError:
            return
        moves = _walk_path(self.grid, qubit, path)
        if moves is None:
            return
        self._execute_moves(moves, self._qubit_free.get(qubit, 0.0),
                            gate_index=node.index)

    def _surface_qubit(
        self, qubit: int, cursor: float, node: DagNode
    ) -> Optional[float]:
        """Walk ``qubit`` to the nearest free region (small-r fallback).

        Used when a magic state cannot be delivered into a deeply buried
        position: the consumer comes to the state instead of the state
        fighting through the whole data block.  Returns the new cursor, or
        None when every refuge walk is blocked by bystanders — the caller
        then falls back to swap-through delivery rather than giving up
        (fuzzer-found: raising here wedged dense r=2 blocks whose ports
        pinned the escape lanes).
        """
        pos = self.grid.position_of(qubit)
        # The parkable filter must be the BFS predicate, not a post-filter:
        # with ``limit`` counting every free routable cell, a cluster of
        # factory ports (routable, never parkable) near the qubit could
        # fill the whole window and starve the search while perfectly good
        # refuges sat one ring further out (fuzzer-found at r=2 with four
        # factories).
        candidates = reachable_free_cells(
            self.grid, pos, predicate=self.grid.parkable, limit=6
        )
        for __, refuge in candidates:
            try:
                path = find_path(
                    self.grid,
                    RoutingRequest(source=pos, destination=refuge,
                                   allow_occupied=True),
                )
            except NoPathError:
                continue
            moves = _walk_path(self.grid, qubit, path)
            if moves is None:
                continue
            return self._execute_moves(moves, cursor, gate_index=node.index)
        return None

    def _clear_port(self, port: Position, cursor: float, node: DagNode) -> float:
        """Shove a squatting data qubit off a factory port.

        Ports are transit-only, but swap-through deliveries shift crossed
        qubits one cell toward the port — and when a qubit gets crossed
        twice in one transit, the post-consume restore skips it (its
        recorded origin no longer matches) and it can end up parked on the
        port itself, bricking the factory for every later state
        (fuzzer-found at r=2 with four factories).  Any squatter is
        transient by construction, so evicting it to the nearest parkable
        refuge is always semantically safe.
        """
        squatter = self.grid.occupant(port)
        if squatter is None:
            return cursor
        candidates = reachable_free_cells(
            self.grid, port, predicate=self.grid.parkable, limit=6
        )
        for __, refuge in candidates:
            try:
                path = find_path(
                    self.grid,
                    RoutingRequest(source=port, destination=refuge,
                                   allow_occupied=True),
                )
            except NoPathError:
                continue
            moves = _walk_path(self.grid, squatter, path)
            if moves is None:
                continue
            return self._execute_moves(
                moves, cursor, kind="evict", gate_index=node.index,
                cause="port_squatter",
            )
        return cursor  # leave it; delivery will fail with its own error

    @profiled("schedule.t")
    def _schedule_t_like(self, node: DagNode) -> None:
        """T / Tdg / non-Clifford rotation: consume magic state(s)."""
        (qubit,) = node.gate.qubits
        n_states = self.synthesis.t_cost(node.gate)
        for _ in range(max(1, n_states)):
            self._consume_one_state(node, qubit)

    def _consume_one_state(self, node: DagNode, qubit: int) -> None:
        pos = self.grid.position_of(qubit)
        cursor = self._qubit_free.get(qubit, 0.0)
        space_moves: List[Tuple[int, Position, Position]] = []
        goals = {
            p for p in self.grid.free_neighbors(pos) if self.grid.routable(p)
        }
        if not goals:
            try:
                plan = find_space(self.grid, pos)
            except SpaceSearchError as exc:
                raise SchedulingError(
                    f"no magic-state drop-off near qubit {qubit}: {exc}"
                ) from exc
            self.stats.space_searches += 1
            cursor = self._execute_moves(plan.moves, cursor, kind="evict",
                                         gate_index=node.index,
                                         cause="space_search")
            space_moves = list(plan.moves)
            goals = {plan.freed_cell}

        ready, factory = self.bank.acquire(cursor)
        self.stats.magic_states += 1
        cursor = self._clear_port(factory.port, cursor, node)
        drop, transit = self._route_magic_state(factory.port, qubit, goals)
        if drop is None:
            # Deeply buried consumer (very small r): bring the data qubit
            # itself toward free space, then retry the delivery.  When the
            # qubit cannot move either, keep the original goals and let the
            # swap-through fallback below force a lane.
            surfaced = self._surface_qubit(qubit, cursor, node)
            if surfaced is not None:
                cursor = surfaced
                pos = self.grid.position_of(qubit)
                goals = {
                    p
                    for p in self.grid.free_neighbors(pos)
                    if self.grid.routable(p)
                }
                if not goals:
                    plan = find_space(self.grid, pos)
                    cursor = self._execute_moves(plan.moves, cursor, kind="evict",
                                                 gate_index=node.index,
                                                 cause="space_search")
                    space_moves += list(plan.moves)
                    goals = {plan.freed_cell}
                drop, transit = self._route_magic_state(factory.port, qubit, goals)
        if drop is None:
            # Guaranteed-progress fallback for extreme layouts (r=2): the
            # state swaps *through* the data block.  Each occupied crossing
            # is a patch swap (3 move cycles); crossed qubits shift one
            # cell toward the port and stay there.
            drop, transit = self._plan_swap_through(factory.port, goals)
        if drop is None:
            raise SchedulingError(
                f"magic state unroutable from {factory.port} to qubit {qubit}"
            )

        # Replay the transit plan.  Evictions of parked data qubits are
        # ordinary moves; the state's own hops are conveyor-style (each
        # locks one cell pair for 1d), so successive states pipeline along
        # the same bus and the routing latency hides behind the next
        # state's distillation window.
        delivered = ready
        evictions: List[Tuple[int, Position, Position]] = []
        for move in transit:
            mover, origin, dest = move
            if mover == self._MAGIC_ID:
                hop_start = max(delivered, self._cells_ready((origin, dest)))
                if not evictions and origin == factory.port:
                    self.stats.route_stall_time += max(0.0, hop_start - ready)
                hop = self._record(
                    "route",
                    g.MOVE,
                    (),
                    (origin, dest),
                    hop_start,
                    self.isa.move,
                    min_start=ready,
                    gate_index=node.index,
                    note=f"magic-state from f{factory.index}",
                )
                delivered = hop.end
                self.stats.route_hops += 1
            else:
                self._execute_moves(
                    [move], 0.0, kind="evict", gate_index=node.index,
                    cause="route_clear",
                )
                evictions.append(move)

        start = max(
            delivered,
            self._qubit_free.get(qubit, 0.0),
            self._cells_ready((drop,)),
        )
        self._record(
            "gate",
            node.gate.name,
            (qubit,),
            (drop,),
            start,
            self.isa.t_consume,
            min_start=ready,
            gate_index=node.index,
            note=f"magic-state from f{factory.index}",
        )
        self._restore_evictions(evictions, gate_index=node.index)
        self._restore_evictions(space_moves, gate_index=node.index)
