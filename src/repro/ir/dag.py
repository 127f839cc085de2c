"""Directed acyclic graph view of a circuit.

The scheduler and the gate-dependent move heuristic (paper Sec. V-A) both
consume the circuit as a DAG: nodes are gates, edges are data dependencies
induced by shared qubits.  The DAG also provides the ASAP layering used for
look-ahead and the critical-path depth used by the DASCOT baseline model.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .circuit import Circuit
from .gates import BARRIER, Gate


@dataclass
class DagNode:
    """One gate instance inside the DAG.

    Attributes:
        index: position of the gate in the original circuit order.
        gate: the gate itself.
        predecessors / successors: node indices this gate depends on / feeds.
        barrier_predecessors: the subset of ``predecessors`` induced by
            barriers rather than shared wires.  The scheduler serialises a
            node in *time* behind these (a wire edge is already enforced by
            the qubit timeline; a barrier edge links disjoint qubits).
        layer: ASAP layer (0-based), filled by :class:`DagCircuit`.
    """

    index: int
    gate: Gate
    predecessors: Set[int] = field(default_factory=set)
    successors: Set[int] = field(default_factory=set)
    barrier_predecessors: Set[int] = field(default_factory=set)
    layer: int = 0

    @property
    def qubits(self) -> Sequence[int]:
        return self.gate.qubits


class DagCircuit:
    """Dependency DAG over the gates of a :class:`~repro.ir.circuit.Circuit`.

    Construction is O(gates).  Barriers order all gates across the barrier's
    qubits but do not become nodes themselves.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.num_qubits = circuit.num_qubits
        self.nodes: List[DagNode] = []
        last_on_wire: Dict[int, Optional[int]] = defaultdict(lambda: None)
        # (node index, qubit) -> index of the next gate on that wire; lets
        # the scheduler's look-ahead query skip the successor-cone walk.
        self._next_on_wire: Dict[tuple, int] = {}
        # qubit -> pending barrier frontier: node indices every future gate
        # on that wire must wait for (consumed by the wire's next gate).
        barrier_pred: Dict[int, Tuple[int, ...]] = {}

        for position, gate in enumerate(circuit):
            if gate.name == BARRIER:
                # A barrier serialises; model it by a pseudo-dependency chain:
                # every future gate on the barrier's qubits depends on the
                # latest gate seen on *any* of those qubits.  A barrier with
                # no explicit qubits spans the whole register.
                span = gate.qubits if gate.qubits else tuple(range(self.num_qubits))
                frontier: Set[int] = set()
                for q in span:
                    prev = last_on_wire[q]
                    if prev is not None:
                        frontier.add(prev)
                    # chain consecutive barriers with no gate in between
                    frontier.update(barrier_pred.get(q, ()))
                for q in span:
                    barrier_pred[q] = tuple(sorted(frontier))
                continue
            node = DagNode(index=len(self.nodes), gate=gate)
            # every predecessor precedes the node in circuit order, so its
            # ASAP layer is final here
            layer = 0
            for q in gate.qubits:
                prev = last_on_wire[q]
                if prev is not None:
                    node.predecessors.add(prev)
                    self.nodes[prev].successors.add(node.index)
                    self._next_on_wire[(prev, q)] = node.index
                    layer = max(layer, self.nodes[prev].layer + 1)
                for pending in barrier_pred.pop(q, ()):
                    if pending not in node.predecessors:
                        node.predecessors.add(pending)
                        node.barrier_predecessors.add(pending)
                        self.nodes[pending].successors.add(node.index)
                        layer = max(layer, self.nodes[pending].layer + 1)
                last_on_wire[q] = node.index
            node.layer = layer
            self.nodes.append(node)

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[DagNode]:
        return iter(self.nodes)

    def node(self, index: int) -> DagNode:
        return self.nodes[index]

    def roots(self) -> List[DagNode]:
        """Gates with no predecessors (the initial frontier)."""
        return [n for n in self.nodes if not n.predecessors]

    # -- queries used by the compiler ----------------------------------------

    def depth(self) -> int:
        """Critical-path length in gates."""
        if not self.nodes:
            return 0
        return max(n.layer for n in self.nodes) + 1

    def layers(self) -> List[List[DagNode]]:
        """Nodes grouped by ASAP layer, each inner list circuit-ordered."""
        grouped: Dict[int, List[DagNode]] = defaultdict(list)
        for node in self.nodes:
            grouped[node.layer].append(node)
        return [grouped[i] for i in range(self.depth())]

    def topological_order(self) -> List[DagNode]:
        """Kahn topological order that respects original circuit order."""
        indegree = {n.index: len(n.predecessors) for n in self.nodes}
        ready = deque(sorted(i for i, d in indegree.items() if d == 0))
        order: List[DagNode] = []
        while ready:
            idx = ready.popleft()
            order.append(self.nodes[idx])
            for succ in sorted(self.nodes[idx].successors):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            raise RuntimeError("cycle detected in circuit DAG")
        return order

    def next_gate_on_qubit(self, after: int, qubit: int) -> Optional[DagNode]:
        """First successor of node ``after`` acting on ``qubit``.

        This is the look-ahead query the gate-dependent move heuristic uses
        to decide where a data qubit should drift after its current gate.
        """
        start = self.nodes[after]
        if qubit in start.qubits:
            # Gates on one wire form a dependency chain, so the first
            # transitive successor acting on the qubit is exactly the next
            # gate on that wire — precomputed at construction.
            nxt = self._next_on_wire.get((after, qubit))
            return None if nxt is None else self.nodes[nxt]
        best: Optional[DagNode] = None
        stack = list(start.successors)
        seen: Set[int] = set()
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            node = self.nodes[idx]
            if qubit in node.qubits:
                if best is None or node.index < best.index:
                    best = node
                continue
            stack.extend(node.successors)
        return best

    def critical_path_timesteps(self, durations: Dict[str, float]) -> float:
        """Weighted critical path, with per-gate durations by mnemonic.

        Unknown mnemonics cost 1.  Used by baseline models that assume
        unconstrained routing (DASCOT) to compute an ideal circuit depth.
        """
        finish: Dict[int, float] = {}
        for node in self.topological_order():
            start = max((finish[p] for p in node.predecessors), default=0.0)
            finish[node.index] = start + durations.get(node.gate.name, 1.0)
        return max(finish.values(), default=0.0)


class ReadyFrontier:
    """Incremental ready-set tracker for event-driven scheduling.

    The scheduler repeatedly asks for gates whose predecessors have all
    completed, marks one complete, and continues.  This class maintains that
    frontier in O(E) total work.

    With a ``priority`` callable the frontier also keeps a lazy min-heap of
    ``(priority(node), node.index)`` entries so the scheduler's
    earliest-start-first pick is O(log n) per gate instead of a full scan of
    the ready set.  The laziness relies on priorities being monotone
    non-decreasing over time for a given node (true for earliest feasible
    start: resource-free times only ever move later): a popped entry whose
    priority has grown stale is re-pushed with its current value, so
    :meth:`pop_best` returns exactly the node a full
    ``min(ready, key=(priority, index))`` scan would.
    """

    def __init__(
        self,
        dag: DagCircuit,
        priority: Optional[Callable[[DagNode], float]] = None,
    ) -> None:
        self._dag = dag
        self._remaining = {n.index: len(n.predecessors) for n in dag.nodes}
        self._ready: Set[int] = {i for i, d in self._remaining.items() if d == 0}
        self._done: Set[int] = set()
        self._priority = priority
        self._heap: List[Tuple[float, int]] = []
        if priority is not None:
            for index in self._ready:
                heapq.heappush(self._heap, (priority(dag.node(index)), index))

    def __len__(self) -> int:
        return len(self._dag) - len(self._done)

    @property
    def exhausted(self) -> bool:
        return len(self._done) == len(self._dag)

    def ready_nodes(self) -> List[DagNode]:
        """Current frontier, in circuit order (deterministic)."""
        return [self._dag.node(i) for i in sorted(self._ready)]

    def pop_best(self) -> DagNode:
        """Lowest-(priority, index) ready node, via the lazy heap.

        Requires a ``priority`` callable at construction.  The node stays in
        the ready set until :meth:`complete` is called for it.
        """
        if self._priority is None:
            raise RuntimeError("pop_best() needs a priority callable")
        heap = self._heap
        while heap:
            pushed, index = heap[0]
            if index not in self._ready:
                heapq.heappop(heap)  # node already completed; drop the entry
                continue
            current = self._priority(self._dag.node(index))
            if current > pushed:
                # Stale: the node's earliest start moved later since the
                # entry was pushed.  Reinsert at its current priority.
                heapq.heapreplace(heap, (current, index))
                continue
            return self._dag.node(index)
        raise RuntimeError("pop_best() on an empty frontier")

    def complete(self, index: int) -> List[DagNode]:
        """Mark node ``index`` finished; return nodes that just became ready."""
        if index in self._done:
            raise ValueError(f"node {index} completed twice")
        if index not in self._ready:
            raise ValueError(f"node {index} is not ready")
        self._ready.remove(index)
        self._done.add(index)
        newly = []
        for succ in self._dag.node(index).successors:
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                self._ready.add(succ)
                newly.append(self._dag.node(succ))
        if self._priority is not None:
            for node in newly:
                heapq.heappush(self._heap, (self._priority(node), node.index))
        return newly
