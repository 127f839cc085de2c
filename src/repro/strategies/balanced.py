"""Move-balancing placement/delivery strategy.

Architectural reference: bloqade-lanes' ``LogicalPlacementStrategy``
(SNIPPETS.md Snippet 1), which keeps home locations fixed and balances the
*cumulative* number of moves each qubit has made instead of maximising the
instantaneous parallelism of any one step.  Translated to this scheduler:

* **Fixed homes** — drift goals always point at the home cell, never at
  the next interaction partner, so repeated alignments cannot march a
  qubit across the block (the churn behind high eviction counts).
* **Balanced CNOT movers** — on an alignment tie, the operand that has
  moved *less* so far is the one that moves, spreading relocation cost
  evenly over the register.
* **Churn-aware delivery** — candidate magic-state routes are penalised
  by the cumulative move counts of the data qubits parked on them, so
  deliveries steer around qubits that have already been shoved repeatedly
  (hot corridors) and evict cold ones instead.

All three choices are pure functions of the per-qubit move ledger, which
the scheduler feeds through :meth:`note_move`; determinism follows from
the ledger being a function of the schedule prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..arch.grid import Position
from .base import Strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.dag import DagNode
    from ..routing.path import Path
    from ..scheduling.scheduler import LatticeSurgeryScheduler

#: weight of one blocker-move-count unit in route-cost units.  Route costs
#: are O(path length); a modest weight lets a badly churned corridor lose
#: to a slightly longer cold one without overriding large cost gaps.
_CHURN_WEIGHT = 0.25


class BalancedStrategy(Strategy):
    """Balance cumulative moves per qubit (Snippet 1 spirit)."""

    name = "balanced"
    tracks_moves = True

    def __init__(self) -> None:
        self._moves: Dict[int, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def begin_run(self, scheduler: "LatticeSurgeryScheduler") -> None:
        self._moves = {}

    def note_move(self, qubit: int, kind: str) -> None:
        self._moves[qubit] = self._moves.get(qubit, 0) + 1

    # -- choices ------------------------------------------------------------

    def drift_goal(
        self,
        scheduler: "LatticeSurgeryScheduler",
        node: "DagNode",
        qubit: int,
    ) -> Optional[Position]:
        return scheduler._home.get(qubit)

    def cnot_prefer(
        self,
        scheduler: "LatticeSurgeryScheduler",
        control: int,
        target: int,
    ) -> Optional[str]:
        moved_control = self._moves.get(control, 0)
        moved_target = self._moves.get(target, 0)
        if moved_control < moved_target:
            return "control"
        if moved_target < moved_control:
            return "target"
        return None

    def delivery_key(
        self,
        scheduler: "LatticeSurgeryScheduler",
    ) -> Callable[["Path"], tuple]:
        grid = scheduler.grid
        moves = self._moves

        def key(path: "Path") -> tuple:
            total = 0
            for cell in path.cells:
                occupant = grid.occupant(cell)
                if occupant is not None:
                    total += moves.get(occupant, 0)
            # Deterministic ranking: penalised cost (churn >= 0, so it is
            # never below the raw cost), then raw cost, then the route
            # itself as the final tie-break.
            return (path.cost + _CHURN_WEIGHT * total, path.cost, path.cells)

        return key

    # -- reporting ----------------------------------------------------------

    def aux_stats(self) -> Dict[str, float]:
        if not self._moves:
            return {}
        counts = sorted(self._moves.values())
        return {
            "strategy_max_qubit_moves": float(counts[-1]),
            "strategy_moved_qubits": float(len(counts)),
        }
