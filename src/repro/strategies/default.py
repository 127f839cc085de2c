"""The historical scheduler behaviour as a named strategy.

``default`` is the reference point of the quality trajectory: it makes
exactly the choices the scheduler made before the strategy seam existed,
so its fingerprints are bit-identical to the committed baselines.  Every
hook here must keep that property — behaviour changes belong in a new
strategy, not in this one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..arch.grid import Position
from .base import Strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.dag import DagNode
    from ..routing.path import Path
    from ..scheduling.scheduler import LatticeSurgeryScheduler


class DefaultStrategy(Strategy):
    """Partner-drift look-ahead plus cheapest-route-first delivery."""

    name = "default"

    def drift_goal(
        self,
        scheduler: "LatticeSurgeryScheduler",
        node: "DagNode",
        qubit: int,
    ) -> Optional[Position]:
        # The Fig. 4 gate-dependent look-ahead: drift toward the next
        # interaction partner, falling back to the home cell.
        return scheduler._partner_drift_goal(node, qubit)

    def delivery_key(
        self,
        scheduler: "LatticeSurgeryScheduler",
    ) -> Callable[["Path"], tuple]:
        # Ascending path cost; the sort is stable, so equal-cost routes
        # keep their goal order.
        return _by_cost


def _by_cost(path: "Path") -> tuple:
    return (path.cost,)
