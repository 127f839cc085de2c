"""The placement/delivery strategy contract (ROADMAP item 4).

A :class:`Strategy` owns every *choice* the scheduler makes that is not
forced by the placement constraints themselves: where program qubits live
initially, where a CNOT operand should drift (the Fig. 4 look-ahead),
which operand of a CNOT moves on a tie, and in what order magic-state
delivery routes are attempted.  The mechanics — alignment planning, the
displacement ladder, factory pipelining — stay in
:mod:`repro.scheduling.scheduler` and :mod:`repro.routing`; strategies
only rank the options those mechanics produce.

Strategies are addressed by name through :data:`repro.strategies.STRATEGIES`
and selected with ``CompilerConfig(strategy=...)``.  The strategy changes
the compiled schedule, so it participates in ``config_fingerprint`` and
therefore in every sweep cache key, service request and gateway job id.

Every hook must be **deterministic**: two runs over the same circuit and
layout must make identical choices (the fuzzer's determinism oracle holds
every strategy to this).  Hooks receive the live scheduler and may read
its grid and bookkeeping, but must not mutate either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..arch.grid import Position

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.layout import Layout
    from ..compiler.config import CompilerConfig
    from ..ir.circuit import Circuit
    from ..ir.dag import DagNode
    from ..routing.path import Path
    from ..scheduling.scheduler import LatticeSurgeryScheduler


class Strategy:
    """Base class: the hooks every placement/delivery strategy implements.

    Attributes:
        name: registry identifier (the ``CompilerConfig.strategy`` value).
        tracks_moves: when True the scheduler reports every executed move
            through :meth:`note_move`; leave False to keep the hot path
            free of per-move callbacks.
    """

    name = "base"
    tracks_moves = False

    # -- placement ----------------------------------------------------------

    def initial_placement(
        self,
        circuit: "Circuit",
        layout: "Layout",
        config: "CompilerConfig",
    ) -> Dict[int, Position]:
        """Initial static mapping of program qubits onto data slots."""
        from ..compiler.mapping import choose_mapping

        return choose_mapping(circuit, layout, config.mapping)

    # -- per-run lifecycle --------------------------------------------------

    def begin_run(self, scheduler: "LatticeSurgeryScheduler") -> None:
        """Reset per-run state; called from the scheduler's ``_reset``."""

    def note_move(self, qubit: int, kind: str) -> None:
        """One executed move of ``qubit`` (kind: move/evict/restore).

        Only called when :attr:`tracks_moves` is True, and never for the
        in-flight magic-state sentinel.
        """

    # -- scheduling choices -------------------------------------------------

    def drift_goal(
        self,
        scheduler: "LatticeSurgeryScheduler",
        node: "DagNode",
        qubit: int,
    ) -> Optional[Position]:
        """Where ``qubit`` should drift while aligning for ``node``."""
        raise NotImplementedError

    def cnot_prefer(
        self,
        scheduler: "LatticeSurgeryScheduler",
        control: int,
        target: int,
    ) -> Optional[str]:
        """Which operand should move on an alignment tie.

        Returns ``"control"``, ``"target"`` or None (the planner's
        historical tie-break, which favours the target).
        """
        return None

    def should_rehome(
        self,
        scheduler: "LatticeSurgeryScheduler",
        qubit: int,
        node: "DagNode",
    ) -> bool:
        """Whether ``qubit`` walks back to its home slot after a CNOT."""
        return True

    def order_delivery(
        self,
        scheduler: "LatticeSurgeryScheduler",
        candidates: List["Path"],
    ) -> List["Path"]:
        """Rank candidate magic-state delivery routes, best first."""
        raise NotImplementedError

    # -- reporting ----------------------------------------------------------

    def aux_stats(self) -> Dict[str, float]:
        """Strategy-specific counters for the result's ``aux_stats``."""
        return {}
