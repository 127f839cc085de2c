"""Compiler configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..arch.factory import FactoryConfig
from ..arch.instruction_set import InstructionSet
from ..strategies import STRATEGY_NAMES
from ..synthesis.clifford_t import SynthesisModel


@dataclass(frozen=True)
class CompilerConfig:
    """All knobs of the early-FTQC compiler.

    Attributes:
        routing_paths: the ``r`` parameter of the Fig. 3 layout family.
        num_factories: magic state distillation factories (``n_MSF``).
        instruction_set: lattice-surgery latency model (Fig. 7 defaults).
        factory: distillation parameters; its ``distill_time`` defaults to
            the instruction set's 11d when left at None.
        synthesis: T-cost model for non-Clifford rotations.
        mapping: "auto" (choose snake vs grid from the interaction graph),
            "grid" (row-major) or "snake".
        lookahead: gate-dependent drift goals for CNOT alignment (Sec. V-A).
        eliminate_redundant_moves: run the Sec. V-D scheduling pass.
        compute_unit_cost_time: also schedule with the unit-cost instruction
            set (needed for Fig. 8's second series; costs one extra run).
        strategy: placement/delivery strategy (see :mod:`repro.strategies`).
            "default" reproduces the historical scheduler choices;
            "balanced" balances cumulative moves per qubit.  It changes
            the compiled schedule, so it participates in
            ``config_fingerprint`` and every cache key.
    """

    routing_paths: int = 4
    num_factories: int = 1
    instruction_set: InstructionSet = field(default_factory=InstructionSet.paper)
    factory: Optional[FactoryConfig] = None
    synthesis: SynthesisModel = field(default_factory=SynthesisModel.single_t)
    mapping: str = "auto"
    lookahead: bool = True
    eliminate_redundant_moves: bool = True
    compute_unit_cost_time: bool = False
    strategy: str = "default"

    def __post_init__(self) -> None:
        if self.routing_paths < 1:
            raise ValueError("routing_paths must be >= 1")
        if self.num_factories < 1:
            raise ValueError("num_factories must be >= 1")
        if self.mapping not in ("auto", "grid", "snake"):
            raise ValueError(f"unknown mapping strategy {self.mapping!r}")
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {', '.join(STRATEGY_NAMES)}"
            )

    def factory_config(self) -> FactoryConfig:
        """Resolved distillation parameters."""
        if self.factory is not None:
            return self.factory
        return FactoryConfig(
            distill_time=self.instruction_set.distill,
            area=self.instruction_set.factory_area,
        )

    def with_(self, **changes) -> "CompilerConfig":
        """Functional update helper used by parameter sweeps."""
        return replace(self, **changes)
