"""Compilation result and derived metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from ..arch.layout import Layout
from ..ir.properties import CircuitProfile
from ..scheduling.events import Schedule
from ..scheduling.redundant_moves import EliminationReport

#: the keys of :meth:`CompilationResult.fingerprint`, in order.  The perf
#: harness's drift gate compares exactly these fields — import this tuple
#: rather than restating the list.
FINGERPRINT_FIELDS = ("makespan", "num_ops", "num_moves", "stats")


@dataclass
class CompilationResult:
    """Everything the evaluation section needs from one compile run.

    Attributes:
        schedule: the final (optimised) schedule.
        layout: the layout compiled onto.
        profile: static profile of the input circuit.
        execution_time: makespan in units of d (realistic latencies).
        unit_cost_time: makespan under the unit-cost instruction set, or
            None when not requested (Fig. 8's second series).
        num_factories: distillation factories provisioned.
        factory_area: logical patches per factory.
        t_states: magic states consumed.
        lower_bound: Eq. 2 distillation bound for this configuration.
        elimination: redundant-move pass report (None when disabled).
        stats: raw scheduler counters.
        aux_stats: diagnostic counters (eviction causes, restore-cycle
            breaks, strategy ledgers, ...).  Serialized and reported but
            deliberately NOT part of :meth:`fingerprint` — new diagnostics
            must never invalidate baselines or cache entries.
    """

    schedule: Schedule
    layout: Layout
    profile: CircuitProfile
    execution_time: float
    unit_cost_time: Optional[float]
    num_factories: int
    factory_area: int
    t_states: int
    lower_bound: float
    elimination: Optional[EliminationReport] = None
    stats: Dict[str, float] = field(default_factory=dict)
    aux_stats: Dict[str, float] = field(default_factory=dict)

    # -- qubit accounting -------------------------------------------------------

    @property
    def compute_qubits(self) -> int:
        """Logical qubits in the computation block (data + bus)."""
        return self.layout.total_qubits

    @property
    def total_qubits(self) -> int:
        """Computation block plus distillation factories."""
        return self.compute_qubits + self.num_factories * self.factory_area

    # -- paper metrics ------------------------------------------------------------

    def spacetime_volume(self, include_factories: bool = True) -> float:
        """Qubits x execution time (Figs. 9, 13 include factories; 15 not)."""
        qubits = self.total_qubits if include_factories else self.compute_qubits
        return qubits * self.execution_time

    def spacetime_volume_per_op(self, include_factories: bool = True) -> float:
        """Spacetime volume normalised by input gate count (Fig. 9's y-axis)."""
        ops = max(1, self.profile.num_gates)
        return self.spacetime_volume(include_factories) / ops

    @property
    def cpi(self) -> float:
        """Cycles per instruction: time / input operation count (Fig. 13/14)."""
        return self.execution_time / max(1, self.profile.num_gates)

    @property
    def time_vs_lower_bound(self) -> float:
        """Execution-time overhead factor relative to the Eq. 2 bound."""
        if self.lower_bound <= 0:
            return 1.0
        return self.execution_time / self.lower_bound

    @property
    def unit_time_vs_lower_bound(self) -> Optional[float]:
        if self.unit_cost_time is None or self.lower_bound <= 0:
            return None
        return self.unit_cost_time / self.lower_bound

    def fingerprint(self) -> Dict:
        """Behavioural fingerprint of the compiled schedule.

        The fields a perf change must never alter: the perf harness gates
        ``--baseline`` drift on them and the compile service echoes them
        in every response, so both must share this one definition.  Keys
        are exactly :data:`FINGERPRINT_FIELDS`.
        """
        values = {
            "makespan": self.schedule.makespan,
            "num_ops": len(self.schedule),
            "num_moves": self.schedule.num_moves,
            "stats": dict(self.stats),
        }
        return {field: values[field] for field in FINGERPRINT_FIELDS}

    # -- serialization ----------------------------------------------------------

    def to_dict(self, include_schedule: bool = True) -> dict:
        """Stable JSON-safe form (the public API edge: ``full`` replies).

        The layout is stored by its generating parameters, not cell-by-cell:
        :func:`~repro.arch.layout.build_layout` is deterministic, so
        ``(num_data, routing_paths)`` reconstructs the identical grid.
        ``include_schedule=False`` leaves the ops out: the binary codec
        (:mod:`repro.compiler.codec`) stores them column by column.
        """
        data = {
            "layout": {
                "num_data": self.layout.num_data,
                "routing_paths": self.layout.routing_paths,
            },
            "profile": asdict(self.profile),
            "execution_time": self.execution_time,
            "unit_cost_time": self.unit_cost_time,
            "num_factories": self.num_factories,
            "factory_area": self.factory_area,
            "t_states": self.t_states,
            "lower_bound": self.lower_bound,
            "elimination": (
                None if self.elimination is None else asdict(self.elimination)
            ),
            "stats": dict(self.stats),
            "aux_stats": dict(self.aux_stats),
        }
        if include_schedule:
            data["schedule"] = self.schedule.to_dict()
        return data

    @classmethod
    def from_dict(
        cls, data: dict, schedule: Optional[Schedule] = None
    ) -> "CompilationResult":
        """Rebuild a result from :meth:`to_dict` output.

        ``schedule`` supplies the ops already decoded (the binary codec's
        path); ``data["schedule"]`` is then not read.
        """
        from ..arch.layout import build_layout

        profile_data = dict(data["profile"])
        profile_data["gate_counts"] = dict(profile_data["gate_counts"])
        elimination = data.get("elimination")
        return cls(
            schedule=(
                Schedule.from_dict(data["schedule"])
                if schedule is None
                else schedule
            ),
            layout=build_layout(
                data["layout"]["num_data"], data["layout"]["routing_paths"]
            ),
            profile=CircuitProfile(**profile_data),
            execution_time=data["execution_time"],
            unit_cost_time=data.get("unit_cost_time"),
            num_factories=data["num_factories"],
            factory_area=data["factory_area"],
            t_states=data["t_states"],
            lower_bound=data["lower_bound"],
            elimination=(
                None if elimination is None else EliminationReport(**elimination)
            ),
            stats=dict(data.get("stats", {})),
            aux_stats=dict(data.get("aux_stats", {})),
        )

    def summary(self) -> str:
        lines = [
            f"circuit        : {self.profile.name} "
            f"({self.profile.num_qubits} qubits, {self.profile.num_gates} gates)",
            f"layout         : r={self.layout.routing_paths}, "
            f"{self.compute_qubits} compute qubits "
            f"({self.layout.num_bus} bus)",
            f"factories      : {self.num_factories} x {self.factory_area} patches",
            f"t states       : {self.t_states}",
            f"execution time : {self.execution_time:.1f} d "
            f"({self.time_vs_lower_bound:.2f}x lower bound {self.lower_bound:.1f} d)",
        ]
        if self.unit_cost_time is not None:
            lines.append(
                f"unit-cost time : {self.unit_cost_time:.1f} d "
                f"({self.unit_cost_time / self.lower_bound:.2f}x bound)"
                if self.lower_bound > 0
                else f"unit-cost time : {self.unit_cost_time:.1f} d"
            )
        lines.append(
            f"spacetime vol  : {self.spacetime_volume():.0f} qubit-d "
            f"(excl. factories {self.spacetime_volume(False):.0f})"
        )
        if self.elimination is not None:
            lines.append(
                f"moves removed  : {self.elimination.moves_removed} "
                f"({self.elimination.removed_pairs} inverse pairs)"
            )
        return "\n".join(lines)
