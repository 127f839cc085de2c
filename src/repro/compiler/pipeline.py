"""End-to-end compiler: mapping -> routing -> scheduling (paper Sec. V).

Usage::

    from repro import FaultTolerantCompiler, CompilerConfig
    from repro.workloads import ising_2d

    compiler = FaultTolerantCompiler(CompilerConfig(routing_paths=4))
    result = compiler.compile(ising_2d(10))
    print(result.summary())
"""

from __future__ import annotations

from typing import Optional

from ..arch.instruction_set import InstructionSet
from ..arch.layout import Layout, assign_factory_ports, build_layout
from ..baselines.lower_bound import distillation_lower_bound
from ..ir.circuit import Circuit
from ..ir.properties import profile
from ..perf.profiler import phase
from ..scheduling.resim import optimize_schedule
from ..scheduling.scheduler import LatticeSurgeryScheduler
from ..strategies import get_strategy
from .config import CompilerConfig
from .result import CompilationResult


class FaultTolerantCompiler:
    """The paper's distillation-adaptive early-FTQC compiler."""

    def __init__(self, config: Optional[CompilerConfig] = None) -> None:
        self.config = config or CompilerConfig()

    # -- stages ------------------------------------------------------------------

    def build_layout(self, circuit: Circuit) -> Layout:
        """Mapping stage, part 1: construct the Fig. 3 layout."""
        return build_layout(circuit.num_qubits, self.config.routing_paths)

    def compile(
        self,
        circuit: Circuit,
        layout: Optional[Layout] = None,
        validate: bool = False,
    ) -> CompilationResult:
        """Compile ``circuit`` and return metrics-laden results.

        Args:
            circuit: a Clifford+T program.
            layout: optional pre-built layout (must match the config's r).
            validate: run the :mod:`repro.verify` replay validator over both
                the raw and the optimised schedule; raises
                :class:`~repro.verify.ValidationError` on any violation.
                Also forced on by the ``REPRO_VALIDATE`` environment
                variable (the debug assertion mode CI uses).
        """
        config = self.config
        if not validate:
            from ..verify import env_forced

            validate = env_forced()
        with phase("pipeline.mapping"):
            layout = layout or self.build_layout(circuit)
            placement = get_strategy(config.strategy).initial_placement(
                circuit, layout, config
            )
            ports = assign_factory_ports(layout, config.num_factories)

        with phase("pipeline.schedule"):
            schedule, stats, aux_stats, dag = self._run_schedule(
                circuit, layout, placement, ports, config.instruction_set
            )
        # The raw-stage pass only adds information when the Sec. V-D
        # optimisation will rewrite the schedule; otherwise the final
        # validation below covers the identical object.
        if validate and config.eliminate_redundant_moves:
            self._validate_schedule(schedule, circuit, "raw")
        elimination = None
        if config.eliminate_redundant_moves:
            with phase("pipeline.optimize"):
                schedule, elimination = optimize_schedule(schedule)

        unit_time = None
        if config.compute_unit_cost_time:
            with phase("pipeline.unit_cost"):
                unit_schedule, _, _, _ = self._run_schedule(
                    circuit, layout, placement, ports, InstructionSet.unit()
                )
                if config.eliminate_redundant_moves:
                    unit_schedule, _ = optimize_schedule(unit_schedule)
                unit_time = unit_schedule.makespan

        # Reuse the scheduler's DAG: building it is the only expensive part
        # of profiling and the circuit has not changed since scheduling.
        circuit_profile = profile(circuit, dag=dag)
        t_states = config.synthesis.circuit_t_count(circuit)
        factory_config = config.factory_config()
        bound = distillation_lower_bound(
            t_states, factory_config.distill_time, config.num_factories
        )
        result = CompilationResult(
            schedule=schedule,
            layout=layout,
            profile=circuit_profile,
            execution_time=schedule.makespan,
            unit_cost_time=unit_time,
            num_factories=config.num_factories,
            factory_area=factory_config.area,
            t_states=t_states,
            lower_bound=bound,
            elimination=elimination,
            stats=stats,
            aux_stats=aux_stats,
        )
        if validate:
            from ..verify import raise_if_invalid, validate_result

            with phase("pipeline.validate"):
                raise_if_invalid(
                    validate_result(result, circuit, config, label=circuit.name)
                )
        return result

    def _validate_schedule(self, schedule, circuit, label: str) -> None:
        """Replay-validate one schedule stage; raise on any violation."""
        from ..verify import config_distill_times, raise_if_invalid, validate_schedule

        config = self.config
        raise_if_invalid(
            validate_schedule(
                schedule,
                circuit=circuit,
                distill_times=config_distill_times(config),
                expected_t_states=config.synthesis.circuit_t_count(circuit),
                label=f"{circuit.name}/{label}",
            )
        )

    def _run_schedule(self, circuit, layout, placement, ports, isa):
        # A fresh strategy instance per schedule run: strategies hold
        # per-run mutable state (move ledgers) that must not leak between
        # the realistic and unit-cost passes.
        strategy = get_strategy(self.config.strategy)
        scheduler = LatticeSurgeryScheduler(
            grid=layout.grid,
            instruction_set=isa,
            factory_ports=ports,
            factory_config=self.config.factory_config(),
            synthesis=self.config.synthesis,
            lookahead=self.config.lookahead,
            strategy=strategy,
        )
        schedule = scheduler.run(circuit, placement)
        aux = scheduler.stats.aux_dict()
        aux.update(strategy.aux_stats())
        return schedule, scheduler.stats.as_dict(), aux, scheduler._dag


def compile_circuit(
    circuit: Circuit,
    routing_paths: int = 4,
    num_factories: int = 1,
    **config_kwargs,
) -> CompilationResult:
    """One-call convenience wrapper around :class:`FaultTolerantCompiler`."""
    config = CompilerConfig(
        routing_paths=routing_paths, num_factories=num_factories, **config_kwargs
    )
    return FaultTolerantCompiler(config).compile(circuit)
