"""Placement/delivery strategy tests: registry, config plumbing, the
default strategy's bit-identity, the balanced strategy's validity and
its win on a tracked case, the CNOT mover-preference seam and the
restore-cycle breaker.  The per-strategy quality gate built on top is
tested in ``test_perf_bench.py``."""

import pytest

from repro.arch.grid import Grid
from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler, compile_circuit
from repro.routing.neighbor_moves import plan_cnot_alignment
from repro.scheduling.scheduler import LatticeSurgeryScheduler
from repro.strategies import (
    STRATEGIES,
    STRATEGY_NAMES,
    BalancedStrategy,
    DefaultStrategy,
    get_strategy,
)
from repro.verify import raise_if_invalid, validate_result
from repro.workloads import ising_2d, load_benchmark


class TestRegistry:
    def test_known_names(self):
        assert STRATEGY_NAMES == ("default", "balanced")
        assert STRATEGIES["default"] is DefaultStrategy
        assert STRATEGIES["balanced"] is BalancedStrategy

    def test_fresh_instance_per_call(self):
        assert get_strategy("balanced") is not get_strategy("balanced")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("greedy")

    def test_config_validates_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CompilerConfig(strategy="greedy")
        assert CompilerConfig(strategy="balanced").strategy == "balanced"


class TestDefaultStrategy:
    def test_default_is_the_implicit_strategy(self):
        circuit = ising_2d(2)
        implicit = compile_circuit(circuit, routing_paths=3)
        explicit = compile_circuit(circuit, routing_paths=3, strategy="default")
        assert implicit.fingerprint() == explicit.fingerprint()
        assert implicit.schedule.to_dict() == explicit.schedule.to_dict()

    def test_scheduler_accepts_name_or_instance(self):
        circuit = ising_2d(2)
        by_name = compile_circuit(circuit, routing_paths=3)
        config = CompilerConfig(routing_paths=3)
        compiler = FaultTolerantCompiler(config)
        again = compiler.compile(circuit)
        assert by_name.fingerprint() == again.fingerprint()


class TestBalancedStrategy:
    @pytest.fixture(scope="class")
    def tracked_pair(self):
        """The fast-matrix case where balanced beats default."""
        circuit = load_benchmark("ising_2d_4x4")
        results = {}
        for strategy in ("default", "balanced"):
            config = CompilerConfig(
                routing_paths=4, num_factories=2, strategy=strategy
            )
            result = FaultTolerantCompiler(config).compile(circuit)
            raise_if_invalid(
                validate_result(result, circuit, config, label=strategy)
            )
            results[strategy] = result
        return results

    def test_replay_valid_and_distinct(self, tracked_pair):
        default, balanced = tracked_pair["default"], tracked_pair["balanced"]
        # the strategies genuinely diverge on this case...
        assert balanced.fingerprint() != default.fingerprint()
        # ...and balanced wins on schedule quality (both are replay-valid
        # already, via the fixture)
        assert balanced.execution_time <= default.execution_time
        assert (
            balanced.stats["evictions"] < default.stats["evictions"]
            or balanced.execution_time < default.execution_time
        )

    def test_deterministic(self, tracked_pair):
        circuit = load_benchmark("ising_2d_4x4")
        config = CompilerConfig(routing_paths=4, num_factories=2, strategy="balanced")
        again = FaultTolerantCompiler(config).compile(circuit)
        assert again.fingerprint() == tracked_pair["balanced"].fingerprint()

    def test_move_ledger_reported(self, tracked_pair):
        aux = tracked_pair["balanced"].aux_stats
        assert aux["strategy_max_qubit_moves"] >= 1
        assert aux["strategy_moved_qubits"] >= 1
        # the default strategy does not track moves
        assert "strategy_max_qubit_moves" not in tracked_pair["default"].aux_stats


class TestCnotPreference:
    def _tie_grid(self):
        """Control and target each exactly one move from a ready diagonal:
        control (1,1) -> (1,2) or target (2,3) -> (2,2)."""
        grid = Grid(5, 5)
        grid.place(0, (1, 1))  # control
        grid.place(1, (2, 3))  # target
        return grid

    def test_default_tie_break_moves_target(self):
        plan = plan_cnot_alignment(self._tie_grid(), 0, 1)
        assert plan.num_moves == 1
        assert plan.moves[0][0] == 1

    def test_prefer_none_matches_omitted(self):
        a = plan_cnot_alignment(self._tie_grid(), 0, 1)
        b = plan_cnot_alignment(self._tie_grid(), 0, 1, prefer=None)
        assert a == b

    def test_prefer_control_flips_the_tie(self):
        plan = plan_cnot_alignment(self._tie_grid(), 0, 1, prefer="control")
        assert plan.num_moves == 1
        assert plan.moves[0][0] == 0

    def test_preference_never_beats_a_cheaper_plan(self):
        # Block the control's one-hop landing cell: its plan now needs a
        # displacement, so the 1-move target plan must win even under a
        # control preference.
        grid = self._tie_grid()
        grid.place(4, (1, 2))
        plan = plan_cnot_alignment(grid, 0, 1, prefer="control")
        assert plan.num_moves == 1
        assert plan.moves[0][0] == 1


class TestRestoreCycleBreaker:
    def test_breaker_counts_and_stays_valid(self, monkeypatch):
        """With the limit floored, the storm case still replay-validates
        and the breaks are visible in aux stats."""
        monkeypatch.setattr(LatticeSurgeryScheduler, "RESTORE_CYCLE_LIMIT", 1)
        circuit = load_benchmark("ising_2d_4x4")
        config = CompilerConfig(routing_paths=3, num_factories=1)
        result = FaultTolerantCompiler(config).compile(circuit)
        assert result.aux_stats["restore_cycle_breaks"] > 0
        raise_if_invalid(
            validate_result(result, circuit, config, label="cycle-break")
        )

    def test_aux_stats_survive_serialization(self):
        from repro.compiler.result import CompilationResult

        result = compile_circuit(load_benchmark("ising_2d_4x4"), routing_paths=3)
        assert result.aux_stats["restores"] > 0
        rebuilt = CompilationResult.from_dict(result.to_dict())
        assert rebuilt.aux_stats == result.aux_stats
        # diagnostics never leak into the behavioural fingerprint
        assert "restores" not in result.fingerprint()["stats"]
