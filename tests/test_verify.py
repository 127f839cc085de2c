"""Schedule validity engine: unit tests per violation class plus
end-to-end validation of real compiled schedules (raw and optimised)."""

import pytest

from repro.arch.layout import assign_factory_ports, build_layout
from repro.compiler.config import CompilerConfig
from repro.compiler.mapping import choose_mapping
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.ir.circuit import Circuit
from repro.scheduling.events import MAGIC_NOTE_PREFIX, Schedule, ScheduledOp
from repro.scheduling.scheduler import LatticeSurgeryScheduler
from repro.verify import (
    ValidationError,
    raise_if_invalid,
    validate_result,
    validate_schedule,
)
from repro.workloads import load_benchmark


def op(uid, kind="gate", name="s", qubits=(0,), cells=(), start=0.0,
       duration=1.0, min_start=0.0, gate_index=None, note=""):
    return ScheduledOp(
        uid=uid, kind=kind, name=name, qubits=qubits, cells=cells,
        start=start, duration=duration, min_start=min_start,
        gate_index=gate_index, note=note,
    )


class TestStructure:
    def test_clean_schedule_ok(self):
        report = validate_schedule(Schedule([op(0), op(1, start=1.0)]))
        assert report.ok
        assert report.ops_checked == 2

    def test_non_increasing_uid_flagged(self):
        report = validate_schedule(Schedule([op(5), op(3, start=2.0)]))
        assert report.count("structure") == 1

    def test_negative_start_flagged(self):
        report = validate_schedule(Schedule([op(0, start=-1.0)]))
        assert report.count("structure") == 1

    def test_negative_duration_flagged(self):
        report = validate_schedule(Schedule([op(0, duration=-2.0)]))
        assert report.count("structure") == 1


class TestFootprint:
    def test_move_without_cell_pair_flagged(self):
        bad = op(0, kind="move", name="move", cells=((0, 0),))
        assert validate_schedule(Schedule([bad])).count("footprint") == 1

    def test_route_without_cell_pair_flagged(self):
        bad = op(0, kind="route", name="move", qubits=(), cells=())
        assert validate_schedule(Schedule([bad])).count("footprint") == 1

    def test_hadamard_without_ancilla_flagged(self):
        assert validate_schedule(Schedule([op(0, name="h")])).count("footprint") == 1

    def test_t_without_drop_cell_flagged(self):
        assert validate_schedule(Schedule([op(0, name="t")])).count("footprint") == 1

    def test_gate_with_footprint_ok(self):
        good = op(0, name="h", cells=((1, 1),))
        assert validate_schedule(Schedule([good])).ok

    def test_t_like_rz_without_drop_cell_flagged_via_circuit(self):
        # the circuit= entry point (what --validate uses) must read the
        # circuit's gates before the footprint check so t-like rz consumes
        # need a cell
        circuit = Circuit(1).rz(0.3, 0)
        bad = op(0, name="rz", duration=2.5, gate_index=0)
        report = validate_schedule(Schedule([bad]), circuit=circuit)
        assert report.count("footprint") == 1

    def test_nan_times_flagged(self):
        # NaN compares False against everything, silently defeating the
        # interval checks — it must be a structure violation instead
        bad = op(0, start=float("nan"))
        report = validate_schedule(Schedule([bad]))
        assert report.count("structure") == 1

    def test_infinite_duration_flagged(self):
        bad = op(0, duration=float("inf"))
        assert validate_schedule(Schedule([bad])).count("structure") == 1


class TestTimeline:
    def test_overlap_flagged(self):
        schedule = Schedule([
            op(0, name="s", start=0.0, duration=5.0),
            op(1, name="s", start=2.0, duration=1.0),
        ])
        assert validate_schedule(schedule).count("timeline") == 1

    def test_out_of_order_flagged(self):
        # second op in schedule order starts before the first one ends
        schedule = Schedule([
            op(0, name="s", start=10.0, duration=2.0),
            op(1, name="s", start=0.0, duration=2.0),
        ])
        assert validate_schedule(schedule).count("timeline") == 1

    def test_disjoint_qubits_ok(self):
        schedule = Schedule([
            op(0, name="s", qubits=(0,), start=0.0, duration=5.0),
            op(1, name="s", qubits=(1,), start=0.0, duration=5.0),
        ])
        assert validate_schedule(schedule).ok


class TestCellConflict:
    def test_overlapping_footprints_flagged(self):
        schedule = Schedule([
            op(0, name="h", qubits=(0,), cells=((2, 2),), start=0.0, duration=3.0),
            op(1, name="h", qubits=(1,), cells=((2, 2),), start=1.0, duration=3.0),
        ])
        assert validate_schedule(schedule).count("cell-conflict") == 1

    def test_back_to_back_footprints_ok(self):
        schedule = Schedule([
            op(0, name="h", qubits=(0,), cells=((2, 2),), start=0.0, duration=3.0),
            op(1, name="h", qubits=(1,), cells=((2, 2),), start=3.0, duration=3.0),
        ])
        assert validate_schedule(schedule).ok

    def test_move_locks_destination_only(self):
        # a move's origin is reusable in the same cycle (chain shift)
        schedule = Schedule([
            op(0, kind="move", name="move", qubits=(0,),
               cells=((0, 0), (0, 1)), start=0.0),
            op(1, kind="move", name="move", qubits=(1,),
               cells=((1, 0), (0, 0)), start=0.0),
        ])
        assert validate_schedule(schedule).ok


class TestMinStart:
    def test_early_start_flagged(self):
        bad = op(0, name="s", start=3.0, min_start=7.0)
        report = validate_schedule(Schedule([bad]))
        assert report.count("min-start") == 1

    def test_respected_floor_ok(self):
        good = op(0, name="s", start=7.0, min_start=7.0)
        assert validate_schedule(Schedule([good])).ok


class TestDependencies:
    def test_wire_order_violation_flagged(self):
        circuit = Circuit(1).s(0).s(0)
        schedule = Schedule([
            op(0, name="s", start=5.0, duration=1.5, gate_index=0),
            op(1, name="s", start=0.0, duration=1.5, gate_index=1),
        ])
        report = validate_schedule(schedule, circuit=circuit)
        assert report.count("dependency") >= 1

    def test_wire_order_respected_ok(self):
        circuit = Circuit(1).s(0).s(0)
        schedule = Schedule([
            op(0, name="s", start=0.0, duration=1.5, gate_index=0),
            op(1, name="s", start=1.5, duration=1.5, gate_index=1),
        ])
        assert validate_schedule(schedule, circuit=circuit).ok

    def test_moving_operand_early_is_legal(self):
        # a successor may move its other operand while the predecessor
        # still executes on the shared qubit's partner
        circuit = Circuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        schedule = Schedule([
            op(0, name="cx", qubits=(0, 1), cells=((5, 5),),
               start=0.0, duration=2.0, gate_index=0),
            # qubit 2 (not shared with gate 0) aligns early: legal
            op(1, kind="move", name="move", qubits=(2,),
               cells=((3, 3), (3, 4)), start=0.0, duration=1.0, gate_index=1),
            op(2, name="cx", qubits=(1, 2), cells=((5, 6),),
               start=2.0, duration=2.0, gate_index=1),
        ])
        assert validate_schedule(schedule, circuit=circuit).ok

    def test_missing_node_flagged_as_coverage(self):
        circuit = Circuit(1).s(0).s(0)
        schedule = Schedule([op(0, name="s", duration=1.5, gate_index=0)])
        report = validate_schedule(schedule, circuit=circuit)
        assert report.count("coverage") == 1

    def test_unknown_gate_index_flagged(self):
        circuit = Circuit(1).s(0)
        schedule = Schedule([
            op(0, name="s", duration=1.5, gate_index=0),
            op(1, name="s", start=2.0, duration=1.5, gate_index=7),
        ])
        report = validate_schedule(schedule, circuit=circuit)
        assert report.count("coverage") >= 1

    def test_float_gate_index_is_a_coverage_violation(self):
        # a cell-less gate op whose index is a float once crashed the
        # footprint check's gate lookup
        schedule = Schedule(ops=[
            op(0, name="s", qubits=(0,), gate_index=0),
            op(1, name="s", qubits=(1,), gate_index=1.0),
        ])
        report = validate_schedule(schedule, circuit=Circuit(2).s(0).s(1))
        assert [(v.code, v.uid, v.gate_index) for v in report.violations] == [
            ("coverage", 1, 1.0),
        ]
        assert "non-integer gate index 1.0" in report.violations[0].message


class TestBarrier:
    def circuit(self):
        circuit = Circuit(2)
        circuit.s(0)
        circuit.barrier()
        circuit.s(1)
        return circuit

    def test_crossing_barrier_flagged(self):
        # gate 1 (on qubit 1) must wait for gate 0 (on qubit 0) to finish
        schedule = Schedule([
            op(0, name="s", qubits=(0,), start=0.0, duration=1.5, gate_index=0),
            op(1, name="s", qubits=(1,), start=0.5, duration=1.5, gate_index=1),
        ])
        report = validate_schedule(schedule, circuit=self.circuit())
        assert report.count("barrier") == 1

    def test_serialised_ok(self):
        schedule = Schedule([
            op(0, name="s", qubits=(0,), start=0.0, duration=1.5, gate_index=0),
            op(1, name="s", qubits=(1,), start=1.5, duration=1.5,
               min_start=1.5, gate_index=1),
        ])
        assert validate_schedule(schedule, circuit=self.circuit()).ok


def consume(uid, factory, start, qubit=0, cell=(0, 1), gate_index=0):
    return op(uid, name="t", qubits=(qubit,), cells=(cell,), start=start,
              duration=2.5, min_start=start, gate_index=gate_index,
              note=f"{MAGIC_NOTE_PREFIX}{factory}")


class TestMagicStates:
    def test_note_parsing(self):
        assert consume(0, 2, 11.0).magic_factory() == 2
        assert op(0).magic_factory() is None
        assert op(0, note="magic-state from fX").magic_factory() is None

    def test_pipeline_bound_ok(self):
        schedule = Schedule([
            consume(0, 0, 11.0),
            consume(1, 0, 22.0, qubit=1, cell=(0, 2), gate_index=1),
        ])
        report = validate_schedule(
            schedule, distill_times={0: 11.0}, expected_t_states=2
        )
        assert report.ok

    def test_premature_consumption_flagged(self):
        schedule = Schedule([consume(0, 0, 5.0)])
        report = validate_schedule(
            schedule, distill_times={0: 11.0}, expected_t_states=1
        )
        assert report.count("magic-pipeline") == 1

    def test_double_consumption_flagged(self):
        # two states cannot both be available after one distillation round
        schedule = Schedule([
            consume(0, 0, 11.0, qubit=0, cell=(0, 1)),
            op(1, name="t", qubits=(1,), cells=((0, 2),), start=12.0,
               duration=2.5, min_start=11.0, gate_index=1,
               note=f"{MAGIC_NOTE_PREFIX}0"),
        ])
        report = validate_schedule(
            schedule, distill_times={0: 11.0}, expected_t_states=2
        )
        assert report.count("magic-pipeline") == 1

    def test_count_mismatch_flagged(self):
        schedule = Schedule([consume(0, 0, 11.0)])
        report = validate_schedule(
            schedule, distill_times={0: 11.0}, expected_t_states=2
        )
        assert report.count("magic-count") == 1

    def test_unknown_factory_flagged(self):
        schedule = Schedule([consume(0, 9, 11.0)])
        report = validate_schedule(
            schedule, distill_times={0: 11.0}, expected_t_states=1
        )
        assert report.count("magic-count") >= 1


class TestReportApi:
    def test_summary_mentions_classes(self):
        report = validate_schedule(Schedule([op(0, start=-1.0)]))
        assert "structure" in report.summary()
        assert not report.ok

    def test_to_dict_round_trips_codes(self):
        report = validate_schedule(Schedule([op(0, start=-1.0)]))
        data = report.to_dict()
        assert data["ok"] is False
        assert data["violations"][0]["code"] == "structure"

    def test_raise_if_invalid(self):
        report = validate_schedule(Schedule([op(0, start=-1.0)]))
        with pytest.raises(ValidationError) as excinfo:
            raise_if_invalid(report)
        assert excinfo.value.report is report

    def test_raise_if_invalid_passes_clean(self):
        report = validate_schedule(Schedule([op(0)]))
        assert raise_if_invalid(report) is report

    def test_validation_error_survives_pickling(self):
        # workers raise this across process-pool boundaries (--jobs N);
        # a bad __reduce__ would kill the pool instead of reporting
        import pickle

        report = validate_schedule(Schedule([op(0, start=-1.0)]))
        error = ValidationError(report)
        restored = pickle.loads(pickle.dumps(error))
        assert isinstance(restored, ValidationError)
        assert restored.report.count("structure") == 1
        assert str(restored) == str(error)


class TestCompiledSchedules:
    """End-to-end: real compiled schedules validate clean."""

    @pytest.mark.parametrize("name,r,f", [
        ("ising_2d_2x2", 3, 1),
        ("heisenberg_2d_2x2", 3, 2),
        ("fermi_hubbard_2d_2x2", 4, 1),
    ])
    def test_compile_validates_clean(self, name, r, f):
        circuit = load_benchmark(name)
        config = CompilerConfig(routing_paths=r, num_factories=f)
        result = FaultTolerantCompiler(config).compile(circuit, validate=True)
        report = validate_result(result, circuit, config)
        assert report.ok, report.summary()
        # the magic-state audit actually ran
        assert report.checks["magic-state"] == result.t_states > 0

    def test_barrier_circuit_validates_clean(self):
        circuit = Circuit(4, name="barriered")
        circuit.h(0).cx(0, 1).t(1)
        circuit.barrier()
        circuit.cx(2, 3).t(3).h(2)
        config = CompilerConfig(routing_paths=3)
        result = FaultTolerantCompiler(config).compile(circuit, validate=True)
        assert validate_result(result, circuit, config).ok

    def test_env_var_forces_validation(self, monkeypatch):
        # REPRO_VALIDATE turns every compile into a debug assertion
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        circuit = load_benchmark("ising_2d_2x2")
        config = CompilerConfig(routing_paths=3)
        result = FaultTolerantCompiler(config).compile(circuit)
        assert result.schedule.makespan > 0

    def test_schedule_validate_method_delegates(self):
        circuit = load_benchmark("ising_2d_2x2")
        result = FaultTolerantCompiler(CompilerConfig()).compile(circuit)
        result.schedule.validate()  # must not raise


class TestPortDropRegression:
    """The bug the validator surfaced: a magic-state consume whose drop
    cell is the factory port itself did not synchronise on the port's
    cell lock, overlapping route hops of other states (raw schedules
    only — resimulation silently re-serialised the conflict)."""

    def test_raw_schedule_has_no_cell_conflicts(self):
        circuit = load_benchmark("fermi_hubbard_2d_4x4")
        config = CompilerConfig(routing_paths=2, num_factories=2)
        layout = build_layout(circuit.num_qubits, 2)
        placement = choose_mapping(circuit, layout, config.mapping)
        ports = assign_factory_ports(layout, 2)
        scheduler = LatticeSurgeryScheduler(
            grid=layout.grid,
            instruction_set=config.instruction_set,
            factory_ports=ports,
            factory_config=config.factory_config(),
            synthesis=config.synthesis,
            lookahead=config.lookahead,
        )
        raw = scheduler.run(circuit, placement)
        report = validate_schedule(raw, circuit=circuit)
        assert report.count("cell-conflict") == 0, report.summary()

    def test_consume_ops_are_factory_tagged(self):
        circuit = load_benchmark("ising_2d_2x2")
        config = CompilerConfig(routing_paths=3, num_factories=2)
        result = FaultTolerantCompiler(config).compile(circuit)
        tagged = [
            o for o in result.schedule.ops
            if o.kind == "gate" and o.magic_factory() is not None
        ]
        assert len(tagged) == result.t_states
        assert all(0 <= o.magic_factory() < 2 for o in tagged)
