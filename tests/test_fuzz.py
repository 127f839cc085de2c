"""Tests for the fuzzing subsystem (repro.fuzz).

Covers: determinism of the RNG and the scenario stream, validity by
construction, the oracle bundle (green on good compiles, red on seeded
defects), the shrinker (reduces and preserves the failing oracle), the
artifact round trip, both runner modes, and the CLI entry points.
"""

import json
import math

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.fuzz import (
    KINDS,
    FuzzRng,
    OracleFailure,
    Scenario,
    check_scenario,
    compare_results,
    generate_scenario,
    load_artifact,
    replay_artifact,
    run_fuzz,
    run_mutation_fuzz,
    scenario_rng,
    shrink,
    static_oracles,
    write_artifact,
)
from repro.fuzz.generators import (
    config_from_dict,
    config_to_dict,
    feasible_routing_paths,
    sample_config,
)
from repro.ir.circuit import Circuit
from repro.verify import MUTATIONS
from repro.cli import main as cli_main

SEED = 0
SPAN = 30  # scenarios exercised by the cheaper tests


@pytest.fixture(scope="module")
def stream():
    return [generate_scenario(SEED, i) for i in range(SPAN)]


# -- rng -----------------------------------------------------------------------


class TestFuzzRng:
    def test_same_seed_same_stream(self):
        a, b = FuzzRng(123), FuzzRng(123)
        assert [a.next_u64() for _ in range(50)] == [
            b.next_u64() for _ in range(50)
        ]

    def test_known_value_pinned(self):
        # splitmix64 of seed 0 — pins the stream across refactors, since
        # corpus keys and CI verdicts depend on it
        assert FuzzRng(0).next_u64() == 16294208416658607535

    def test_fork_is_deterministic_and_decorrelated(self):
        assert (
            FuzzRng(7).fork("x").next_u64() == FuzzRng(7).fork("x").next_u64()
        )
        assert (
            FuzzRng(7).fork("x").next_u64() != FuzzRng(7).fork("y").next_u64()
        )

    def test_randint_bounds(self):
        rng = FuzzRng(42)
        draws = [rng.randint(3, 9) for _ in range(200)]
        assert min(draws) >= 3 and max(draws) <= 9
        assert set(draws) == set(range(3, 10))  # all values reachable

    def test_weighted_choice_respects_zero_weight(self):
        rng = FuzzRng(1)
        picks = {rng.weighted_choice(("a", "b"), (1, 0)) for _ in range(50)}
        assert picks == {"a"}


# -- generators ----------------------------------------------------------------


class TestGenerators:
    def test_stream_is_deterministic(self, stream):
        again = [generate_scenario(SEED, i) for i in range(SPAN)]
        assert [s.key for s in stream] == [s.key for s in again]

    def test_stream_is_prefix_stable(self, stream):
        # the 10th scenario of a 30-run equals the 10th of any longer run
        assert generate_scenario(SEED, 10).key == stream[10].key

    def test_kind_mix(self):
        kinds = {generate_scenario(SEED, i).kind for i in range(120)}
        assert kinds == set(KINDS)

    def test_scenarios_valid_by_construction(self, stream):
        for scenario in stream:
            assert scenario.circuit.num_qubits >= 2
            scenario.config.factory_config()  # resolves without error

    def test_serialization_round_trip(self, stream):
        for scenario in stream:
            rebuilt = Scenario.from_dict(scenario.to_dict())
            assert rebuilt.key == scenario.key
            assert list(rebuilt.circuit.gates) == list(scenario.circuit.gates)
            assert rebuilt.config == scenario.config

    def test_config_dict_round_trip_custom_distill(self):
        rng = scenario_rng(3, 1)
        for _ in range(20):
            config = sample_config(rng, 6)
            rebuilt = config_from_dict(config_to_dict(config))
            assert rebuilt == config

    def test_feasible_routing_paths_always_buildable(self):
        from repro.arch.layout import build_layout

        for num_qubits in (2, 3, 5, 7, 11, 12):
            for requested in (2, 4, 7, 10):
                r = feasible_routing_paths(num_qubits, requested)
                assert r <= max(requested, 2)
                build_layout(num_qubits, r)  # must not raise


# -- oracles -------------------------------------------------------------------


def _compiled(scenario):
    return FaultTolerantCompiler(scenario.config).compile(scenario.circuit)


class TestOracles:
    def test_green_on_good_scenarios(self, stream):
        for scenario in stream[:10]:
            result, failures = check_scenario(scenario)
            assert result is not None
            assert failures == [], [str(f) for f in failures]

    def test_compile_crash_is_captured_not_raised(self):
        class Boom(Circuit):
            def __iter__(self):
                raise RuntimeError("seeded crash")

        scenario = generate_scenario(SEED, 0)
        broken = Scenario(
            kind="crash",
            seed=0,
            index=-1,
            circuit=Boom(2, name="boom"),
            config=scenario.config,
        )
        result, failures = check_scenario(broken)
        assert result is None
        assert [f.oracle for f in failures] == ["compile-crash"]
        assert "seeded crash" in failures[0].message

    def test_lower_bound_oracle_fires_on_corrupt_result(self, stream):
        scenario = next(s for s in stream if s.circuit.t_count() > 0)
        result = _compiled(scenario)
        result.lower_bound = result.execution_time + 100.0
        oracles = {f.oracle for f in static_oracles(scenario, result)}
        assert "lower-bound" in oracles

    def test_metrics_oracle_fires_on_corrupt_result(self, stream):
        scenario = stream[0]
        result = _compiled(scenario)
        result.t_states += 1
        oracles = {f.oracle for f in static_oracles(scenario, result)}
        assert "metrics-consistency" in oracles

    def test_replay_validation_oracle_fires_on_corrupt_schedule(self, stream):
        from dataclasses import replace as dreplace

        scenario = next(
            s
            for s in stream
            if any(op.min_start > 0 for op in _compiled(s).schedule.ops)
        )
        result = _compiled(scenario)
        ops = list(result.schedule.ops)
        victim = next(i for i, op in enumerate(ops) if op.min_start > 0)
        ops[victim] = dreplace(ops[victim], start=ops[victim].min_start / 2)
        result.schedule.ops = ops
        oracles = {f.oracle for f in static_oracles(scenario, result)}
        assert "replay-validation" in oracles

    def test_serialization_oracle_fires_on_a_lossy_codec(
        self, stream, monkeypatch
    ):
        from repro.compiler import codec

        scenario = stream[0]
        result = _compiled(scenario)
        assert static_oracles(scenario, result) == []
        decode = codec.decode

        def lossy(blob):
            rebuilt = decode(blob)
            rebuilt.schedule.ops[0] = rebuilt.schedule.ops[0].shifted(1e-9)
            return rebuilt

        monkeypatch.setattr(codec, "decode", lossy)
        oracles = {f.oracle for f in static_oracles(scenario, result)}
        assert oracles == {"serialization-roundtrip"}

    def test_serialization_oracle_fires_when_decode_builds_the_ops(
        self, stream, monkeypatch
    ):
        from repro.compiler import codec

        scenario = stream[0]
        result = _compiled(scenario)
        decode = codec.decode

        def eager(blob):
            rebuilt = decode(blob)
            rebuilt.schedule.ops
            return rebuilt

        monkeypatch.setattr(codec, "decode", eager)
        oracles = {f.oracle for f in static_oracles(scenario, result)}
        assert oracles == {"serialization-roundtrip"}

    def test_serialization_oracle_fires_on_a_wrong_column_summary(
        self, stream, monkeypatch
    ):
        from repro.scheduling.events import TableColumn

        scenario = stream[0]
        result = _compiled(scenario)
        count_in = TableColumn.count_in
        monkeypatch.setattr(
            TableColumn, "count_in", lambda self, values: count_in(self, values) + 1
        )
        failures = static_oracles(scenario, result)
        assert {f.oracle for f in failures} == {"serialization-roundtrip"}
        assert "before and after" in failures[0].message

    def test_determinism_oracle_fires_on_fingerprint_drift(self, stream):
        scenario = stream[0]
        a, b = _compiled(scenario), _compiled(scenario)
        assert compare_results(a, b, label="identical") == []
        b.schedule.ops = list(b.schedule.ops)[:-1]
        failures = compare_results(a, b, label="dropped-op")
        assert [f.oracle for f in failures] == ["determinism"]

    def test_baseline_ceiling_has_headroom(self, stream):
        from repro.baselines.serial import pessimistic_serial_time

        for scenario in stream[:10]:
            result = _compiled(scenario)
            ceiling = pessimistic_serial_time(
                scenario.circuit, scenario.config, result.layout
            )
            assert result.execution_time <= ceiling + 1e-6


# -- shrinker ------------------------------------------------------------------


def _seeded_crash_scenario():
    """A scenario that deterministically fails the compile-crash oracle.

    ``routing_paths=9`` exceeds the 2k+2 limit of a 3-qubit (2x2 block)
    register, so ``build_layout`` raises inside every compile — stable
    under gate deletion, which is exactly what a shrinker test needs.
    """
    from repro.workloads.random_programs import random_mixed_stream

    return Scenario(
        kind="seeded-crash",
        seed=0,
        index=-1,
        circuit=random_mixed_stream(3, 30, seed=5),
        config=CompilerConfig(routing_paths=9),
    )


class TestShrinker:
    def test_requires_a_failure_to_anchor_on(self):
        with pytest.raises(ValueError):
            shrink(generate_scenario(SEED, 0), [])

    def test_reduces_while_preserving_the_oracle(self):
        scenario = _seeded_crash_scenario()
        result, failures = check_scenario(scenario)
        assert result is None
        assert failures[0].oracle == "compile-crash"
        outcome = shrink(scenario, failures)
        assert outcome.reduced
        assert outcome.oracle == "compile-crash"
        assert len(outcome.scenario.circuit) < len(scenario.circuit)
        # the minimized scenario still reproduces
        _, still_failing = check_scenario(outcome.scenario)
        assert any(f.oracle == "compile-crash" for f in still_failing)

    def test_rejects_reductions_that_change_the_oracle(self):
        # config simplification would make the seeded scenario compile
        # (r=2..4 are feasible), which no longer breaches compile-crash —
        # the shrinker must keep the breaching routing_paths value
        scenario = _seeded_crash_scenario()
        _, failures = check_scenario(scenario)
        outcome = shrink(scenario, failures)
        assert outcome.scenario.config.routing_paths == 9

    def test_deterministic(self):
        scenario = _seeded_crash_scenario()
        _, failures = check_scenario(scenario)
        a = shrink(scenario, failures)
        b = shrink(scenario, failures)
        assert a.scenario.key == b.scenario.key


# -- artifacts -----------------------------------------------------------------


class TestArtifacts:
    def test_write_load_replay_round_trip(self, tmp_path, stream):
        scenario = stream[1]
        failure = OracleFailure("determinism", "seeded for the test")
        path = write_artifact(tmp_path, scenario, [failure], original=stream[2])
        loaded, payload = load_artifact(path)
        assert loaded.key == scenario.key
        assert payload["failures"][0]["oracle"] == "determinism"
        assert payload["original"]["key"] == stream[2].key
        # the underlying scenario is green, so replay reports no failures
        assert replay_artifact(path) == []

    def test_artifact_version_gate(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"artifact_version": 99, "scenario": {}}))
        with pytest.raises(ValueError):
            load_artifact(bad)

    def test_filename_is_content_addressed(self, tmp_path, stream):
        scenario = stream[3]
        failure = OracleFailure("determinism", "x")
        first = write_artifact(tmp_path, scenario, [failure])
        second = write_artifact(tmp_path, scenario, [failure])
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1


# -- runner --------------------------------------------------------------------


class TestRunner:
    def test_small_campaign_is_green_and_deterministic(self):
        a = run_fuzz(seed=SEED, iterations=25, jobs=1, minimize=False)
        b = run_fuzz(seed=SEED, iterations=25, jobs=1, minimize=False)
        assert a.ok, a.summary()
        assert a.verdict_lines() == b.verdict_lines()

    def test_campaign_jobs_parity(self):
        serial = run_fuzz(seed=SEED, iterations=15, jobs=1, minimize=False)
        parallel = run_fuzz(seed=SEED, iterations=15, jobs=2, minimize=False)
        assert serial.verdict_lines() == parallel.verdict_lines()

    def test_report_shapes(self):
        report = run_fuzz(seed=SEED, iterations=5, jobs=1, minimize=False)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert len(payload["verdicts"]) == 5
        assert report.kind_histogram()
        assert "5/5 scenarios passed" in report.summary()

    def test_mutation_mode_rediscovers_every_class(self):
        # satellite requirement: in mutation mode the fuzzer must rediscover
        # all 9 corruption classes of tests/test_verify_mutations.py when
        # injected into fuzz-generated schedules
        report = run_mutation_fuzz(seed=SEED, iterations=40)
        assert report.covered == set(MUTATIONS), report.summary()
        assert not report.uncaught, report.summary()
        assert not report.broken_bases
        assert report.ok
        assert len(MUTATIONS) == 9

    def test_mutation_report_detects_missing_coverage(self):
        report = run_mutation_fuzz(seed=SEED, iterations=1)
        # one scenario cannot cover every class (barriers are rare)
        assert report.missing or report.covered == set(MUTATIONS)


# -- CLI -----------------------------------------------------------------------


class TestFuzzCli:
    def test_fuzz_exit_zero_on_green(self, capsys, tmp_path):
        code = cli_main(
            [
                "fuzz",
                "--seed",
                "0",
                "--iterations",
                "10",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "10/10 scenarios passed" in out

    def test_fuzz_mutate_mode(self, capsys):
        code = cli_main(["fuzz", "--mutate", "--seed", "0", "--iterations", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mutation self-test: OK" in out

    def test_fuzz_replay_green_corpus_case(self, capsys):
        from repro.fuzz.artifact import corpus_paths

        path = corpus_paths()[0]
        code = cli_main(["fuzz", "--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "green" in out


# -- long campaigns (CI fuzz job; excluded from tier-1 by the marker) ----------


@pytest.mark.slow
class TestSlowCampaigns:
    def test_200_iteration_campaign_green(self):
        report = run_fuzz(seed=SEED, iterations=200, jobs=2, minimize=False)
        assert report.ok, report.summary()

    def test_200_iteration_campaign_deterministic(self):
        a = run_fuzz(seed=SEED, iterations=200, jobs=2, minimize=False)
        b = run_fuzz(seed=SEED, iterations=200, jobs=1, minimize=False)
        assert a.verdict_lines() == b.verdict_lines()
