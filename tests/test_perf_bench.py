"""Tests for the ``repro bench`` harness and its one gate."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.perf import QUALITY_RTOL, bench_cases, compare_reports, run_bench
from repro.perf.bench import BenchCase
from repro.strategies import STRATEGY_NAMES

REPO_ROOT = Path(__file__).resolve().parent.parent
KEY = "ising_2d_2x2/r3/f1"


@pytest.fixture(scope="module")
def small():
    """One fast report over a single workload, as a ``BENCH.json`` dict."""
    return run_bench(fast=True, workloads=["ising_2d_2x2"], validate=True).as_dict()


@pytest.fixture(scope="module")
def fast():
    """The whole fast matrix, serial and unvalidated."""
    return run_bench(fast=True)


class TestBenchCases:
    def test_fast_matrix_is_small(self):
        cases = bench_cases(fast=True)
        assert 0 < len(cases) <= 6

    def test_full_matrix_covers_fig9_fig11_models(self):
        workloads = {c.workload for c in bench_cases(fast=False)}
        assert any("ising" in w for w in workloads)
        assert any("heisenberg" in w for w in workloads)
        assert any("fermi_hubbard" in w for w in workloads)

    def test_workload_filter(self):
        cases = bench_cases(fast=True, workloads=["ising_2d_2x2"])
        assert cases and all(c.workload == "ising_2d_2x2" for c in cases)

    def test_case_key_format(self):
        case = BenchCase("ising_2d_2x2", 3, 1)
        assert case.key == "ising_2d_2x2/r3/f1"


class TestRunBench:
    def test_every_strategy_gets_a_row(self, small):
        assert set(small["cases"]) == {KEY}
        assert set(small["cases"][KEY]) == set(STRATEGY_NAMES)
        for row in small["cases"][KEY].values():
            assert row["makespan"] > 0 and row["num_ops"] > 0
            assert set(row["stats"]) >= {"moves_planned", "magic_states"}
            assert row["quality"] >= 1.0 and row["lower_bound"] > 0
            for counter in ("restores", "restore_cycle_breaks", "displacement_aborts"):
                assert counter in row
            # the fingerprint already carries these; no duplicates
            assert "evictions" not in row and "wall_median" not in row

    def test_meta_records_host_and_validation(self, small):
        # nothing that varies by host or by run flag: the report is a
        # pure function of the source
        gone = {"host", "jobs", "phases", "sweep_wall", "validated", "cache", "repeats"}
        assert not gone & set(small["meta"])
        assert set(small) == {"meta", "cases"}

    def test_jobs_leave_rows_identical(self, small):
        parallel = run_bench(fast=True, workloads=["ising_2d_2x2"], jobs=2)
        # unvalidated, on two processes: the same report, meta included
        assert parallel.as_dict() == small

    def test_fast_matrix_matches_the_committed_rows_byte_for_byte(self, fast):
        committed = json.loads((REPO_ROOT / "BENCH.json").read_text())["cases"]
        rows = 0
        for key, per_strategy in fast.cases.items():
            for strategy, row in per_strategy.items():
                want = json.dumps(committed[key][strategy], sort_keys=True)
                assert json.dumps(row, sort_keys=True) == want, f"{key}/{strategy}"
                rows += 1
        assert rows == len(bench_cases(fast=True)) * len(STRATEGY_NAMES)

    def test_report_text_lists_all_rows(self, fast):
        text = fast.to_text()
        for key in fast.cases:
            assert key in text
        assert "balanced" in text

    def test_no_row_or_text_carries_a_timing(self, fast):
        for per_strategy in fast.cases.values():
            for row in per_strategy.values():
                assert not any("wall" in key for key in row)
        assert "wall" not in fast.to_text()


class TestGate:
    def test_identical_reports_pass(self, small):
        lines, errors = compare_reports(small, small)
        assert errors == []
        assert "behaviour: identical to baseline" in lines
        assert "quality: no regressions vs baseline" in lines

    def test_default_fingerprint_drift_fails(self, small):
        baseline = copy.deepcopy(small)
        baseline["cases"][KEY]["default"]["makespan"] += 1.0
        _, errors = compare_reports(baseline, small)
        assert any("DRIFT in makespan" in line for line in errors)

    def test_non_default_fingerprint_change_is_not_drift(self, small):
        baseline = copy.deepcopy(small)
        baseline["cases"][KEY]["balanced"]["num_ops"] += 1
        lines, errors = compare_reports(baseline, small)
        assert errors == []
        assert "behaviour: identical to baseline" in lines

    def test_quality_rise_fails_on_any_row(self, small):
        baseline = copy.deepcopy(small)
        baseline["cases"][KEY]["balanced"]["quality"] -= 0.01
        _, errors = compare_reports(baseline, small)
        assert len(errors) == 1 and f"{KEY}/balanced: quality regressed" in errors[0]

    def test_quality_within_tolerance_passes(self, small):
        baseline = copy.deepcopy(small)
        row = baseline["cases"][KEY]["default"]
        row["quality"] *= 1.0 - QUALITY_RTOL / 10
        assert compare_reports(baseline, small)[1] == []

    def test_quality_improvement_passes(self, small):
        baseline = copy.deepcopy(small)
        baseline["cases"][KEY]["default"]["quality"] += 0.5
        lines, errors = compare_reports(baseline, small)
        assert errors == []
        assert any("quality improved" in line for line in lines)

    def test_rows_missing_from_baseline_never_gate(self, small):
        baseline = copy.deepcopy(small)
        del baseline["cases"][KEY]["balanced"]
        lines, errors = compare_reports(baseline, small)
        assert errors == []
        assert f"{KEY}/balanced: no baseline entry" in lines

    def test_unexercised_baseline_cases_are_listed(self, small):
        baseline = copy.deepcopy(small)
        baseline["cases"]["other/r3/f1"] = baseline["cases"][KEY]
        lines, errors = compare_reports(baseline, small)
        assert errors == []
        assert any("not exercised" in line and "other/r3/f1" in line for line in lines)


class TestGateThatComparesNothing:
    def test_service_shaped_baseline_fails(self, small):
        baseline = {
            "meta": {"jobs": 2},
            "cold": {"cases": {KEY: 0.01}},
            "gateway": {"cases": {KEY: {"makespan": 98.5}}},
        }
        lines, errors = compare_reports(baseline, small)
        assert errors == ["baseline has no cases"]
        assert not any("identical" in line for line in lines)

    def test_flat_pre_strategy_rows_fail(self, small):
        row = small["cases"][KEY]["default"]
        flat = {key: row[key] for key in ("makespan", "num_ops", "num_moves", "stats")}
        lines, errors = compare_reports({"cases": {KEY: flat}}, small)
        assert errors == ["baseline shares no (case, strategy) row with this run"]
        assert not any("identical" in line for line in lines)

    def test_disjoint_workload_fails(self, small):
        baseline = {"cases": {"heisenberg_2d_2x2/r3/f1": small["cases"][KEY]}}
        lines, errors = compare_reports(baseline, small)
        assert errors == ["baseline shares no (case, strategy) row with this run"]
        assert any("not exercised" in line for line in lines)


class TestBaselineWithWalls:
    """A baseline written while the harness still timed rows still gates."""

    @staticmethod
    def _timed(report):
        baseline = copy.deepcopy(report)
        baseline["meta"]["host"] = {"cpu": "x", "cpus": 1000, "python": "3"}
        baseline["total_wall"] = 0.1
        for per_strategy in baseline["cases"].values():
            for row in per_strategy.values():
                row["wall"] = 0.01
        return baseline

    def test_walls_are_ignored_and_print_nothing(self, small):
        lines, errors = compare_reports(self._timed(small), small)
        assert errors == []
        assert "behaviour: identical to baseline" in lines
        assert not any("wall" in line or "x vs baseline" in line for line in lines)

    def test_drift_still_fails(self, small):
        baseline = self._timed(small)
        baseline["cases"][KEY]["default"]["makespan"] += 1.0
        _, errors = compare_reports(baseline, small)
        assert any("DRIFT in makespan" in line for line in errors)


class TestCli:
    def test_bench_cli_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        code = main([
            "bench", "--fast", "--workload", "ising_2d_2x2",
            "--output", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data["cases"][KEY]) == set(STRATEGY_NAMES)
        assert data["meta"]["mode"] == "fast"
        assert "backend" not in data["meta"]

    def test_bench_has_exactly_six_flags(self):
        parser = _build_parser()
        bench = parser._subparsers._group_actions[0].choices["bench"]
        flags = {
            max(action.option_strings, key=len)
            for action in bench._actions
            if action.option_strings and action.dest != "help"
        }
        assert flags == {
            "--fast", "--workload", "--jobs", "--output", "--baseline",
            "--validate",
        }

    @pytest.mark.parametrize(
        "flag", ["--backend pure", "--repeat 2", "--cache-dir x", "--no-cache",
                 "--remote-cache 127.0.0.1:1", "--profile", "--compare a b"],
    )
    def test_removed_flags_are_unknown(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--fast", *flag.split(), "--output", "-"])
        assert exc.value.code == 2
        assert flag.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("harness", ["quality", "cache", "service"])
    def test_removed_subcommands_are_unknown(self, harness, capsys):
        with pytest.raises(SystemExit) as exc:
            main([f"{harness}-bench", "--output", "-"])
        assert exc.value.code == 2

    def test_bench_cli_baseline_comparison(self, tmp_path, capsys):
        out = tmp_path / "BENCH_a.json"
        main(["bench", "--fast", "--workload", "ising_2d_2x2",
              "--output", str(out)])
        capsys.readouterr()
        code = main([
            "bench", "--fast", "--workload", "ising_2d_2x2",
            "--output", "-", "--baseline", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "identical to baseline" in captured
        assert "vs baseline" in captured

    def test_committed_baseline_gates_a_fast_run(self, capsys):
        code = main([
            "bench", "--fast", "--workload", "ising_2d_2x2",
            "--output", "-", "--baseline", str(REPO_ROOT / "BENCH.json"),
        ])
        assert code == 0
        assert "behaviour: identical to baseline" in capsys.readouterr().out

    def test_baseline_sharing_nothing_exits_1(self, tmp_path, capsys):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"cases": {KEY: {"makespan": 98.5}}}))
        code = main(["bench", "--fast", "--workload", "ising_2d_2x2",
                     "--output", "-", "--baseline", str(stale)])
        assert code == 1
        out = capsys.readouterr().out
        assert "error: baseline shares no (case, strategy) row" in out
        assert "identical" not in out


def test_profiler_import_does_not_load_the_harness():
    """The hot modules import the profiler; that must not pull in bench."""
    code = (
        "import sys, repro.perf.profiler; "
        "print('repro.perf.bench' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    ).stdout
    assert out.strip() == "False"
