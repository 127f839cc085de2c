"""Tests for the ``repro bench`` performance harness."""

import json

import pytest

from repro.cli import main
from repro.perf import bench_cases, compare_reports, run_bench
from repro.perf.bench import BenchCase


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
    def test_fast_run_produces_fingerprint(self):
        report = run_bench(fast=True, workloads=["ising_2d_2x2"])
        assert report.total_wall > 0
        row = report.cases["ising_2d_2x2/r3/f1"]
        assert row["makespan"] > 0
        assert row["num_ops"] > 0
        assert set(row["stats"]) >= {"moves_planned", "magic_states"}

    def test_deterministic_fingerprint_across_repeats(self):
        one = run_bench(fast=True, workloads=["heisenberg_2d_2x2"])
        two = run_bench(fast=True, workloads=["heisenberg_2d_2x2"], repeat=2)
        key = "heisenberg_2d_2x2/r3/f1"
        for field in ("makespan", "num_ops", "num_moves", "stats"):
            assert one.cases[key][field] == two.cases[key][field]

    def test_report_text_lists_all_cases(self):
        report = run_bench(fast=True)
        text = report.to_text()
        for key in report.cases:
            assert key in text
        assert "total wall time" in text


class TestCompare:
    def test_identical_reports_show_no_drift(self):
        report = run_bench(fast=True, workloads=["ising_2d_2x2"])
        lines = compare_reports(report.as_dict(), report)
        assert any("identical" in line for line in lines)

    def test_behaviour_drift_is_flagged(self):
        report = run_bench(fast=True, workloads=["ising_2d_2x2"])
        baseline = json.loads(json.dumps(report.as_dict()))
        key = next(iter(baseline["cases"]))
        baseline["cases"][key]["makespan"] += 1.0
        lines = compare_reports(baseline, report)
        assert any("DRIFT" in line for line in lines)


class TestCli:
    def test_bench_cli_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        code = main([
            "bench", "--fast", "--workload", "ising_2d_2x2",
            "--output", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["cases"]
        assert data["meta"]["mode"] == "fast"
        assert "backend" not in data["meta"]

    def test_bench_cli_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--fast", "--backend", "pure", "--output", "-"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

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
