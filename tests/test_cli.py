"""CLI tests (invoked in-process via cli.main)."""

import pytest

from repro.cli import main
from repro.ir import qasm
from repro.workloads import ising_2d


class TestList:
    def test_lists_benchmarks_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ising_2d_10x10" in out
        assert "fig9" in out


class TestCompile:
    def test_compile_qasm_file(self, tmp_path, capsys):
        path = str(tmp_path / "prog.qasm")
        qasm.dump_file(ising_2d(2), path)
        assert main(["compile", path, "-r", "4"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out

    def test_compile_with_optimize(self, tmp_path, capsys):
        path = str(tmp_path / "prog.qasm")
        qasm.dump_file(ising_2d(2), path)
        assert main(["compile", path, "--optimize"]) == 0
        assert "optimised" in capsys.readouterr().out


class TestBenchmark:
    def test_named_benchmark_sweep(self, capsys):
        assert main(["benchmark", "ising_2d_2x2", "-r", "3", "-r", "4"]) == 0
        out = capsys.readouterr().out
        assert "x_bound" in out

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["benchmark", "nope"])


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--fast"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_parallel_cached_run_then_warm_rerun(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["experiment", "fig12", "--fast", "--jobs", "2",
                "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Figure 12" in cold
        # warm rerun: every point resolves from disk, zero compilations
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert " 0 compiled" in warm.rsplit("[sweep]", 1)[1]
        rows = lambda out: [l for l in out.splitlines() if "ours-r" in l]
        assert rows(warm) == rows(cold)
        assert rows(cold)  # the table actually has sweep rows

    def test_no_cache_flag(self, capsys):
        assert main(["experiment", "table1", "--fast", "--no-cache"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestBenchCommand:
    def test_jobs_flag_keeps_fingerprints(self, tmp_path, capsys):
        out_path = str(tmp_path / "base.json")
        assert main(["bench", "--fast", "--workload", "ising_2d_2x2",
                     "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["bench", "--fast", "--workload", "ising_2d_2x2",
                     "--jobs", "2", "-o", "-", "--baseline", out_path]) == 0
        assert "behaviour: identical to baseline" in capsys.readouterr().out

    def test_baseline_drift_fails(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "base.json"
        assert main(["bench", "--fast", "--workload", "ising_2d_2x2",
                     "-o", str(out_path)]) == 0
        baseline = json.loads(out_path.read_text())
        for rows in baseline["cases"].values():
            rows["default"]["makespan"] += 1.0
        out_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        assert main(["bench", "--fast", "--workload", "ising_2d_2x2",
                     "-o", "-", "--baseline", str(out_path)]) == 1
        assert "DRIFT" in capsys.readouterr().out


class TestValidateFlags:
    def test_compile_validate(self, tmp_path, capsys):
        path = str(tmp_path / "prog.qasm")
        qasm.dump_file(ising_2d(2), path)
        assert main(["compile", path, "--validate"]) == 0
        assert "replay-validated" in capsys.readouterr().out

    def test_experiment_validate_cold_and_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["experiment", "fig12", "--fast", "--cache-dir", cache,
                "--validate"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[verify]" in cold and "0 violations" in cold
        # warm rerun validates the disk-cached schedules too
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert " 0 compiled" in warm.rsplit("[sweep]", 1)[1]
        assert "[verify]" in warm and "0 violations" in warm

    def test_bench_validate(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bench.json"
        assert main(["bench", "--fast", "--workload", "ising_2d_2x2",
                     "--validate", "-o", str(out_path)]) == 0
        assert "replay-validated" in capsys.readouterr().out
        # validating never changes a row, so the report does not record it
        assert "validated" not in json.loads(out_path.read_text())["meta"]


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
