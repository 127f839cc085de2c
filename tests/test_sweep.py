"""Sweep engine tests: job identity, dedupe planning, the persistent cache,
process fan-out, and parallel == serial equivalence."""

import json
import random

import pytest

from repro.compiler.config import CompilerConfig
from repro.experiments import ALL_EXPERIMENTS, EXPERIMENT_JOBS, collect_jobs, fig9
from repro.ir.circuit import Circuit
from repro.sweep import (
    CompileCache,
    CompileJob,
    SweepEngine,
    circuit_fingerprint,
    config_fingerprint,
    job_key,
    plan_jobs,
    use_engine,
)
from repro.workloads import ising_2d, load_benchmark


def small_circuit(name="c"):
    qc = Circuit(3, name=name)
    return qc.h(0).cx(0, 1).t(1).cx(1, 2)


class TestJobIdentity:
    def test_rebuilt_circuit_same_key(self):
        cfg = CompilerConfig(routing_paths=3)
        assert job_key(small_circuit(), cfg) == job_key(small_circuit(), cfg)
        assert job_key(ising_2d(2), cfg) == job_key(ising_2d(2), cfg)

    def test_gate_change_changes_key(self):
        cfg = CompilerConfig(routing_paths=3)
        assert job_key(small_circuit(), cfg) != job_key(
            small_circuit().t(2), cfg
        )

    def test_param_change_changes_fingerprint(self):
        a = Circuit(1).rz(0.5, 0)
        b = Circuit(1).rz(0.5000001, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_name_flows_into_identity(self):
        # circuit.name appears in result tables, so renames must miss.
        cfg = CompilerConfig(routing_paths=3)
        assert job_key(small_circuit("a"), cfg) != job_key(small_circuit("b"), cfg)

    def test_config_knobs_change_key(self):
        base = CompilerConfig(routing_paths=3)
        for variant in (
            base.with_(routing_paths=4),
            base.with_(num_factories=2),
            base.with_(lookahead=False),
            base.with_(compute_unit_cost_time=True),
            base.with_(instruction_set=base.instruction_set.with_distill_time(5.0)),
        ):
            assert config_fingerprint(variant) != config_fingerprint(base)
            assert job_key(small_circuit(), variant) != job_key(small_circuit(), base)

    def test_golden_job_keys(self, monkeypatch):
        """Pinned keys: every cache tier, service request and gateway job id
        is addressed by these digests, so a change to the key derivation or
        to the config's fields must show up here.  The source-tree revision
        is pinned: it moves with every edit by design.  The digests below
        are for ``CACHE_SCHEMA == 3``, which is hashed into every key."""
        from repro.sweep import jobs

        monkeypatch.setattr(jobs, "compiler_revision", lambda: "0" * 64)
        assert jobs.CACHE_SCHEMA == 3
        demo = Circuit(2, name="demo").h(0).cx(0, 1).t(1)
        assert job_key(demo, CompilerConfig()) == (
            "aaa996d0339acefa6a460554f7b6028090001ef852c75c5fb200d3f21df7f613"
        )
        assert job_key(
            load_benchmark("ising_2d_10x10"),
            CompilerConfig(routing_paths=4, num_factories=2),
        ) == "fb8a56b50cd586eb067953e4c02e85394a600eafcbb841016d5d5b21d58267fe"


class TestPlanner:
    def test_dedupes_preserving_first_seen_order(self):
        cfg3, cfg4 = CompilerConfig(routing_paths=3), CompilerConfig(routing_paths=4)
        c = small_circuit()
        plan = plan_jobs(
            [CompileJob(c, cfg4), CompileJob(c, cfg3), CompileJob(small_circuit(), cfg4)]
        )
        assert plan.requested == 3
        assert len(plan.unique) == 2
        assert plan.duplicates == 1
        assert plan.unique[0].config.routing_paths == 4

    def test_fuzz_against_naive_per_figure_counts(self):
        # Random overlapping "figures": dedupe must compile exactly the
        # number of distinct (circuit, config) points, never more.
        rng = random.Random(7)
        circuits = [small_circuit(f"m{i}") for i in range(3)]
        for _ in range(25):
            figures = []
            for _f in range(rng.randint(1, 5)):
                figures.append(
                    [
                        CompileJob(
                            circuits[rng.randrange(3)],
                            CompilerConfig(
                                routing_paths=rng.choice([2, 3, 4]),
                                num_factories=rng.choice([1, 2]),
                            ),
                        )
                        for _ in range(rng.randint(1, 8))
                    ]
                )
            flat = [job for fig in figures for job in fig]
            naive = sum(len(fig) for fig in figures)
            plan = plan_jobs(flat)
            assert plan.requested == naive
            assert len(plan.unique) == len({job.key for job in flat})
            assert len(plan.unique) + plan.duplicates == naive

    def test_cross_figure_overlap_is_deduped(self):
        jobs = collect_jobs(["fig9", "fig11", "fig12"], fast=True)
        plan = plan_jobs(jobs)
        assert plan.duplicates > 0  # the figures share sweep points
        assert len(plan.unique) < len(jobs)


class TestCompileCache:
    def test_store_load_roundtrip(self, tmp_path):
        from repro.compiler.pipeline import compile_circuit

        cache = CompileCache(tmp_path)
        result = compile_circuit(ising_2d(2), routing_paths=3)
        key = job_key(ising_2d(2), CompilerConfig(routing_paths=3))
        cache.store(key, result)
        assert cache.contains(key)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.schedule.ops == result.schedule.ops
        assert loaded.execution_time == result.execution_time
        assert loaded.summary() == result.summary()
        assert cache.hits == 1 and cache.stores == 1

    def test_missing_and_corrupt_entries_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.load("0" * 64) is None
        path = cache._path("1" * 64)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load("1" * 64) is None
        assert cache.misses == 2


class TestSweepEngine:
    def test_counters_memo_then_disk(self, tmp_path):
        c, cfg = ising_2d(2), CompilerConfig(routing_paths=3)
        engine = SweepEngine(cache=CompileCache(tmp_path))
        engine.compile(c, cfg)
        engine.compile(c, cfg)
        assert engine.counters.as_dict() == {
            "memo_hits": 1, "disk_hits": 0, "remote_hits": 0, "compiled": 1,
        }
        # a fresh engine over the same cache dir performs zero compilations
        warm = SweepEngine(cache=CompileCache(tmp_path))
        warm.compile(c, cfg)
        assert warm.counters.as_dict() == {
            "memo_hits": 0, "disk_hits": 1, "remote_hits": 0, "compiled": 0,
        }

    def test_use_cache_false_bypasses_memo(self):
        engine = SweepEngine()
        c, cfg = ising_2d(2), CompilerConfig(routing_paths=3)
        engine.compile(c, cfg, use_cache=False)
        engine.compile(c, cfg, use_cache=False)
        assert engine.counters.compiled == 2
        assert engine.counters.memo_hits == 0

    def test_parallel_prefetch_matches_serial_results(self, tmp_path):
        jobs = fig9.jobs(fast=True, models=["ising"])
        serial = SweepEngine(jobs=1)
        serial.prefetch(jobs)
        parallel = SweepEngine(jobs=2, cache=CompileCache(tmp_path))
        parallel.prefetch(jobs)
        assert parallel.counters.compiled == serial.counters.compiled
        for job in plan_jobs(jobs).unique:
            a = serial.compile(job.circuit, job.config)
            b = parallel.compile(job.circuit, job.config)
            assert a.schedule.ops == b.schedule.ops
            assert a.execution_time == b.execution_time
            assert a.stats == b.stats


class TestParallelSerialEquivalence:
    def test_fig9_fast_identical_tables(self, tmp_path):
        serial = fig9.run(fast=True, models=["ising"])
        engine = SweepEngine(jobs=2, cache=CompileCache(tmp_path))
        with use_engine(engine):
            engine.prefetch(fig9.jobs(fast=True, models=["ising"]))
            parallel = fig9.run(fast=True, models=["ising"])
        assert parallel.columns == serial.columns
        assert parallel.rows == serial.rows
        assert parallel.to_text() == serial.to_text()
        # and a warm re-run resolves every point without compiling
        warm = SweepEngine(jobs=2, cache=CompileCache(tmp_path))
        with use_engine(warm):
            rerun = fig9.run(fast=True, models=["ising"])
        assert rerun.rows == serial.rows
        assert warm.counters.compiled == 0

    @pytest.mark.parametrize("name", ["fig12", "fig14d"])
    def test_declared_jobs_cover_run_exactly(self, name):
        # after prefetching the declared grid, run() must not compile.
        engine = SweepEngine()
        with use_engine(engine):
            engine.prefetch(EXPERIMENT_JOBS[name](True))
            prefetched = engine.counters.compiled
            ALL_EXPERIMENTS[name](True)
        assert engine.counters.compiled == prefetched


class TestResultSerialization:
    def test_compilation_result_roundtrip_is_stable(self):
        from repro.compiler.pipeline import compile_circuit
        from repro.compiler.result import CompilationResult

        result = compile_circuit(
            ising_2d(2),
            routing_paths=3,
            num_factories=2,
            compute_unit_cost_time=True,
        )
        blob = json.dumps(result.to_dict(), sort_keys=True)
        back = CompilationResult.from_dict(json.loads(blob))
        assert back.schedule.ops == result.schedule.ops
        assert back.schedule.makespan == result.schedule.makespan
        assert back.unit_cost_time == result.unit_cost_time
        assert back.total_qubits == result.total_qubits
        assert back.profile == result.profile
        assert back.elimination == result.elimination
        assert back.stats == result.stats
        assert back.summary() == result.summary()
        # byte-stable: serializing the deserialized result is a fixpoint
        assert json.dumps(back.to_dict(), sort_keys=True) == blob

    def test_schedule_roundtrip(self):
        from repro.compiler.pipeline import compile_circuit
        from repro.scheduling.events import Schedule

        schedule = compile_circuit(ising_2d(2), routing_paths=3).schedule
        back = Schedule.from_dict(schedule.to_dict())
        assert back.ops == schedule.ops
        assert back.makespan == schedule.makespan


class TestCompilerRevision:
    def test_revision_is_stable_and_feeds_the_key(self):
        from repro.sweep import compiler_revision

        rev = compiler_revision()
        assert len(rev) == 64 and rev == compiler_revision()
        # the key derives from (schema, version, revision, circuit, config):
        # identical inputs in one process must agree
        cfg = CompilerConfig(routing_paths=3)
        assert job_key(small_circuit(), cfg) == job_key(small_circuit(), cfg)
