"""Tests for the seeded chaos harness (repro.faultinject).

A small campaign runs for real in tier-1 (the scenarios are tiny 2x2
compiles, seconds overall); determinism of the scenario stream and the
planner's shapes are checked without a server.
"""

import json
from pathlib import Path

import pytest

from repro.faultinject import (
    CHAOS_MODES,
    ScriptedWorkerFaults,
    plan_scenario,
    run_chaos,
)
from repro.faultinject.harness import ChaosReport, _bench_phase
from repro.faultinject.plan import CHAOS_WORKLOADS
from repro.sweep.supervisor import FAULT_HANG, FAULT_KILL

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH.json"


class TestPlanner:
    def test_scenarios_are_seed_deterministic(self):
        first = [plan_scenario(3, i) for i in range(40)]
        second = [plan_scenario(3, i) for i in range(40)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [plan_scenario(0, i).mode for i in range(40)]
        b = [plan_scenario(1, i).mode for i in range(40)]
        assert a != b

    def test_scenarios_are_prefix_stable(self):
        # scenario i does not depend on how many scenarios the campaign has
        assert plan_scenario(0, 7) == plan_scenario(0, 7)
        assert plan_scenario(0, 0).index == 0

    def test_every_mode_appears(self):
        modes = {plan_scenario(0, i).mode for i in range(300)}
        assert modes == {name for name, _ in CHAOS_MODES}

    def test_scenario_shapes(self):
        for i in range(100):
            scenario = plan_scenario(5, i)
            assert scenario.workload in CHAOS_WORKLOADS
            assert 3 <= scenario.config["routing_paths"] <= 6
            assert 1 <= scenario.config["num_factories"] <= 2
            if scenario.mode == "worker-kill":
                assert scenario.worker_script[0] == (FAULT_KILL,)
            elif scenario.mode == "worker-hang":
                assert scenario.worker_script[0][0] == FAULT_HANG
            elif scenario.mode == "disk-write-error":
                assert scenario.fail_writes >= 1
            elif scenario.mode == "disk-read-error":
                assert scenario.fail_reads >= 1
            elif scenario.mode == "truncate-entry":
                assert scenario.truncate_writes == 1
            elif scenario.mode == "peer-reset":
                assert scenario.peer_resets >= 1
            elif scenario.mode == "peer-torn":
                assert scenario.peer_corrupts == 1
            else:
                assert scenario.mode in (
                    "clean",
                    "conn-reset",
                    "abandon",
                    "gateway-disconnect",
                    "shard-down",
                )


class TestWorkerFaultScript:
    def test_script_fires_by_dispatch_index(self):
        hook = ScriptedWorkerFaults()
        hook.arm({1: (FAULT_KILL,)})
        assert hook(10, 1) is None  # dispatch 0: clean
        assert hook(10, 2) == (FAULT_KILL,)  # dispatch 1: scripted
        assert hook(10, 3) is None  # script entry consumed
        assert hook.fired == 1

    def test_disarm_clears_pending_faults(self):
        hook = ScriptedWorkerFaults()
        hook.arm({0: (FAULT_KILL,)})
        hook.disarm()
        assert hook(0, 1) is None
        assert hook.fired == 0

    def test_rearm_resets_dispatch_counter(self):
        hook = ScriptedWorkerFaults()
        hook.arm({0: (FAULT_KILL,)})
        assert hook(0, 1) == (FAULT_KILL,)
        hook.arm({0: (FAULT_HANG, 1.0)})
        assert hook(1, 1) == (FAULT_HANG, 1.0)


class TestCampaign:
    def test_small_campaign_holds_invariants(self, tmp_path):
        report = run_chaos(
            seed=0,
            scenarios=25,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            bench_baseline=str(BENCH_JSON),
        )
        assert report.violations == []
        assert report.bench_mismatches == []
        assert report.bench_checked == 4
        assert report.ok
        # the campaign exercised real faults, not just clean requests
        assert report.faults_fired["worker"] >= 1
        assert sum(report.outcomes.values()) >= 25
        assert report.server_stats is not None
        assert report.server_stats["pool"]["restarts"] >= 1
        # summary renders and carries the verdict
        assert "all invariants held" in report.summary()

    def test_gateway_episodes_hold_invariants(self, tmp_path):
        # seed 3's prefix fires gateway-disconnect at #0 and shard-down
        # at #4, so a short campaign exercises both gateway modes
        report = run_chaos(
            seed=3,
            scenarios=8,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            bench_baseline=None,
        )
        assert report.violations == []
        assert report.ok
        assert report.outcomes.get("gateway-disconnect", 0) >= 1
        assert report.outcomes.get("shard-down", 0) >= 1
        # every gateway episode resolved to a served, parity-checked job
        assert report.outcomes.get("gateway-ok", 0) >= 2

    def test_missing_baseline_fails_the_campaign(self, tmp_path):
        missing = tmp_path / "missing.json"
        report = run_chaos(
            seed=0,
            scenarios=1,
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            bench_baseline=str(missing),
        )
        assert report.violations == []
        assert report.bench_checked == 0
        assert report.bench_mismatches == [f"missing baseline {missing}"]
        assert not report.ok
        assert "verdict: FAILED" in report.summary()


class TestBenchPhaseBaselines:
    """Baselines the post-chaos check cannot use fail before any request
    is sent, so no server is needed to exercise them."""

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{not json", "unreadable"),
            (json.dumps({"cold": {"cases": {}}}), "unreadable"),
            (json.dumps({"cases": ["ising_2d_2x2/r3/f1"]}), "unreadable"),
            # a pre-strategy flat report: rows without a "default" entry
            (json.dumps({"cases": {"ising_2d_2x2/r3/f1": {"makespan": 98.5}}}),
             "no default row"),
            (json.dumps({"cases": {"other/r3/f1": {"default": {}}}}),
             "no default row"),
        ],
    )
    def test_unusable_baseline_is_a_mismatch(self, tmp_path, content, reason):
        path = tmp_path / "baseline.json"
        path.write_text(content)
        report = ChaosReport(seed=0, scenarios=0)
        _bench_phase(report, "127.0.0.1", 1, str(path))
        assert len(report.bench_mismatches) == 1
        assert reason in report.bench_mismatches[0]
        assert not report.ok

    @pytest.mark.parametrize("path", [None, "-"])
    def test_explicit_skip(self, path):
        report = ChaosReport(seed=0, scenarios=0)
        _bench_phase(report, "127.0.0.1", 1, path)
        assert report.bench_mismatches == [] and report.ok
