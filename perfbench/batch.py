"""The batch workloads: compile-matrix and the three sweep-cache legs.

All four resolve the 16-case fig9/fig11 matrix serially, in a seeded
order, once per pass:

``compile-matrix``
    ``FaultTolerantCompiler.compile`` on every case; no cache, no service.
``sweep-fill``
    ``SweepEngine`` over a fresh disk directory and a fresh live
    ``CachePeerThread`` (as ``repro experiment --cache-dir --remote-cache``
    runs it): every case compiles and fills memo, disk and remote.
``sweep-disk``
    A new engine over a disk filled during preparation: every case is a
    disk hit.
``sweep-remote``
    A new engine with an empty disk on the filled peer: every case is a
    remote hit, replay-validated on ingest and promoted to disk.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.metrics import geometric_mean, overhead_factor
from repro.perf import profiler
from repro.service import CachePeerThread, RemoteCache
from repro.sweep import CompileCache, SweepEngine
from repro.verify import validate_result
from repro.workloads import load_benchmark

from . import calibrate, inputs
from .harness import NULL_TRACER, Outcome, run_passes, timed_setups
from .host import StateRoot, peak_rss_mb
from .layers import LayerCounters, batch_coverage, entry_bytes, per_layer_report
from .tracing import Tracer, install_probes

#: share of a traced pass's wall the layer self times must account for.
COVERAGE_FLOOR = 0.9

#: which tier serves every case, per leg (``compiled`` = no tier).
EXPECTED_SOURCE = {
    "compile-matrix": "compiled",
    "sweep-fill": "compiled",
    "sweep-disk": "disk",
    "sweep-remote": "remote",
}


def _config(case) -> CompilerConfig:
    _, paths, factories = case
    return CompilerConfig(routing_paths=paths, num_factories=factories)


class _Peer:
    """A live cache peer over its own directory, plus an engine factory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.thread = CachePeerThread(cache=CompileCache(directory), allow_shutdown=False).start()

    def engine(self, disk: Path) -> SweepEngine:
        return SweepEngine(cache=CompileCache(disk), remote=RemoteCache(*self.thread.address))

    def stop(self) -> None:
        self.thread.stop()


def run_batch(workload: str, seed: int, seconds: float, trace: bool, state: StateRoot) -> Outcome:
    cases = inputs.matrix_order(seed)
    keys = [inputs.case_key(case) for case in cases]
    outcome = Outcome()
    counters = LayerCounters()
    engine_leg = workload != "compile-matrix"

    # -- set-up: what a user waits for before the first case resolves --------
    def bring_up(index: int):
        circuits = {case[0]: load_benchmark(case[0]) for case in cases}
        configs = {key: _config(case) for key, case in zip(keys, cases)}
        if not engine_leg:
            compilers = {key: FaultTolerantCompiler(configs[key]) for key in keys}
            return circuits, configs, compilers, None
        peer = _Peer(state.sub(f"setup-peer-{index}"))
        # first contact: the connection every later lookup reuses
        engine = peer.engine(state.sub(f"setup-disk-{index}"))
        if not engine.remote.ping():
            raise RuntimeError("cache peer did not answer")
        engine.shutdown()
        return circuits, configs, None, peer

    def tear_down(system) -> None:
        if system[3] is not None:
            system[3].stop()

    setup_s, (circuits, configs, compilers, peer) = timed_setups(bring_up, tear_down)
    outcome.end_to_end["setup_s"] = setup_s

    try:
        return _measure(
            workload, cases, keys, circuits, configs, compilers, peer,
            seconds, trace, state, outcome, counters,
        )
    finally:
        if peer is not None:
            peer.stop()


def _measure(workload, cases, keys, circuits, configs, compilers, peer,
             seconds, trace, state, outcome, counters) -> Outcome:
    expected = EXPECTED_SOURCE[workload]
    reference: Dict[str, dict] = {}
    checked: Dict[str, object] = {}  # first result per key, validated after the run
    prefill_disk = state.sub("prefill-disk")
    if workload in ("sweep-disk", "sweep-remote"):
        # preparation (untimed): one cold pass fills the disk and the peer
        engine = peer.engine(prefill_disk)
        for key, case in zip(keys, cases):
            reference[key] = engine.compile(circuits[case[0]], configs[key]).fingerprint()
        engine.shutdown()

    tracer = Tracer() if trace else None
    suite_phases = profiler.PhaseProfiler()
    roots = []
    walls: List[float] = []
    cpu_walls: List[float] = []  # pass CPU seconds at reference host speed
    traced_walls: List[float] = []
    traced_ops = 0

    def one_pass(index: int) -> float:
        nonlocal traced_ops
        traced = trace and index % 2 == 1
        engine = None
        pass_peer = None
        disk = None
        if workload == "sweep-fill":
            pass_peer = _Peer(state.sub(f"peer-{index}"))
            disk = state.sub(f"disk-{index}")
            engine = pass_peer.engine(disk)
        elif workload == "sweep-disk":
            disk = prefill_disk
            engine = peer.engine(disk)
        elif workload == "sweep-remote":
            disk = state.sub(f"disk-{index}")
            engine = peer.engine(disk)
        span_source = NULL_TRACER
        speed = []
        results = {}
        with contextlib.ExitStack() as stack:
            if traced:
                install_probes(tracer)
                stack.callback(tracer.uninstall)
                prof = stack.enter_context(profiler.capture())
                span_source = tracer
            cpu_started = time.process_time()
            started = time.perf_counter()
            with span_source.span("bench.pass") as root:
                for key, case in zip(keys, cases):
                    speed.append(calibrate.sample())
                    with span_source.span("bench.op", trace=key):
                        if engine is None:
                            results[key] = compilers[key].compile(circuits[case[0]])
                        else:
                            results[key] = engine.compile(circuits[case[0]], configs[key])
            wall = time.perf_counter() - started
            cpu_s = time.process_time() - cpu_started - sum(speed)
        if traced:
            suite_phases.merge(prof)
            roots.append(root)
            traced_walls.append(wall)
            traced_ops += len(keys)
        else:
            walls.append(wall)
            cpu_walls.append(cpu_s * calibrate.scale(speed))
        # -- checks and counters, outside the timed region ---------------------
        outcome.attempted += len(keys)
        sources = _sources(engine, len(keys))
        for key in keys:
            fingerprint = results[key].fingerprint()
            if key not in reference:
                reference[key] = fingerprint
            if fingerprint != reference[key] or sources != expected:
                outcome.failed += 1
            checked.setdefault(key, results[key])
        if expected == "compiled":
            counters.add_results(result.fingerprint() for result in results.values())
        if engine is not None:
            counters.add_tiers(engine.tier_stats())
            engine.shutdown()
            counters.values["codec.entry_bytes"] = entry_bytes(disk)
        if pass_peer is not None:
            pass_peer.stop()
            state.remove(pass_peer.directory.name)
        if disk is not None and disk != prefill_disk:
            state.remove(disk.name)
        return wall

    run_passes(seconds, one_pass)

    # -- correctness: replay-validate every distinct result ------------------------
    for key, case in zip(keys, cases):
        report = validate_result(checked[key], circuits[case[0]], configs[key], label=key)
        if not report.ok:
            outcome.failed += 1
    outcome.attempted += len(keys)

    outcome.end_to_end.update(
        {
            "pass_cpu_s": statistics.median(cpu_walls),
            "overhead_geomean": geometric_mean(
                [overhead_factor(r.execution_time, r.lower_bound) for r in checked.values()]
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    outcome.notes.update(
        {
            "passes": len(walls) + len(traced_walls),
            "pass_cpu_s": [round(value, 4) for value in cpu_walls],
            "pass_wall_s": [round(wall, 4) for wall in walls],
        }
    )
    if trace:
        phases = suite_phases.as_dict()
        coverage = batch_coverage(tracer, roots, phases)
        if coverage < COVERAGE_FLOOR:
            print(f"perfbench: layer self times cover only {coverage:.1%} of the traced "
                  f"passes (expected >= {COVERAGE_FLOOR:.0%}); a layer is missing a probe",
                  file=sys.stderr)
        outcome.per_layer = per_layer_report(
            counters,
            passes=len(walls) + len(traced_walls),
            tracer=tracer,
            traced_passes=len(traced_walls),
            traced_ops=traced_ops,
            phases=phases,
            traced_walls=traced_walls,
            untraced_walls=walls,
            coverage=coverage,
        )
        outcome.notes["tracer"] = tracer
    return outcome


def _sources(engine: Optional[SweepEngine], count: int) -> str:
    """The one tier that served all ``count`` lookups, or ``mixed``."""
    if engine is None:
        return "compiled"
    counts = engine.counters.as_dict()
    by_tier = {
        "compiled": counts["compiled"],
        "disk": counts["disk_hits"],
        "remote": counts["remote_hits"],
        "memo": counts["memo_hits"],
    }
    for source, hits in by_tier.items():
        if hits == count:
            return source
    return "mixed"
