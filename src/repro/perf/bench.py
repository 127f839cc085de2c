"""End-to-end compile-time benchmark harness.

The routing/scheduling inner loop is the compiler's hot path; this module
measures it the way users experience it — wall time of full compilations
over the fig9/fig11 workload suite (condensed-matter Trotter circuits at
several lattice sizes, routing-path counts and factory counts).

Each run writes ``BENCH_routing.json``: per-case wall time plus the
behavioural fingerprint (makespan, scheduler stats, op counts), so future
performance work has a trajectory to regress against — a speedup only
counts when the fingerprint is unchanged.

Usage::

    repro bench                 # full suite, writes BENCH_routing.json
    repro bench --fast          # smoke suite (seconds), for CI
    repro bench --repeat 3      # best-of-3 wall times
    repro bench --jobs 4        # compile the matrix on 4 processes
    repro bench --cache-dir DIR # resolve through the persistent sweep cache
    repro bench --baseline BENCH_routing.json   # compare against a file

With ``--jobs`` the behavioural fingerprints are unchanged (results are
bit-identical to serial compilation); per-case walls are then measured
inside the workers and ``meta.sweep_wall`` records the actual elapsed time
of the whole sweep.  With a cache, per-case wall becomes the time to
*resolve* the case through the engine (near zero when warm), and
``meta.cache`` records the hit/miss counters — the sweep-level speedup the
trajectory is meant to capture.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..compiler.config import CompilerConfig
from ..compiler.pipeline import FaultTolerantCompiler
from ..compiler.result import FINGERPRINT_FIELDS
from ..sweep import CompileCache, CompileJob, SweepEngine
from ..workloads import load_benchmark
from . import profiler

#: default output file, tracked over time as the perf trajectory.
BENCH_FILENAME = "BENCH_routing.json"

#: (workload, routing_paths, num_factories) matrix for the full suite —
#: the fig9 sweep shape (r x factories) plus fig11-style r variation.
#: A superset of the fast matrix, so a full baseline can gate fast CI runs.
_FULL_MATRIX = [
    ("ising_2d_2x2", 3, 1),
    ("heisenberg_2d_2x2", 3, 1),
    ("fermi_hubbard_2d_2x2", 4, 1),
    ("ising_2d_4x4", 3, 1),
    ("ising_2d_4x4", 4, 2),
    ("ising_2d_4x4", 6, 4),
    ("heisenberg_2d_4x4", 3, 1),
    ("heisenberg_2d_4x4", 5, 2),
    ("fermi_hubbard_2d_4x4", 4, 1),
    ("fermi_hubbard_2d_4x4", 6, 2),
    ("ising_2d_6x6", 3, 1),
    ("ising_2d_6x6", 6, 2),
    ("heisenberg_2d_6x6", 4, 1),
    ("ising_2d_8x8", 4, 2),
    ("heisenberg_2d_8x8", 6, 2),
    ("ising_2d_10x10", 4, 2),
]

#: quick smoke matrix (sub-second): CI and pre-commit sanity.
_FAST_MATRIX = [
    ("ising_2d_2x2", 3, 1),
    ("heisenberg_2d_2x2", 3, 1),
    ("fermi_hubbard_2d_2x2", 4, 1),
    ("ising_2d_4x4", 4, 2),
]


@dataclass(frozen=True)
class BenchCase:
    """One benchmark point: a workload compiled at fixed (r, factories)."""

    workload: str
    routing_paths: int
    num_factories: int

    @property
    def key(self) -> str:
        return f"{self.workload}/r{self.routing_paths}/f{self.num_factories}"


@dataclass
class BenchReport:
    """Results of one harness run."""

    cases: Dict[str, dict] = field(default_factory=dict)
    total_wall: float = 0.0
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "meta": self.meta,
            "total_wall": round(self.total_wall, 4),
            "cases": self.cases,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        width = max((len(k) for k in self.cases), default=10)
        lines = [
            f"{'case'.ljust(width)}  {'wall_s':>8}  {'makespan':>9}  "
            f"{'ops':>6}  {'moves':>6}"
        ]
        for key, row in self.cases.items():
            lines.append(
                f"{key.ljust(width)}  {row['wall']:>8.3f}  "
                f"{row['makespan']:>9.1f}  {row['num_ops']:>6}  "
                f"{row['num_moves']:>6}"
            )
        lines.append(f"total wall time: {self.total_wall:.3f}s")
        return "\n".join(lines)


def bench_cases(fast: bool = False, workloads: Optional[List[str]] = None) -> List[BenchCase]:
    """The benchmark matrix, optionally filtered to named workloads."""
    matrix = _FAST_MATRIX if fast else _FULL_MATRIX
    cases = [BenchCase(*entry) for entry in matrix]
    if workloads:
        cases = [c for c in cases if c.workload in workloads]
    return cases


def _case_config(case: BenchCase) -> CompilerConfig:
    return CompilerConfig(
        routing_paths=case.routing_paths, num_factories=case.num_factories
    )


def _row_from_result(result, wall: float) -> dict:
    return {
        "wall": round(wall, 4),
        "total_qubits": result.total_qubits,
        **result.fingerprint(),
    }


def _run_case(
    case: BenchCase,
    repeat: int,
    validate: bool = False,
    profile: bool = False,
) -> dict:
    circuit = load_benchmark(case.workload)
    config = _case_config(case)
    compiler = FaultTolerantCompiler(config)
    walls: List[float] = []
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = compiler.compile(circuit)
        walls.append(time.perf_counter() - start)
    # best-of-N is the headline number (least scheduler/cache noise);
    # the median rides along so cross-machine comparisons can see
    # dispersion.
    row = _row_from_result(result, min(walls))
    row["wall_median"] = round(statistics.median(walls), 4)
    if profile:
        # one extra instrumented compile AFTER the timed repetitions, so
        # attribution never contaminates the walls it explains
        with profiler.capture() as prof:
            compiler.compile(circuit)
        row["phases"] = prof.as_dict()
    if validate:
        # outside the timed region: walls measure compilation, not
        # auditing
        from ..verify import raise_if_invalid, validate_result

        raise_if_invalid(
            validate_result(result, circuit, config, label=case.key)
        )
    return row


def _run_case_payload(payload: Tuple[BenchCase, int, bool, bool]) -> dict:
    """Worker entry point for ``--jobs``: one timed case per process."""
    return _run_case(*payload)


def _merge_phase_dicts(total: Dict[str, dict], phases: Dict[str, dict]) -> None:
    """Accumulate one case's phase breakdown into the suite-wide totals."""
    for name, stats in phases.items():
        agg = total.setdefault(name, {"wall": 0.0, "self": 0.0, "calls": 0})
        agg["wall"] = round(agg["wall"] + stats["wall"], 6)
        agg["self"] = round(agg["self"] + stats["self"], 6)
        agg["calls"] += stats["calls"]


def run_bench(
    fast: bool = False,
    repeat: int = 1,
    workloads: Optional[List[str]] = None,
    progress=None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    remote=None,
    validate: bool = False,
    profile: bool = False,
) -> BenchReport:
    """Compile the suite, timing each case (best-of-``repeat``).

    Args:
        fast: use the smoke matrix instead of the full fig9/fig11 suite.
        repeat: timing repetitions per case; the minimum wall time is kept
            (behavioural outputs are deterministic across repetitions).
        workloads: optional workload-name filter.
        progress: optional callable invoked with a line per finished case.
        jobs: worker processes; behavioural outputs stay bit-identical, and
            ``meta.sweep_wall`` records the true elapsed time of the sweep.
        cache_dir: resolve cases through a persistent
            :class:`~repro.sweep.CompileCache` rooted here; per-case wall is
            then the resolution time (near zero when warm) and ``meta.cache``
            carries the hit/miss counters.
        remote: optional :class:`~repro.service.RemoteCache` tier below the
            disk cache (the ``--remote-cache`` flag); forces the engine
            resolution path even without ``cache_dir``.  Per-tier counters
            land in ``meta.cache_tiers``.
        validate: replay-validate every case's schedule (outside the timed
            region); raises :class:`~repro.verify.ValidationError` on the
            first violation.
        profile: run one extra instrumented compile per case (after the
            timed repetitions) and attach the per-phase wall/call breakdown
            as ``meta.phases``; unsupported with ``cache_dir`` (cache
            resolution has no compile phases to attribute).
    """
    jobs = max(1, jobs)
    report = BenchReport(
        meta={
            "version": __version__,
            "python": platform.python_version(),
            "mode": "fast" if fast else "full",
            "repeats": max(1, repeat),
            "jobs": jobs,
        }
    )
    if validate:
        report.meta["validated"] = True
    engine_path = cache_dir is not None or remote is not None
    if profile and engine_path:
        raise ValueError("--profile attributes compile phases; it does not apply to cache resolution runs")
    cases = bench_cases(fast, workloads)
    sweep_start = time.perf_counter()
    if engine_path:
        # cache resolution is single-shot, so label the walls honestly
        report.meta["repeats"] = 1
        engine = SweepEngine(
            jobs=jobs,
            cache=CompileCache(cache_dir) if cache_dir is not None else None,
            remote=remote,
        )
        circuits = {c.workload: load_benchmark(c.workload) for c in cases}
        if jobs > 1:
            engine.prefetch(
                [
                    CompileJob(circuits[c.workload], _case_config(c), tag="bench")
                    for c in cases
                ]
            )

        def timed_resolution(case: BenchCase) -> dict:
            start = time.perf_counter()
            result = engine.compile(circuits[case.workload], _case_config(case))
            wall = time.perf_counter() - start
            if validate:
                # after the timer stops: walls measure resolution, not auditing
                from ..verify import raise_if_invalid, validate_result

                raise_if_invalid(
                    validate_result(
                        result, circuits[case.workload], _case_config(case),
                        label=case.key,
                    )
                )
            return _row_from_result(result, wall)

        rows = map(timed_resolution, cases)
    elif jobs > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(cases) or 1))
        rows = pool.map(
            _run_case_payload,
            [(c, repeat, validate, profile) for c in cases],
        )
    else:
        pool = None
        rows = (_run_case(case, repeat, validate, profile) for case in cases)
    suite_phases: Dict[str, dict] = {}
    try:
        for case, row in zip(cases, rows):
            case_phases = row.pop("phases", None)
            if case_phases:
                _merge_phase_dicts(suite_phases, case_phases)
            report.cases[case.key] = row
            report.total_wall += row["wall"]
            if progress is not None:
                progress(f"{case.key}: {row['wall']:.3f}s makespan={row['makespan']}")
    finally:
        if engine_path:
            report.meta["cache"] = engine.counters.as_dict()
            report.meta["cache_tiers"] = engine.tier_stats()
            engine.shutdown()
        elif jobs > 1:
            pool.shutdown()
    report.meta["sweep_wall"] = round(time.perf_counter() - sweep_start, 4)
    if profile:
        # suite-wide aggregate, sorted widest-first like PhaseProfiler.as_dict
        report.meta["phases"] = {
            name: stats
            for name, stats in sorted(
                suite_phases.items(), key=lambda kv: -kv[1]["wall"]
            )
        }
    return report


#: per-case fields that make up the behavioural fingerprint — imported
#: from the canonical definition next to CompilationResult.fingerprint so
#: the drift gate, the report rows and the service responses cannot diverge.
_FINGERPRINT_FIELDS = FINGERPRINT_FIELDS


def report_from_dict(data: dict) -> BenchReport:
    """Rehydrate a ``BENCH_*.json`` payload for comparison helpers."""
    return BenchReport(
        cases=dict(data.get("cases", {})),
        total_wall=float(data.get("total_wall") or 0.0),
        meta=dict(data.get("meta", {})),
    )


def phases_table(phases: Dict[str, dict]) -> str:
    """Render a ``meta.phases`` breakdown the way ``--profile`` prints it."""
    if not phases:
        return "(no phases recorded)"
    width = max(len(name) for name in phases)
    lines = [f"{'phase'.ljust(width)}  {'wall_s':>9}  {'self_s':>9}  {'calls':>9}"]
    for name, stats in phases.items():
        lines.append(
            f"{name.ljust(width)}  {stats['wall']:>9.4f}  "
            f"{stats['self']:>9.4f}  {stats['calls']:>9}"
        )
    return "\n".join(lines)


def compare_phases(baseline_meta: dict, current_meta: dict) -> List[str]:
    """Per-phase speedup lines for two reports that both carry ``meta.phases``.

    Empty when either side was recorded without ``--profile`` — phase
    attribution is optional, the per-case comparison always runs.
    """
    base = baseline_meta.get("phases") or {}
    cur = current_meta.get("phases") or {}
    if not base or not cur:
        return []
    width = max(len(name) for name in {*base, *cur})
    lines = [
        f"{'phase'.ljust(width)}  {'base_s':>9}  {'new_s':>9}  {'speedup':>8}"
    ]
    for name in sorted({*base, *cur}, key=lambda n: -(base.get(n, {}).get("wall", 0.0))):
        b = base.get(name, {}).get("wall")
        c = cur.get(name, {}).get("wall")
        if b is None or c is None:
            lines.append(
                f"{name.ljust(width)}  "
                f"{(f'{b:9.4f}' if b is not None else '        -')}  "
                f"{(f'{c:9.4f}' if c is not None else '        -')}  "
                f"{'-':>8}"
            )
            continue
        ratio = f"{b / c:7.2f}x" if c else f"{'inf':>7} "
        lines.append(f"{name.ljust(width)}  {b:>9.4f}  {c:>9.4f}  {ratio}")
    return lines


def has_drift(baseline: dict, current: BenchReport) -> bool:
    """True when any shared case's behavioural fingerprint changed.

    Cases missing from the baseline are not drift (the matrix may grow);
    only a changed fingerprint field on a case both runs share counts.
    CI gates on this.
    """
    base_cases = baseline.get("cases", {})
    for key, row in current.cases.items():
        base = base_cases.get(key)
        if base is None:
            continue
        for field_name in _FINGERPRINT_FIELDS:
            if base.get(field_name) != row.get(field_name):
                return True
    return False


def compare_reports(baseline: dict, current: BenchReport) -> List[str]:
    """Human-readable comparison lines against a previous ``BENCH_*.json``.

    Flags any behavioural drift (makespan / stats / op counts) — a perf
    change must not alter the compiled schedule — and reports per-case and
    total speedup.
    """
    lines: List[str] = []
    base_cases = baseline.get("cases", {})
    drift = False
    for key, row in current.cases.items():
        base = base_cases.get(key)
        if base is None:
            lines.append(f"{key}: no baseline entry")
            continue
        for field_name in _FINGERPRINT_FIELDS:
            if base.get(field_name) != row.get(field_name):
                drift = True
                lines.append(
                    f"{key}: BEHAVIOUR DRIFT in {field_name}: "
                    f"{base.get(field_name)} -> {row.get(field_name)}"
                )
        if base.get("wall") and row.get("wall"):
            lines.append(f"{key}: {base['wall'] / row['wall']:.2f}x vs baseline")
    unexercised = sorted(set(base_cases) - set(current.cases))
    if unexercised:
        # not drift (fast runs exercise a subset of a full baseline), but a
        # silently shrinking matrix should at least be visible
        lines.append(
            f"note: {len(unexercised)} baseline case(s) not exercised in "
            f"this run: {', '.join(unexercised[:5])}"
            + ("..." if len(unexercised) > 5 else "")
        )
    base_total = baseline.get("total_wall")
    if base_total and current.total_wall:
        lines.append(
            f"total: {base_total / current.total_wall:.2f}x vs baseline"
            f" ({base_total:.3f}s -> {current.total_wall:.3f}s)"
        )
    if not drift:
        lines.append("behaviour: identical to baseline")
    return lines
