"""The benchmark harness behind ``repro bench``: behaviour and quality gates.

Every (case, strategy) pair of the fig9/fig11 workload matrix (Trotter
circuits at several lattice sizes, routing-path counts and factory
counts) is compiled once under every registered placement/delivery
strategy.  One report, ``BENCH.json``, records per row:

* the behavioural fingerprint (makespan, op/move counts, scheduler
  stats) and ``total_qubits``;
* schedule quality: the Eq. 2 ``lower_bound``, the gated ``quality``
  ratio (makespan over :func:`repro.metrics.quality_denominator`, so
  Clifford-only cases degrade to "time per d" rather than dividing by
  zero) and the churn counters behind it;
* one ``wall``; ``total_wall`` sums the ``default`` rows.

:func:`compare_reports` is the one gate over two such reports:

* a fingerprint drift on a shared ``default`` row fails — a perf change
  must not alter the compiled schedule;
* a ``quality`` rise beyond :data:`QUALITY_RTOL` on any shared row
  fails; improvements pass (regenerate the file to ratchet them in);
* a baseline with no ``cases``, or sharing no row with the run, fails —
  a gate that compares nothing must not pass.

Walls are compared only between reports recorded on the same host
(``meta.host``).  Per-layer timing lives in ``perfbench/``.

Usage::

    repro bench                 # full suite, writes BENCH.json
    repro bench --fast          # smoke suite (seconds), for CI
    repro bench --jobs 4        # compile the rows on 4 processes
    repro bench --baseline BENCH.json   # gate against a file
"""

from __future__ import annotations

import json
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..compiler.config import CompilerConfig
from ..compiler.pipeline import FaultTolerantCompiler
from ..compiler.result import FINGERPRINT_FIELDS
from ..metrics.spacetime import quality_denominator
from ..strategies import STRATEGY_NAMES
from ..workloads import load_benchmark
from . import profiler

#: default output file, the committed baseline CI gates against.
BENCH_FILENAME = "BENCH.json"

#: the strategy whose rows carry the fingerprint gate and ``total_wall``.
DEFAULT_STRATEGY = "default"

#: relative tolerance of the quality gate.  Compiles are deterministic,
#: so any real regression exceeds this; the epsilon only absorbs float
#: round-tripping through JSON.
QUALITY_RTOL = 1e-9

#: aux-stat counters copied into every row (0.0 when absent).
_AUX_COUNTERS = (
    "restores",
    "restore_cycle_breaks",
    "displacement_aborts",
)

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
    """Results of one harness run: ``cases[case_key][strategy] -> row``."""

    cases: Dict[str, Dict[str, dict]] = field(default_factory=dict)
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
            f"{'case'.ljust(width)}  {'strategy':>9}  {'wall_s':>8}  "
            f"{'makespan':>9}  {'ops':>6}  {'moves':>6}  {'quality':>8}  "
            f"{'evict':>6}"
        ]
        for key, per_strategy in self.cases.items():
            for strategy, row in per_strategy.items():
                lines.append(
                    f"{key.ljust(width)}  {strategy:>9}  {row['wall']:>8.3f}  "
                    f"{row['makespan']:>9.1f}  {row['num_ops']:>6}  "
                    f"{row['num_moves']:>6}  {row['quality']:>8.3f}  "
                    f"{row['stats'].get('evictions', 0):>6.0f}"
                )
        lines.append(
            f"total wall time ({DEFAULT_STRATEGY} rows): {self.total_wall:.3f}s"
        )
        return "\n".join(lines)


def bench_cases(fast: bool = False, workloads: Optional[List[str]] = None) -> List[BenchCase]:
    """The benchmark matrix, optionally filtered to named workloads."""
    matrix = _FAST_MATRIX if fast else _FULL_MATRIX
    cases = [BenchCase(*entry) for entry in matrix]
    if workloads:
        cases = [c for c in cases if c.workload in workloads]
    return cases


def host_fingerprint() -> dict:
    """CPU model, core count and Python version: walls compare only within one."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def _row(result, wall: float) -> dict:
    aux = result.aux_stats
    row = {
        "wall": round(wall, 4),
        "total_qubits": result.total_qubits,
        **result.fingerprint(),
        "lower_bound": result.lower_bound,
        "quality": round(
            result.execution_time / quality_denominator(result.lower_bound), 6
        ),
    }
    for counter in _AUX_COUNTERS:
        row[counter] = aux.get(counter, 0.0)
    return row


def _run_row(
    payload: Tuple[BenchCase, str, bool, bool]
) -> Tuple[dict, Optional[dict]]:
    """One timed (case, strategy) compile; module-level for ``--jobs``."""
    case, strategy, validate, profile = payload
    circuit = load_benchmark(case.workload)
    config = CompilerConfig(
        routing_paths=case.routing_paths,
        num_factories=case.num_factories,
        strategy=strategy,
    )
    compiler = FaultTolerantCompiler(config)
    start = time.perf_counter()
    result = compiler.compile(circuit)
    row = _row(result, time.perf_counter() - start)
    phases = None
    if profile and strategy == DEFAULT_STRATEGY:
        # one extra instrumented compile AFTER the timed one, so
        # attribution never contaminates the wall it explains
        with profiler.capture() as prof:
            compiler.compile(circuit)
        phases = prof.as_dict()
    if validate:
        # outside the timed region: walls measure compilation, not auditing
        from ..verify import raise_if_invalid, validate_result

        raise_if_invalid(
            validate_result(result, circuit, config, label=f"{case.key}/{strategy}")
        )
    return row, phases


def _merge_phase_dicts(total: Dict[str, dict], phases: Dict[str, dict]) -> None:
    """Accumulate one case's phase breakdown into the suite-wide totals."""
    for name, stats in phases.items():
        agg = total.setdefault(name, {"wall": 0.0, "self": 0.0, "calls": 0})
        agg["wall"] = round(agg["wall"] + stats["wall"], 6)
        agg["self"] = round(agg["self"] + stats["self"], 6)
        agg["calls"] += stats["calls"]


def run_bench(
    fast: bool = False,
    workloads: Optional[List[str]] = None,
    progress=None,
    jobs: int = 1,
    validate: bool = False,
    profile: bool = False,
) -> BenchReport:
    """Compile every (case, strategy) row of the matrix once.

    Args:
        fast: use the smoke matrix instead of the full fig9/fig11 suite.
        workloads: optional workload-name filter.
        progress: optional callable invoked with a line per finished row.
        jobs: worker processes; rows stay bit-identical, walls are then
            measured inside the workers and ``meta.sweep_wall`` records the
            true elapsed time of the sweep.
        validate: replay-validate every row's schedule (outside the timed
            region); raises :class:`~repro.verify.ValidationError` on the
            first violation.
        profile: run one extra instrumented compile per ``default`` row
            (after its timed one) and attach the suite-wide per-phase
            wall/call breakdown as ``meta.phases``.
    """
    jobs = max(1, jobs)
    report = BenchReport(
        meta={
            "version": __version__,
            "host": host_fingerprint(),
            "mode": "fast" if fast else "full",
            "jobs": jobs,
            "strategies": list(STRATEGY_NAMES),
        }
    )
    if validate:
        report.meta["validated"] = True
    payloads = [
        (case, strategy, validate, profile)
        for case in bench_cases(fast, workloads)
        for strategy in STRATEGY_NAMES
    ]
    suite_phases: Dict[str, dict] = {}
    sweep_start = time.perf_counter()
    pool = None
    if jobs > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads) or 1))
        outcomes = pool.map(_run_row, payloads)
    else:
        outcomes = map(_run_row, payloads)
    try:
        for (case, strategy, *_), (row, phases) in zip(payloads, outcomes):
            if phases:
                _merge_phase_dicts(suite_phases, phases)
            report.cases.setdefault(case.key, {})[strategy] = row
            if strategy == DEFAULT_STRATEGY:
                report.total_wall += row["wall"]
            if progress is not None:
                progress(
                    f"{case.key}/{strategy}: {row['wall']:.3f}s "
                    f"makespan={row['makespan']} quality={row['quality']:.3f}"
                )
    finally:
        if pool is not None:
            pool.shutdown()
    report.meta["sweep_wall"] = round(time.perf_counter() - sweep_start, 4)
    if profile:
        # suite-wide aggregate, sorted widest-first like PhaseProfiler.as_dict
        report.meta["phases"] = dict(
            sorted(suite_phases.items(), key=lambda kv: -kv[1]["wall"])
        )
    return report


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
    attribution is optional, the per-row comparison always runs.
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


def _rows(report: dict) -> Dict[Tuple[str, str], dict]:
    """A report's ``(case_key, strategy) -> row`` map.

    Anything not shaped like a row (a dict carrying ``makespan``) is
    skipped, so a pre-strategy flat report contributes no rows at all.
    """
    cases = report.get("cases")
    if not isinstance(cases, dict):
        return {}
    return {
        (key, strategy): row
        for key, per_strategy in cases.items()
        if isinstance(per_strategy, dict)
        for strategy, row in per_strategy.items()
        if isinstance(row, dict) and "makespan" in row
    }


def compare_reports(baseline: dict, current: dict) -> Tuple[List[str], List[str]]:
    """Gate ``current`` against ``baseline``; both are ``BENCH.json`` dicts.

    Returns ``(lines, errors)``: human-readable comparison lines, and one
    line per gate failure — an empty ``errors`` list means the gate
    passes.  The rules are in the module docstring.
    """
    lines: List[str] = []
    errors: List[str] = []
    if not isinstance(baseline.get("cases"), dict) or not baseline["cases"]:
        return lines, ["baseline has no cases"]
    base_rows = _rows(baseline)
    base_host = (baseline.get("meta") or {}).get("host")
    walls = base_host is not None and base_host == (current.get("meta") or {}).get("host")
    shared = drifts = regressions = 0
    base_wall = cur_wall = 0.0
    for (key, strategy), row in _rows(current).items():
        label = f"{key}/{strategy}"
        base = base_rows.get((key, strategy))
        if base is None:
            lines.append(f"{label}: no baseline entry")
            continue
        shared += 1
        if strategy == DEFAULT_STRATEGY:
            for field_name in FINGERPRINT_FIELDS:
                if base.get(field_name) != row.get(field_name):
                    drifts += 1
                    errors.append(
                        f"{label}: BEHAVIOUR DRIFT in {field_name}: "
                        f"{base.get(field_name)} -> {row.get(field_name)}"
                    )
            if walls and base.get("wall") and row.get("wall"):
                lines.append(f"{key}: {base['wall'] / row['wall']:.2f}x vs baseline")
                base_wall += base["wall"]
                cur_wall += row["wall"]
        before, after = base.get("quality"), row.get("quality")
        if before is None or after is None:
            continue
        if after > before * (1.0 + QUALITY_RTOL):
            regressions += 1
            errors.append(
                f"{label}: quality regressed {before:.6f} -> {after:.6f} "
                f"(makespan {base['makespan']} -> {row['makespan']})"
            )
        elif after < before:
            lines.append(f"{label}: quality improved {before:.6f} -> {after:.6f}")
    if not shared:
        errors.append("baseline shares no (case, strategy) row with this run")
    unexercised = sorted(set(baseline["cases"]) - set(current.get("cases") or {}))
    if unexercised:
        # not a failure (fast runs exercise a subset of a full baseline),
        # but a silently shrinking matrix should at least be visible
        lines.append(
            f"note: {len(unexercised)} baseline case(s) not exercised in "
            f"this run: {', '.join(unexercised[:5])}"
            + ("..." if len(unexercised) > 5 else "")
        )
    if not walls:
        lines.append("walls not compared: different host")
    elif cur_wall:
        # over the shared default rows only: a fast run gated against a
        # full baseline must not read as a speedup
        lines.append(
            f"total: {base_wall / cur_wall:.2f}x vs baseline"
            f" ({base_wall:.3f}s -> {cur_wall:.3f}s over the shared cases)"
        )
    if shared and not drifts:
        lines.append("behaviour: identical to baseline")
    if shared and not regressions:
        lines.append("quality: no regressions vs baseline")
    return lines, errors
