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
  zero) and the churn counters behind it.

Nothing in it is timed: compiles are deterministic, so the file is a
pure function of the source and regenerating it on any host, with any
``--jobs``, rewrites it byte for byte.

:func:`compare_reports` is the one gate over two such reports:

* a fingerprint drift on a shared ``default`` row fails — a perf change
  must not alter the compiled schedule;
* a ``quality`` rise beyond :data:`QUALITY_RTOL` on any shared row
  fails; improvements pass (regenerate the file to ratchet them in);
* a baseline with no ``cases``, or sharing no row with the run, fails —
  a gate that compares nothing must not pass.

Timing lives in ``perfbench/`` and ``scripts/ab.py``.

Usage::

    repro bench                 # full suite, writes BENCH.json
    repro bench --fast          # smoke suite (seconds), for CI
    repro bench --jobs 4        # compile the rows on 4 processes
    repro bench --baseline BENCH.json   # gate against a file
"""

from __future__ import annotations

import json
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

#: default output file, the committed baseline CI gates against.
BENCH_FILENAME = "BENCH.json"

#: the strategy whose rows carry the fingerprint gate.
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
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"meta": self.meta, "cases": self.cases}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    def to_text(self) -> str:
        width = max((len(k) for k in self.cases), default=10)
        lines = [
            f"{'case'.ljust(width)}  {'strategy':>9}  {'makespan':>9}  "
            f"{'ops':>6}  {'moves':>6}  {'quality':>8}  {'evict':>6}"
        ]
        for key, per_strategy in self.cases.items():
            for strategy, row in per_strategy.items():
                lines.append(
                    f"{key.ljust(width)}  {strategy:>9}  {row['makespan']:>9.1f}  "
                    f"{row['num_ops']:>6}  {row['num_moves']:>6}  {row['quality']:>8.3f}  "
                    f"{row['stats'].get('evictions', 0):>6.0f}"
                )
        return "\n".join(lines)


def bench_cases(fast: bool = False, workloads: Optional[List[str]] = None) -> List[BenchCase]:
    """The benchmark matrix, optionally filtered to named workloads."""
    matrix = _FAST_MATRIX if fast else _FULL_MATRIX
    cases = [BenchCase(*entry) for entry in matrix]
    if workloads:
        cases = [c for c in cases if c.workload in workloads]
    return cases


def _row(result) -> dict:
    aux = result.aux_stats
    row = {
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


def _run_row(payload: Tuple[BenchCase, str, bool]) -> dict:
    """One (case, strategy) compile; module-level for ``--jobs``."""
    case, strategy, validate = payload
    circuit = load_benchmark(case.workload)
    config = CompilerConfig(
        routing_paths=case.routing_paths,
        num_factories=case.num_factories,
        strategy=strategy,
    )
    result = FaultTolerantCompiler(config).compile(circuit)
    if validate:
        from ..verify import raise_if_invalid, validate_result

        raise_if_invalid(
            validate_result(result, circuit, config, label=f"{case.key}/{strategy}")
        )
    return _row(result)


def run_bench(
    fast: bool = False,
    workloads: Optional[List[str]] = None,
    progress=None,
    jobs: int = 1,
    validate: bool = False,
) -> BenchReport:
    """Compile every (case, strategy) row of the matrix once.

    Args:
        fast: use the smoke matrix instead of the full fig9/fig11 suite.
        workloads: optional workload-name filter.
        progress: optional callable invoked with a line per finished row.
        jobs: worker processes; the rows are identical for any value.
        validate: replay-validate every row's schedule; raises
            :class:`~repro.verify.ValidationError` on the first violation.
    """
    report = BenchReport(
        meta={
            "version": __version__,
            "mode": "fast" if fast else "full",
            "strategies": list(STRATEGY_NAMES),
        }
    )
    payloads = [
        (case, strategy, validate)
        for case in bench_cases(fast, workloads)
        for strategy in STRATEGY_NAMES
    ]
    pool = None
    if jobs > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads) or 1))
        rows = pool.map(_run_row, payloads)
    else:
        rows = map(_run_row, payloads)
    try:
        for (case, strategy, _), row in zip(payloads, rows):
            report.cases.setdefault(case.key, {})[strategy] = row
            if progress is not None:
                progress(
                    f"{case.key}/{strategy}: "
                    f"makespan={row['makespan']} quality={row['quality']:.3f}"
                )
    finally:
        if pool is not None:
            pool.shutdown()
    return report


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
    shared = drifts = regressions = 0
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
    if shared and not drifts:
        lines.append("behaviour: identical to baseline")
    if shared and not regressions:
        lines.append("quality: no regressions vs baseline")
    return lines, errors
