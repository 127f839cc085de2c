"""Compiler benchmarking: one harness and one committed baseline.

* :mod:`~repro.perf.bench` (``repro bench``) compiles every (case,
  strategy) row of the workload matrix and gates on the behavioural
  fingerprint of the ``default`` rows and on one-sided schedule quality
  of every row — ``BENCH.json``;
* :mod:`~repro.perf.profiler` is the per-phase attribution layer the
  compile pipeline carries; ``perfbench/`` reads it in its traced pass.

``repro bench`` times nothing.  Timing (compile passes, cache tiers,
service, gateway) lives in ``perfbench/``, and ``scripts/ab.py`` compares
it between two revisions.

Exports resolve lazily (PEP 562): the profiler's seams live inside the
hot compile modules (routing, scheduling, verify), so importing
``repro.perf.profiler`` from them must not drag the bench harness — and
with it the whole compiler package — back in through this ``__init__``.
"""

_BENCH_EXPORTS = {
    "BENCH_FILENAME",
    "QUALITY_RTOL",
    "BenchCase",
    "BenchReport",
    "bench_cases",
    "compare_reports",
    "run_bench",
}

__all__ = sorted(_BENCH_EXPORTS)


def __getattr__(name):
    if name in _BENCH_EXPORTS:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
