"""The repository benchmark: seeded workloads over the compiler stack.

Run it from the repository root::

    python3 perfbench/run.py --workload compile-matrix --seed 1 --seconds 15 --trace 0

``BENCHMARK.json`` at the root names the workloads and metrics; see
:mod:`perfbench.run` for the command-line contract and the output shape.
"""
