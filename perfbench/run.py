"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``compile-matrix``, ``sweep-fill``, ``sweep-disk``,
``sweep-remote`` and ``gateway-mixed`` (see ``BENCHMARK.json`` for why
each was chosen).  Inputs are derived from ``--seed`` only.  With
``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics, and writes the spans to
``.perfbench/traces/<workload>.json``.

Standard output carries a host fingerprint line, one line per metric and,
last, one JSON object::

    {"correct": true, "attempted": 80, "failed": 0,
     "metrics": {"pass_cpu_s": {"value": 1.73, "unit": "s"}, ...}}

``pass_cpu_s`` is the CPU time of one pass (every thread of this process
and of the pool worker, the load generator's own excluded), scaled to a
reference host speed by :mod:`perfbench.calibrate`; on an idle host it
is close to the pass wall for the batch workloads.  Wall-clock times and
latencies are reported per layer (``trace.*``, ``gateway.*_ms``).

A run owns one state directory under ``.perfbench/`` and removes it on
exit, failure included; a worker process that outlives the run is
killed and fails the run.  Without ``src/repro`` next to this package the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("compile-matrix", "sweep-fill", "sweep-disk", "sweep-remote", "gateway-mixed")

#: a run that has not finished by now is abandoned (the limit is 180 s).
WATCHDOG_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import host
    from perfbench.layers import END_TO_END, PER_LAYER, UNITS

    signal.signal(signal.SIGTERM, _on_sigterm)
    probe = host.HostProbe()
    state = host.StateRoot()

    def abandon() -> None:
        print(f"perfbench: run exceeded {WATCHDOG_S:.0f}s; abandoned", file=sys.stderr)
        host.reap_children(grace=0.0)
        state.remove()
        os._exit(3)

    watchdog = threading.Timer(WATCHDOG_S, abandon)
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.workload == "gateway-mixed":
            from perfbench.gateway_mixed import run_gateway

            outcome = run_gateway(args.seed, args.seconds, bool(args.trace), state)
        else:
            from perfbench.batch import run_batch

            outcome = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), state)
    finally:
        leftovers = host.reap_children()
        state.remove()
    watchdog.cancel()

    fingerprint = probe.snapshot()
    tracer = outcome.notes.pop("tracer", None)
    if tracer is not None:
        traces = host.OUTPUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.export(
            str(traces / f"{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed, "host": fingerprint,
             "per_layer": outcome.per_layer},
        )
    failed = outcome.failed + leftovers
    names = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"notes: {json.dumps(outcome.notes, sort_keys=True, default=str)}")
    if leftovers:
        print(f"perfbench: {leftovers} worker process(es) outlived the run", file=sys.stderr)
    for name in names:
        print(f"{args.workload} {name} = {values[name]:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
