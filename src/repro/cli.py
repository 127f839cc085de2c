"""Command-line interface.

Usage::

    python -m repro compile program.qasm --routing-paths 4 --factories 1
    python -m repro benchmark ising_2d_4x4 -r 3 -r 6
    python -m repro experiment fig9 --fast --jobs 4
    python -m repro experiment all --fast
    python -m repro serve --jobs 4 --cache-dir ~/.cache/repro/sweep
    python -m repro fuzz --seed 0 --iterations 200 --jobs 4
    python -m repro chaos --seed 0 --scenarios 200
    python -m repro bench --fast --baseline BENCH.json --output -
    python -m repro list

The CLI is intentionally thin: it parses arguments, calls the library and
prints the same text tables the experiment harness produces.  Experiment
sweeps run through the :mod:`repro.sweep` engine: compile points shared
across figures are deduped, misses fan out over ``--jobs`` processes, and
results persist in a content-addressed cache (``--cache-dir``, disabled by
``--no-cache``) so re-running a figure after a no-op change is near
instant.  ``repro serve`` keeps the same engine alive as a long-lived TCP
compile service (see :mod:`repro.service`).  ``repro bench`` is the one
benchmark harness: it gates fingerprints and schedule quality against the
committed ``BENCH.json`` (see :mod:`repro.perf.bench`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .compiler.config import CompilerConfig
from .compiler.pipeline import FaultTolerantCompiler
from .experiments import ALL_EXPERIMENTS, collect_jobs
from .ir import qasm
from .ir.passes import optimize
from .metrics.report import Table
from .perf import BENCH_FILENAME
from .gateway import DEFAULT_GATEWAY_PORT as GATEWAY_DEFAULT_PORT
from .service import DEFAULT_MAX_PENDING, CachePeerThread, ServiceThread
from .service import DEFAULT_CACHE_PORT as CACHE_DEFAULT_PORT
from .service import DEFAULT_PORT as SERVICE_DEFAULT_PORT
from .service.endpoint import serve_forever
from .sweep import CompileCache, SweepEngine, use_engine
from .verify import ValidationError
from .workloads import benchmark_names, load_benchmark


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Early-FTQC lattice-surgery compiler (CGO 2026 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser("compile", help="compile an OpenQASM 2 file")
    compile_cmd.add_argument("qasm_file")
    compile_cmd.add_argument("--routing-paths", "-r", type=int, default=4)
    compile_cmd.add_argument("--factories", "-f", type=int, default=1)
    compile_cmd.add_argument("--unit-cost", action="store_true",
                             help="also compute the unit-cost time")
    compile_cmd.add_argument("--optimize", action="store_true",
                             help="run the front-end cleanup passes first")
    compile_cmd.add_argument("--validate", action="store_true",
                             help="replay-validate the compiled schedule "
                                  "(exit 1 on any violation)")

    bench_cmd = sub.add_parser("benchmark", help="compile a named benchmark")
    bench_cmd.add_argument("name", help="e.g. ising_2d_4x4 (see `repro list`)")
    bench_cmd.add_argument("--routing-paths", "-r", type=int, action="append",
                           help="repeatable; default sweeps 3,4,6")
    bench_cmd.add_argument("--factories", "-f", type=int, default=1)

    exp_cmd = sub.add_parser("experiment", help="regenerate a paper figure")
    exp_cmd.add_argument("figure", choices=sorted(ALL_EXPERIMENTS) + ["all"],
                        help="a figure/table id, or 'all' for the whole suite")
    exp_cmd.add_argument("--fast", action="store_true",
                         help="4x4 lattices instead of the paper's 10x10")
    exp_cmd.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes for the compile sweep")
    exp_cmd.add_argument("--cache-dir", default=None,
                         help="persistent result cache root "
                              "(default $REPRO_CACHE_DIR or ~/.cache/repro/sweep)")
    exp_cmd.add_argument("--no-cache", action="store_true",
                         help="skip the persistent cache entirely")
    exp_cmd.add_argument("--remote-cache", metavar="HOST[:PORT]", default=None,
                         help="warm misses from a `repro cache-serve` peer "
                              "(hits are replay-validated; a peer outage "
                              "degrades to a miss)")
    exp_cmd.add_argument("--validate", action="store_true",
                         help="replay-validate every compiled (or cached) "
                              "schedule; exit 1 on any violation")

    bench_perf = sub.add_parser(
        "bench",
        help="compile every (case, strategy) row of the workload matrix and "
             "gate fingerprints and schedule quality against a baseline",
    )
    bench_perf.add_argument("--fast", action="store_true",
                            help="smoke matrix (seconds) instead of the full suite")
    bench_perf.add_argument("--workload", action="append", dest="workloads",
                            help="repeatable workload-name filter")
    bench_perf.add_argument("--jobs", "-j", type=int, default=1,
                            help="worker processes (rows stay identical)")
    bench_perf.add_argument("--output", "-o", default=None,
                            help=f"output JSON path (default {BENCH_FILENAME}; '-' to skip)")
    bench_perf.add_argument("--baseline", default=None,
                            help="gate against a previous report (exit 1 on "
                                 "default-row fingerprint drift, any quality "
                                 "regression, or no shared row)")
    bench_perf.add_argument("--validate", action="store_true",
                            help="replay-validate every row's schedule")

    serve_cmd = sub.add_parser(
        "serve", help="run the TCP compile service (JSON lines, see repro.service)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=SERVICE_DEFAULT_PORT,
                           help=f"TCP port (default {SERVICE_DEFAULT_PORT}; 0 = ephemeral)")
    serve_cmd.add_argument("--jobs", "-j", type=int, default=1,
                           help="worker processes in the persistent compile pool")
    serve_cmd.add_argument("--cache-dir", default=None,
                           help="persistent result cache root "
                                "(default $REPRO_CACHE_DIR or ~/.cache/repro/sweep)")
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="serve without a persistent cache (memo only)")
    serve_cmd.add_argument("--remote-cache", metavar="HOST[:PORT]", default=None,
                           help="share results with a `repro cache-serve` peer "
                                "(the tier below the disk cache; hits are "
                                "replay-validated on ingest)")
    serve_cmd.add_argument("--validate", action="store_true",
                           help="replay-validate every response before sending "
                                "(failures become structured client errors)")
    serve_cmd.add_argument("--max-pending", type=int, default=DEFAULT_MAX_PENDING,
                           help="bound on distinct in-flight compilations; "
                                "beyond it requests are shed with the "
                                "'overloaded' error code")
    serve_cmd.add_argument("--queue-wait", type=float, default=0.0,
                           help="seconds a request may wait for a compile "
                                "slot before being shed (default 0: shed "
                                "immediately)")
    serve_cmd.add_argument("--request-timeout", type=float, default=None,
                           help="server-side bound on any single request, "
                                "admission to response (seconds; expiry "
                                "answers with the 'timeout' error code)")
    serve_cmd.add_argument("--job-deadline", type=float, default=None,
                           help="per-attempt compile deadline; a worker "
                                "grinding past it is killed and the job "
                                "retried (seconds)")
    serve_cmd.add_argument("--job-attempts", type=int, default=3,
                           help="attempts per job before it fails with "
                                "'compile-failed'/'timeout' (worker crashes "
                                "and deadline kills burn attempts)")

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="fuzz the compiler against the differential conformance oracles",
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="scenario-stream seed (same seed = identical "
                               "scenarios and verdicts)")
    fuzz_cmd.add_argument("--iterations", "-n", type=int, default=200,
                          help="scenarios to generate and check")
    fuzz_cmd.add_argument("--jobs", "-j", type=int, default=1,
                          help="worker processes for the compile prefetch "
                               "(also the jobs-N leg of the determinism oracle)")
    fuzz_cmd.add_argument("--minimize", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="shrink failing scenarios and write "
                               "self-contained JSON repros")
    fuzz_cmd.add_argument("--artifact-dir", default="fuzz-repros",
                          help="where repro artifacts are written "
                               "(default ./fuzz-repros)")
    fuzz_cmd.add_argument("--mutate", action="store_true",
                          help="mutation self-test mode: inject every "
                               "repro.verify corruption class into "
                               "fuzz-generated schedules and require each "
                               "to be caught")
    fuzz_cmd.add_argument("--replay", metavar="ARTIFACT", default=None,
                          help="re-run the oracle bundle on a saved repro "
                               "artifact instead of fuzzing")

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign against a live service",
    )
    chaos_cmd.add_argument("--seed", type=int, default=0,
                           help="campaign seed (same seed = identical fault "
                                "scenarios)")
    chaos_cmd.add_argument("--scenarios", "-n", type=int, default=200,
                           help="fault episodes to run")
    chaos_cmd.add_argument("--jobs", "-j", type=int, default=2,
                           help="worker processes in the service under chaos")
    chaos_cmd.add_argument("--baseline", default=BENCH_FILENAME,
                           help="fingerprint baseline for the post-chaos "
                                f"check (default {BENCH_FILENAME}; '-' to "
                                "skip; a missing file fails the campaign)")

    cserve_cmd = sub.add_parser(
        "cache-serve",
        help="run a shared result-cache peer a fleet of engines warms from",
    )
    cserve_cmd.add_argument("--host", default="127.0.0.1",
                            help="bind address (default 127.0.0.1)")
    cserve_cmd.add_argument("--port", type=int, default=CACHE_DEFAULT_PORT,
                            help=f"TCP port (default {CACHE_DEFAULT_PORT}; "
                                 "0 = ephemeral)")
    cserve_cmd.add_argument("--cache-dir", default=None,
                            help="backing store root (default $REPRO_CACHE_DIR "
                                 "or ~/.cache/repro/sweep)")
    cserve_cmd.add_argument("--size-budget", type=int, default=None,
                            help="soft byte bound on the store; exceeding it "
                                 "evicts least-recently-used entries")
    cserve_cmd.add_argument("--quarantine-cap", type=int, default=None,
                            help="bound on quarantined entries kept for "
                                 "post-mortems (default 64)")

    gateway_cmd = sub.add_parser(
        "gateway",
        help="run the multi-tenant HTTP/WebSocket gateway over N compile shards",
    )
    gateway_cmd.add_argument("--host", default="127.0.0.1",
                             help="bind address (default 127.0.0.1)")
    gateway_cmd.add_argument("--port", type=int, default=GATEWAY_DEFAULT_PORT,
                             help=f"TCP port (default {GATEWAY_DEFAULT_PORT}; "
                                  "0 = ephemeral)")
    gateway_cmd.add_argument("--shards", type=int, default=2,
                             help="backend compile services to shard jobs "
                                  "across (all share one cache peer)")
    gateway_cmd.add_argument("--jobs", "-j", type=int, default=1,
                             help="worker processes per backend shard")
    gateway_cmd.add_argument("--keys", default=None,
                             help="API key file (one 'tenant:key' per line); "
                                  "omit to run open as the anonymous tenant")
    gateway_cmd.add_argument("--rate", type=float, default=None,
                             help="per-tenant token-bucket refill rate in "
                                  "requests/second (default: no rate limit)")
    gateway_cmd.add_argument("--burst", type=float, default=None,
                             help="token-bucket depth (default max(1, rate))")
    gateway_cmd.add_argument("--max-pending", type=int, default=64,
                             help="bound on concurrently dispatched jobs; "
                                  "beyond it new submissions are shed with "
                                  "the 'overloaded' error code")
    gateway_cmd.add_argument("--cache-dir", default=None,
                             help="root for all fleet state: per-shard disk "
                                  "caches, the shared peer cache and the "
                                  "SQLite job store (default: a fresh temp "
                                  "dir; reuse a path to survive restarts)")
    gateway_cmd.add_argument("--validate", action="store_true",
                             help="replay-validate every backend response")

    sub.add_parser("list", help="list available benchmarks and experiments")
    return parser


def _cmd_compile(args) -> int:
    circuit = qasm.load_file(args.qasm_file)
    if args.optimize:
        before = len(circuit)
        circuit = optimize(circuit)
        print(f"optimised: {before} -> {len(circuit)} gates")
    config = CompilerConfig(
        routing_paths=args.routing_paths,
        num_factories=args.factories,
        compute_unit_cost_time=args.unit_cost,
    )
    try:
        result = FaultTolerantCompiler(config).compile(circuit, validate=args.validate)
    except ValidationError as exc:
        print(exc.report.summary())
        return 1
    print(result.summary())
    if args.validate:
        print("schedule validity   : OK (replay-validated)")
    return 0


def _cmd_benchmark(args) -> int:
    circuit = load_benchmark(args.name)
    sweep = args.routing_paths or [3, 4, 6]
    table = Table(
        title=f"{args.name} ({args.factories} factories)",
        columns=["r", "qubits", "time_d", "x_bound", "spacetime", "moves"],
    )
    for r in sweep:
        config = CompilerConfig(routing_paths=r, num_factories=args.factories)
        result = FaultTolerantCompiler(config).compile(circuit)
        table.add_row(
            r=r,
            qubits=result.total_qubits,
            time_d=result.execution_time,
            x_bound=result.time_vs_lower_bound,
            spacetime=result.spacetime_volume(True),
            moves=result.schedule.num_moves,
        )
    print(table.to_text())
    return 0


def _print_tables(result) -> None:
    tables = result if isinstance(result, (list, tuple)) else [result]
    for table in tables:
        print(table.to_text())


def _make_remote(spec: Optional[str]):
    """A :class:`RemoteCache` for a ``--remote-cache`` spec (None passthrough)."""
    if spec is None:
        return None
    from .service import RemoteCache, parse_peer

    return RemoteCache(*parse_peer(spec))


def _cmd_experiment(args) -> int:
    cache = None if args.no_cache else CompileCache(args.cache_dir)
    try:
        remote = _make_remote(args.remote_cache)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    engine = SweepEngine(
        jobs=args.jobs, cache=cache, remote=remote, validate=args.validate
    )
    names = sorted(ALL_EXPERIMENTS) if args.figure == "all" else [args.figure]
    try:
        with use_engine(engine):
            engine.prefetch(collect_jobs(names, args.fast), progress=print)
            for name in names:
                if len(names) > 1:
                    print(f"=== {name} ===")
                _print_tables(ALL_EXPERIMENTS[name](args.fast))
                if len(names) > 1:
                    print()
    except ValidationError as exc:
        print(exc.report.summary())
        print("error: schedule failed replay validation")
        return 1
    finally:
        engine.shutdown()
    print(f"[sweep] {engine.counters.describe()}")
    if args.validate:
        print(f"[verify] {len(engine.validated_keys)} schedule(s) replay-validated, 0 violations")
    return 0


def _load_baseline(path: str):
    """A report dict from ``path``, or None after printing why not."""
    import json

    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline {path}: {exc}")
        return None
    if not isinstance(report, dict):
        print(f"error: baseline {path} is not a JSON object")
        return None
    return report


def _cmd_bench(args) -> int:
    from .perf import bench_cases, compare_reports, run_bench

    if not bench_cases(args.fast, args.workloads):
        known = sorted({c.workload for c in bench_cases(args.fast)})
        print(f"error: no benchmark cases match --workload {args.workloads}")
        print(f"workloads in this matrix: {', '.join(known)}")
        return 2
    baseline = None
    if args.baseline:
        # read before the run so --output may overwrite the baseline file
        baseline = _load_baseline(args.baseline)
        if baseline is None:
            return 2
    try:
        report = run_bench(
            fast=args.fast,
            workloads=args.workloads,
            progress=print,
            jobs=args.jobs,
            validate=args.validate,
        )
    except ValidationError as exc:
        print(exc.report.summary())
        print("error: schedule failed replay validation")
        return 1
    print()
    print(report.to_text())
    if args.validate:
        rows = sum(len(per_strategy) for per_strategy in report.cases.values())
        print(f"[verify] {rows} schedule(s) replay-validated, 0 violations")
    output = args.output if args.output is not None else BENCH_FILENAME
    if output != "-":
        report.write(output)
        print(f"wrote {output}")
    if baseline is None:
        return 0
    print()
    lines, errors = compare_reports(baseline, report.as_dict())
    for line in lines:
        print(line)
    for line in errors:
        print(f"error: {line}")
    if errors:
        print(f"error: gate failed vs {args.baseline}")
        return 1
    return 0


def _cmd_serve(args) -> int:
    cache = None if args.no_cache else CompileCache(args.cache_dir)
    try:
        remote = _make_remote(args.remote_cache)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    thread = ServiceThread(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache=cache,
        remote=remote,
        validate=args.validate,
        max_pending=args.max_pending,
        queue_wait=args.queue_wait,
        request_timeout=args.request_timeout,
        job_deadline=args.job_deadline,
        job_attempts=args.job_attempts,
    )

    def announce() -> None:
        host, port = thread.address
        cache_note = (
            f"cache {cache.root}" if cache is not None else "no persistent cache"
        )
        remote_note = (
            f", remote peer {remote.host}:{remote.port}"
            if remote is not None
            else ""
        )
        print(
            f"repro compile service on {host}:{port} "
            f"({thread.service.engine.jobs} worker(s), {cache_note}{remote_note}"
            f"{', replay-validating' if args.validate else ''})"
        )

    return serve_forever(thread, announce)


def _cmd_chaos(args) -> int:
    from .faultinject import run_chaos

    report = run_chaos(
        seed=args.seed,
        scenarios=args.scenarios,
        jobs=args.jobs,
        bench_baseline=args.baseline,
        progress=print,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from .fuzz import replay_artifact, run_fuzz, run_mutation_fuzz

    if args.replay is not None:
        failures = replay_artifact(args.replay)
        if failures:
            print(f"{args.replay}: still failing")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"{args.replay}: green (every oracle passes)")
        return 0
    if args.mutate:
        mutation = run_mutation_fuzz(args.seed, args.iterations, progress=print)
        print(mutation.summary())
        return 0 if mutation.ok else 1
    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        jobs=args.jobs,
        minimize=args.minimize,
        artifact_dir=args.artifact_dir,
        progress=print,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_cache_serve(args) -> int:
    from .sweep.cache import DEFAULT_QUARANTINE_CAP

    cache = CompileCache(
        args.cache_dir,
        size_budget=args.size_budget,
        quarantine_cap=(
            args.quarantine_cap
            if args.quarantine_cap is not None
            else DEFAULT_QUARANTINE_CAP
        ),
    )
    thread = CachePeerThread(host=args.host, port=args.port, cache=cache)

    def announce() -> None:
        host, port = thread.address
        budget = cache.size_budget
        budget_note = f", budget {budget} bytes" if budget is not None else ""
        print(
            f"repro cache peer on {host}:{port} "
            f"(store {cache.root}{budget_note})"
        )

    return serve_forever(thread, announce)


def _cmd_gateway(args) -> int:
    from .gateway import GatewayCluster, Keyring

    keyring = None
    if args.keys:
        try:
            keyring = Keyring.load(args.keys)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load key file: {exc}")
            return 2
    cluster = GatewayCluster(
        shards=args.shards,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        validate=args.validate,
        keyring=keyring,
        rate=args.rate,
        burst=args.burst,
        max_pending=args.max_pending,
        host=args.host,
        port=args.port,
    )

    def announce() -> None:
        host, port = cluster.address
        print(
            f"gateway listening on http://{host}:{port} "
            f"({args.shards} shard(s) x {args.jobs} worker(s), "
            f"{'open access' if keyring is None else f'{len(keyring)} API key(s)'}, "
            f"rate {'off' if args.rate is None else f'{args.rate}/s'})"
        )
        print(f"fleet state under {cluster.cache_dir}")
        print("endpoints: POST /v1/jobs, GET /v1/jobs/<id>, GET /v1/ws, "
              "GET /v1/stats, GET /v1/ping")

    return serve_forever(cluster, announce)


def _cmd_list() -> int:
    print("benchmarks:")
    for name in benchmark_names():
        print(f"  {name}")
    print("experiments:")
    for name in sorted(ALL_EXPERIMENTS):
        print(f"  {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "benchmark":
        return _cmd_benchmark(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "cache-serve":
        return _cmd_cache_serve(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "list":
        return _cmd_list()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
