"""gateway-mixed: a closed loop of warm resubmissions and fresh programs.

Two client connections from this process drive an in-process
``GatewayCluster(shards=1, jobs=1)`` with no rate limit.  Nine requests in
ten resubmit a working-set point pre-warmed during preparation (HTTP, key
resolution and a job-store read); one in ten submits a fresh seeded QAOA
program as QASM and polls every 5 ms until it is done (job-store writes,
shard dispatch, broker, pool IPC and the disk and remote fills).  The 90/10
mix is an assumption: no production traces exist.

A pass is 100 completed requests.  Latency runs from submit to the
terminal status the client sees.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.gateway import GatewayCluster
from repro.gateway.client import GatewayClient, GatewayError
from repro.ir import qasm
from repro.metrics import geometric_mean, overhead_factor
from repro.service import Client
from repro.sweep import CompileCache
from repro.sweep.jobs import job_key
from repro.verify import validate_result
from repro.workloads import load_benchmark

from . import calibrate, inputs
from .harness import NULL_TRACER, Outcome, timed_setups
from .host import StateRoot, peak_rss_mb, percentile
from .layers import LayerCounters, entry_bytes, per_layer_report
from .tracing import Tracer, install_probes

CLIENTS = 2
PASS_REQUESTS = 100
POLL_S = 0.005
#: upper bound on the request rate, used to size the pre-generated sequence.
MAX_RATE = 400
REQUEST_TIMEOUT_S = 60.0
#: calibration kernel runs at each pass boundary.
CALIBRATION_SAMPLES = 16
#: peak RSS is read when this many requests have completed, so it does not
#: grow with the run's throughput.
RSS_AT_REQUESTS = 500


class _Record:
    __slots__ = ("request", "latency", "done_at", "status", "key", "result", "polls", "client_cpu")

    def __init__(self, request: inputs.Request) -> None:
        self.request = request
        self.latency = 0.0
        self.done_at = 0.0
        self.status = "error"
        self.key: Optional[str] = None
        self.result: Optional[dict] = None
        self.polls = 0
        self.client_cpu = 0.0  # CPU the load generator spent on this request


def _submit_and_wait(client: GatewayClient, record: _Record, body: Dict) -> None:
    payload = client.submit(**body)
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    while payload["status"] not in ("done", "failed") and time.monotonic() < deadline:
        time.sleep(POLL_S)
        payload = client.get(payload["id"])
        record.polls += 1
    record.status = payload["status"]
    record.key = payload["id"]
    record.result = payload.get("result")


def _request_body(request: inputs.Request, programs: Dict[int, str]) -> Dict:
    if request.cold:
        return {"qasm_source": programs[request.index]}
    workload, paths, factories = request.warm
    return {"workload": workload, "routing_paths": paths, "num_factories": factories}


class _Load:
    """The closed loop: shared sequence, completions, pass boundaries."""

    def __init__(self, address, requests, programs, seconds, workers, tracer: Optional[Tracer]):
        self.address = address
        self.requests = iter(requests)
        self.programs = programs
        self.seconds = seconds
        self.workers = workers
        self.tracer = tracer
        self.lock = threading.Lock()
        self.records: List[_Record] = []
        self.pass_traced: List[bool] = [False]
        self.boundaries: List[Tuple[float, List[float]]] = []
        self.started = 0.0
        self.errors: List[str] = []
        self.peak_rss_mb = 0.0

    def _boundary(self) -> None:
        """Calibrate, then mark the CPU spent so far (process plus pool worker)."""
        speed = calibrate.samples(CALIBRATION_SAMPLES)
        self.boundaries.append((time.process_time() + _worker_cpu(self.workers), speed))

    def run(self) -> None:
        self._boundary()
        self.started = time.perf_counter()
        threads = [threading.Thread(target=self._client, name=f"perfbench-client-{n}") for n in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.tracer is not None:
            self.tracer.uninstall()

    def _next(self) -> Optional[inputs.Request]:
        with self.lock:
            if time.perf_counter() - self.started >= self.seconds:
                return None
            return next(self.requests, None)

    def _client(self) -> None:
        with GatewayClient(*self.address, timeout=REQUEST_TIMEOUT_S, poll_interval=POLL_S) as client:
            while True:
                request = self._next()
                if request is None:
                    return
                record = _Record(request)
                tracer = self.tracer if self.tracer is not None and self.tracer.installed else NULL_TRACER
                started = time.perf_counter()
                cpu_started = time.thread_time()
                try:
                    with tracer.span("bench.op") as span:
                        _submit_and_wait(client, record, _request_body(request, self.programs))
                except (GatewayError, ConnectionError, OSError, ValueError) as exc:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                if span is not None:
                    span.trace = record.key
                record.done_at = time.perf_counter()
                record.latency = record.done_at - started
                record.client_cpu = time.thread_time() - cpu_started
                if self._complete(record):
                    self._boundary()

    def _complete(self, record: _Record) -> bool:
        """Count one request; True when it closes a pass."""
        with self.lock:
            self.records.append(record)
            if len(self.records) == RSS_AT_REQUESTS:
                self.peak_rss_mb = peak_rss_mb()
            if len(self.records) % PASS_REQUESTS:
                return False
            # alternate tracing on and off between passes
            traced = self.tracer is not None and len(self.pass_traced) % 2 == 1
            self.pass_traced.append(traced)
            if traced and not self.tracer.installed:
                install_probes(self.tracer)
            elif not traced and self.tracer is not None and self.tracer.installed:
                self.tracer.uninstall()
            return True

    def passes(self):
        """``(wall, cpu at reference speed, traced, records)`` of every complete pass."""
        out = []
        previous = self.started
        count = min(len(self.records) // PASS_REQUESTS, len(self.boundaries) - 1)
        for number in range(count):
            block = self.records[number * PASS_REQUESTS:(number + 1) * PASS_REQUESTS]
            (cpu_start, speed_start), (cpu_end, speed_end) = self.boundaries[number:number + 2]
            # the system's CPU: everything but the calibration and the clients
            spent = cpu_end - cpu_start - sum(speed_end) - sum(r.client_cpu for r in block)
            cpu = spent * calibrate.scale(speed_start + speed_end)
            out.append((block[-1].done_at - previous, cpu, self.pass_traced[number], block))
            previous = block[-1].done_at
        return out


def run_gateway(seed: int, seconds: float, trace: bool, state: StateRoot) -> Outcome:
    outcome = Outcome()

    def bring_up(index: int) -> GatewayCluster:
        cluster = GatewayCluster(shards=1, jobs=1, cache_dir=str(state.sub(f"gateway-{index}")))
        cluster.start()
        with GatewayClient(*cluster.address) as client:
            client.ping()
        return cluster

    def tear_down(cluster: GatewayCluster) -> None:
        cluster.stop()
        state.remove(cluster.cache_dir.name)

    setup_s, cluster = timed_setups(bring_up, tear_down)
    outcome.end_to_end["setup_s"] = setup_s
    try:
        return _measure(cluster, seed, seconds, trace, outcome)
    finally:
        cluster.stop()


def _measure(cluster: GatewayCluster, seed, seconds, trace, outcome: Outcome) -> Outcome:
    # -- preparation (untimed) -----------------------------------------------------
    reference = {}
    for case in inputs.WORKING_SET:
        workload, paths, factories = case
        circuit = load_benchmark(workload)
        config = CompilerConfig(routing_paths=paths, num_factories=factories)
        result = FaultTolerantCompiler(config).compile(circuit)
        outcome.attempted += 1
        if not validate_result(result, circuit, config, label=inputs.case_key(case)).ok:
            outcome.failed += 1
        reference[case] = (job_key(circuit, config), result.fingerprint())
    requests = []
    programs: Dict[int, str] = {}
    for request in inputs.gateway_sequence(seed):
        if len(requests) >= int(seconds * MAX_RATE) + PASS_REQUESTS:
            break
        requests.append(request)
        if request.cold:
            programs[request.index] = inputs.qaoa_program(request.qaoa_seed)
    with GatewayClient(*cluster.address, poll_interval=POLL_S) as client:
        for case in inputs.WORKING_SET:
            record = _Record(inputs.Request(-1, warm=case))
            _submit_and_wait(client, record, _request_body(record.request, programs))
            outcome.attempted += 1
            fingerprint = (record.result or {}).get("fingerprint")
            if record.status != "done" or (record.key, fingerprint) != reference[case]:
                outcome.failed += 1
    before = _stats(cluster)

    # -- the closed loop -------------------------------------------------------------
    tracer = Tracer() if trace else None
    workers = cluster.backends[0].service.engine.pool().worker_pids()
    load = _Load(cluster.address, requests, programs, seconds, workers, tracer)
    load.run()
    after = _stats(cluster)
    shard_dir = cluster.cache_dir / "shard-0"
    cluster.stop()

    # -- correctness, outside the timed region ------------------------------------
    shard = CompileCache(shard_dir)
    cold_results = []
    served = {}
    for record in load.records:
        outcome.attempted += 1
        request = record.request
        if record.status != "done" or record.result is None:
            outcome.failed += 1
            continue
        fingerprint = record.result["fingerprint"]
        if request.cold:
            circuit = qasm.loads(programs[request.index])
            config = CompilerConfig()
            stored = shard.get_result(record.key)
            if (
                record.key != job_key(circuit, config)
                or stored is None
                or stored.fingerprint() != fingerprint
                or not validate_result(stored, circuit, config, label=record.key).ok
            ):
                outcome.failed += 1
            cold_results.append(fingerprint)
        else:
            if (record.key, fingerprint) != reference[request.warm]:
                outcome.failed += 1
            served[request.warm] = record.result["summary"]
    outcome.notes["errors"] = load.errors[:5]

    passes = load.passes()
    untraced = [p for p in passes if not p[2]]
    outcome.end_to_end.update(
        {
            # a mean, not a median: passes differ in work (each draws its
            # own fresh programs and warm keys), which only the whole run
            # averages out
            "pass_cpu_s": statistics.fmean(p[1] for p in untraced),
            "overhead_geomean": geometric_mean(
                [overhead_factor(s["execution_time"], s["lower_bound"]) for s in served.values()]
            ),
            "peak_rss_mb": load.peak_rss_mb or peak_rss_mb(),
        }
    )
    latencies = _latencies(untraced)
    outcome.notes.update(
        {
            "passes": len(passes),
            "requests": len(load.records),
            **latencies,
            "pass_cpu_s": [round(p[1], 4) for p in untraced],
            "pass_wall_s": [round(p[0], 4) for p in untraced],
        }
    )
    if trace:
        outcome.per_layer = _layers(load, passes, before, after, cold_results, shard_dir, tracer)
        outcome.per_layer.update(latencies)
        outcome.notes["tracer"] = tracer
    return outcome


def _latencies(passes) -> Dict[str, float]:
    """Client-observed latency and rate over the given passes (wall clock)."""
    warm = [r.latency for p in passes for r in p[3] if not r.request.cold]
    cold = [r.latency for p in passes for r in p[3] if r.request.cold]
    return {
        "gateway.req_per_s": PASS_REQUESTS / statistics.median(p[0] for p in passes),
        "gateway.warm_p50_ms": percentile(warm, 0.5) * 1000.0,
        "gateway.warm_p99_ms": percentile(warm, 0.99) * 1000.0,
        "gateway.cold_p50_ms": percentile(cold, 0.5) * 1000.0,
        "gateway.cold_p90_ms": percentile(cold, 0.9) * 1000.0,
    }


def _worker_cpu(pids) -> float:
    """CPU seconds the pool worker processes have run (/proc schedstat, ns)."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/schedstat") as handle:
            total += int(handle.read().split()[0]) / 1e9
    return total


def _stats(cluster: GatewayCluster):
    """``(backend service stats, gateway /v1/stats)`` right now."""
    with Client(*cluster.backends[0].address) as backend, GatewayClient(*cluster.address) as gateway:
        return backend.stats(), gateway.stats()


def _layers(load: _Load, passes, before, after, cold_results, shard_dir, tracer) -> Dict[str, float]:
    counters = LayerCounters()
    (service_before, gateway_before), (service_after, gateway_after) = before, after
    counters.add_tiers(service_after["cache_tiers"])
    counters.add_tiers(service_before["cache_tiers"], sign=-1)
    pool_before = service_before.get("pool") or {}
    pool_after = service_after.get("pool") or {}
    counters.add("pool.jobs", pool_after.get("submitted", 0) - pool_before.get("submitted", 0))
    counters.add("pool.restarts", pool_after.get("restarts", 0) - pool_before.get("restarts", 0))
    counters.add("pool.retries", pool_after.get("retries", 0) - pool_before.get("retries", 0))
    for name in ("compiled", "coalesced", "overloaded"):
        counters.add(f"service.{name}", service_after["compile"][name] - service_before["compile"][name])
    counters.values["service.compile_p50_ms"] = (
        service_after["endpoints"].get("compile", {}).get("p50_ms") or 0.0
    )
    counters.add("gateway.requests", gateway_after["gateway"]["requests"] - gateway_before["gateway"]["requests"])
    tenant_before = gateway_before["gateway"]["tenants"].get("anonymous", {})
    tenant_after = gateway_after["gateway"]["tenants"].get("anonymous", {})
    counters.add("gateway.warm_hits", tenant_after.get("warm_hits", 0) - tenant_before.get("warm_hits", 0))
    counters.add_results(cold_results)
    cold = [r for r in load.records if r.request.cold]
    counters.values["gateway.polls_per_cold_job"] = (
        sum(r.polls for r in cold) / len(cold) if cold else 0.0
    )
    counters.values["codec.entry_bytes"] = entry_bytes(shard_dir)

    traced = [p for p in passes if p[2]]
    untraced = [p for p in passes if not p[2]]
    op_spans = [span for span in tracer.spans if span.name == "bench.op"]
    handled = sum(span.duration for span in tracer.spans if span.name == "gateway.request")
    client_wall = sum(span.duration for span in op_spans)
    return per_layer_report(
        counters,
        passes=len(load.records) / PASS_REQUESTS,
        tracer=tracer,
        traced_passes=len(traced),
        traced_ops=len(op_spans),
        traced_walls=[p[0] for p in traced],
        untraced_walls=[p[0] for p in untraced],
        # share of the client-observed time the gateway's handler accounts for
        coverage=handled / client_wall if client_wall else 0.0,
    )
