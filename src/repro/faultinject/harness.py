"""The chaos campaign runner behind ``repro chaos``.

:func:`run_chaos` boots one real :class:`~repro.service.ServiceThread`
(supervised worker pool, crash-safe disk cache, remote cache peer,
replay validation ON) with all three scriptable injectors installed,
then drives ``scenarios`` seeded fault episodes through it sequentially.  After every scenario the
invariant oracles run; any violation is recorded with the scenario's
seed/index so ``repro chaos --seed S --scenarios i+1`` reproduces it.

The harness deliberately talks to the server only through the public
client (plus raw sockets for the connection-abuse modes) — it validates
the system boundary a real client sees, not internal state.
"""

from __future__ import annotations

import json
import random
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..compiler.result import FINGERPRINT_FIELDS
from ..service import (
    CachePeerThread,
    Client,
    RemoteCache,
    RetryPolicy,
    ServiceError,
    ServiceThread,
    protocol,
)
from ..gateway import (
    GATEWAY_ERROR_CODES,
    GatewayClient,
    GatewayError,
    GatewayThread,
)
from ..sweep import CompileCache, job_key
from ..workloads import load_benchmark
from .injectors import (
    ScriptedDiskFaults,
    ScriptedPeerFaults,
    ScriptedWorkerFaults,
)
from .plan import ChaosScenario, plan_scenario

#: per-job compile deadline the campaign server enforces — generous for
#: the tiny chaos workloads (sub-second compiles) yet short enough that
#: the worker-hang scenarios resolve quickly.
JOB_DEADLINE_S = 0.75


@dataclass
class ChaosReport:
    """Verdict of one chaos campaign."""

    seed: int
    scenarios: int
    outcomes: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    faults_fired: Dict[str, int] = field(default_factory=dict)
    server_stats: Optional[dict] = None
    bench_checked: int = 0
    bench_mismatches: List[str] = field(default_factory=list)
    wall: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.bench_mismatches

    def count(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def summary(self) -> str:
        outcome_bits = ", ".join(
            f"{count} {name}" for name, count in sorted(self.outcomes.items())
        )
        fault_bits = ", ".join(
            f"{count} {name}" for name, count in sorted(self.faults_fired.items())
        )
        lines = [
            f"chaos campaign: seed={self.seed} scenarios={self.scenarios} "
            f"wall={self.wall:.1f}s",
            f"  outcomes: {outcome_bits or 'none'}",
            f"  faults injected: {fault_bits or 'none'}",
            f"  post-chaos fingerprint check: {self.bench_checked} case(s), "
            f"{len(self.bench_mismatches)} mismatch(es)",
        ]
        if self.server_stats is not None:
            pool = self.server_stats.get("pool") or {}
            cache = self.server_stats.get("cache") or {}
            lines.append(
                "  server: "
                f"{pool.get('restarts', 0)} worker restart(s), "
                f"{pool.get('retries', 0)} job retry(s), "
                f"{cache.get('quarantined', 0)} quarantined cache entr(ies), "
                f"{cache.get('read_errors', 0)}/{cache.get('store_errors', 0)} "
                "cache read/store error(s)"
            )
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    {v}" for v in self.violations[:20])
        for mismatch in self.bench_mismatches[:10]:
            lines.append(f"  BENCH MISMATCH: {mismatch}")
        lines.append(
            "  verdict: "
            + ("OK — all invariants held" if self.ok else "FAILED")
        )
        return "\n".join(lines)


def run_chaos(
    seed: int = 0,
    scenarios: int = 200,
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    bench_baseline: Optional[str] = "BENCH.json",
    progress=None,
) -> ChaosReport:
    """Run one seeded chaos campaign; see the module docstring.

    Args:
        seed / scenarios: the campaign identity — same seed and count,
            same episodes.
        jobs: worker processes in the battered server.
        cache_dir: on-disk cache root (default: a fresh temp dir, so
            campaigns are independent).
        bench_baseline: path to a ``BENCH.json`` whose ``default`` rows
            the fast matrix is fingerprint-checked against after the
            chaos.  Only '-' or None skips that phase; a missing,
            unreadable or case-disjoint baseline fails the campaign.
        progress: optional callable for per-scenario progress lines.
    """
    report = ChaosReport(seed=seed, scenarios=scenarios)
    started = time.monotonic()
    worker_faults = ScriptedWorkerFaults()
    disk_faults = ScriptedDiskFaults()
    peer_faults = ScriptedPeerFaults()
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    cache = CompileCache(cache_dir, faults=disk_faults)
    peer_dir = tempfile.mkdtemp(prefix="repro-chaos-peer-")
    second_dir = tempfile.mkdtemp(prefix="repro-chaos-shard2-")
    expected: Dict[str, dict] = {}  # job key -> first fingerprint seen

    with CachePeerThread(
        cache=CompileCache(peer_dir),
        faults=peer_faults,
        allow_shutdown=False,
    ) as peer, ServiceThread(
        jobs=jobs,
        cache=cache,
        remote=RemoteCache(*peer.address),
        validate=True,  # every response replay-validated: the strongest
        # possible "never serve a poisoned result" oracle
        max_pending=8,
        queue_wait=0.5,
        request_timeout=60.0,
        job_deadline=JOB_DEADLINE_S,
        job_attempts=3,
        worker_faults=worker_faults,
    ) as thread, ServiceThread(
        # a second, clean shard: the gateway episodes need somewhere to
        # remap to when the battered shard is declared dead
        jobs=1,
        cache=CompileCache(second_dir),
        remote=RemoteCache(*peer.address),
        validate=True,
        allow_shutdown=False,
        job_deadline=JOB_DEADLINE_S,
        job_attempts=3,
    ) as second, GatewayThread(
        backends=[thread.address, second.address],
        retry=RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.2),
        rng=random.Random(seed * 2654435761 + 7),
        health_interval=0.05,
    ) as gateway:
        host, port = thread.address
        engine = thread.service.engine
        for index in range(scenarios):
            scenario = plan_scenario(seed, index)
            if progress is not None and index % 25 == 0:
                progress(
                    f"[chaos] scenario {index}/{scenarios} "
                    f"({len(report.violations)} violation(s) so far)"
                )
            _run_scenario(
                scenario, host, port, cache_dir, engine, gateway,
                worker_faults, disk_faults, peer_faults, expected, report,
            )
            if not _probe_alive(host, port):
                report.violations.append(
                    f"scenario {scenario.describe()}: server stopped "
                    "answering pings — aborting campaign"
                )
                break
            if not _gateway_alive(gateway):
                report.violations.append(
                    f"scenario {scenario.describe()}: gateway stopped "
                    "answering pings — aborting campaign"
                )
                break
        report.faults_fired = {
            "worker": worker_faults.fired,
            "disk-read": disk_faults.read_faults,
            "disk-write": disk_faults.write_faults,
            "truncation": disk_faults.truncations,
            "peer-reset": peer_faults.resets,
            "peer-torn": peer_faults.corruptions,
        }
        _bench_phase(report, host, port, bench_baseline)
        try:
            with Client(host, port, timeout=30.0) as client:
                report.server_stats = client.stats()
        except (ServiceError, OSError) as exc:
            report.violations.append(f"final stats probe failed: {exc}")
    report.wall = time.monotonic() - started
    return report


def _run_scenario(
    scenario: ChaosScenario,
    host: str,
    port: int,
    cache_dir: str,
    engine,
    gateway: GatewayThread,
    worker_faults: ScriptedWorkerFaults,
    disk_faults: ScriptedDiskFaults,
    peer_faults: ScriptedPeerFaults,
    expected: Dict[str, dict],
    report: ChaosReport,
) -> None:
    worker_faults.arm(scenario.worker_script)
    disk_faults.arm(
        fail_reads=scenario.fail_reads,
        fail_writes=scenario.fail_writes,
        truncate_writes=scenario.truncate_writes,
    )
    try:
        if scenario.mode == "gateway-disconnect":
            _gateway_disconnect_mid_poll(gateway, scenario)
            report.count("gateway-disconnect")
            # the abandoned job must still resolve for the next client
            _checked_gateway_compile(scenario, gateway, expected, report)
        elif scenario.mode == "shard-down":
            _shard_down_between_submit_and_poll(
                scenario, gateway, expected, report
            )
        elif scenario.mode == "conn-reset":
            _reset_mid_frame(host, port, scenario)
            report.count("conn-reset")
            # the same job must still be resolvable afterwards
            _checked_compile(scenario, host, port, expected, report)
        elif scenario.mode == "abandon":
            _send_and_abandon(host, port, scenario)
            report.count("abandoned")
            _checked_compile(scenario, host, port, expected, report)
        elif scenario.mode == "truncate-entry":
            _checked_compile(scenario, host, port, expected, report)
            _check_truncation_quarantined(
                scenario, host, port, cache_dir, disk_faults, expected, report
            )
        elif scenario.mode in ("peer-reset", "peer-torn"):
            # warm every tier (including the peer), then purge the local
            # memo + disk entries so the retry must resolve through the
            # remote peer — with its fault budget armed
            _checked_compile(scenario, host, port, expected, report)
            engine.purge(
                expected_fingerprint(scenario.workload, scenario.config)
            )
            peer_faults.arm(
                conn_resets=scenario.peer_resets,
                corrupt_gets=scenario.peer_corrupts,
            )
            report.count(scenario.mode)
            _checked_compile(scenario, host, port, expected, report)
        else:
            _checked_compile(scenario, host, port, expected, report)
    finally:
        worker_faults.disarm()
        disk_faults.disarm()
        peer_faults.disarm()


def _chaos_client(host: str, port: int, scenario: ChaosScenario) -> Client:
    # seeded retry jitter: the campaign's wall-clock profile is stable too
    return Client(
        host,
        port,
        timeout=30.0,
        retry=RetryPolicy(attempts=4, base_delay=0.02, max_delay=0.2),
        rng=random.Random(scenario.index * 2654435761 + 1),
    )


def _checked_compile(
    scenario: ChaosScenario,
    host: str,
    port: int,
    expected: Dict[str, dict],
    report: ChaosReport,
) -> None:
    """One client request + the lost-request and fingerprint oracles."""
    try:
        with _chaos_client(host, port, scenario) as client:
            reply = client.compile(
                workload=scenario.workload, **scenario.config
            )
    except ServiceError as exc:
        # a structured error frame is an acceptable outcome — the request
        # was not lost — as long as the code is from the stable set
        if exc.code in protocol.ERROR_CODES:
            report.count(f"error:{exc.code}")
        else:
            report.violations.append(
                f"scenario {scenario.describe()}: unknown error code "
                f"{exc.code!r}"
            )
        return
    except (OSError, ConnectionError) as exc:
        report.violations.append(
            f"scenario {scenario.describe()}: request lost without a "
            f"structured error ({type(exc).__name__}: {exc})"
        )
        return
    report.count("ok")
    seen = expected.get(reply.key)
    if seen is None:
        expected[reply.key] = reply.fingerprint
    elif seen != reply.fingerprint:
        report.violations.append(
            f"scenario {scenario.describe()}: fingerprint diverged for "
            f"key {reply.key[:12]} — cache poisoned or nondeterminism"
        )


def _reset_mid_frame(host: str, port: int, scenario: ChaosScenario) -> None:
    """Send half a request frame, then hard-reset the connection."""
    frame = protocol.encode_line(
        protocol.compile_request(
            workload=scenario.workload, config=scenario.config
        )
    )
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(frame[: max(1, len(frame) // 2)])
        # SO_LINGER(on, 0): close sends RST instead of FIN — the rudest
        # way a client can vanish mid-frame
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            __import__("struct").pack("ii", 1, 0),
        )


def _send_and_abandon(host: str, port: int, scenario: ChaosScenario) -> None:
    """Send a complete request, then disconnect without reading the reply."""
    frame = protocol.encode_line(
        protocol.compile_request(
            workload=scenario.workload, config=scenario.config
        )
    )
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(frame)


def _checked_gateway_compile(
    scenario: ChaosScenario,
    gateway: GatewayThread,
    expected: Dict[str, dict],
    report: ChaosReport,
) -> None:
    """One gateway request + the same lost-request/fingerprint oracles.

    The job key the gateway hands back is the very key direct service
    requests use, so gateway episodes feed the same ``expected`` map —
    the cross-system parity oracle.
    """
    try:
        with GatewayClient(*gateway.address) as client:
            payload = client.compile(
                timeout=30.0, workload=scenario.workload, **scenario.config
            )
    except GatewayError as exc:
        if exc.code in GATEWAY_ERROR_CODES:
            report.count(f"error:{exc.code}")
        else:
            report.violations.append(
                f"scenario {scenario.describe()}: unknown gateway error "
                f"code {exc.code!r}"
            )
        return
    except (OSError, ConnectionError, TimeoutError) as exc:
        report.violations.append(
            f"scenario {scenario.describe()}: gateway request lost without "
            f"a structured error ({type(exc).__name__}: {exc})"
        )
        return
    if payload["status"] == "failed":
        code = (payload.get("error") or {}).get("code")
        if code in GATEWAY_ERROR_CODES:
            report.count(f"error:{code}")
        else:
            report.violations.append(
                f"scenario {scenario.describe()}: gateway job failed with "
                f"unknown code {code!r}"
            )
        return
    report.count("gateway-ok")
    key = payload["id"]
    fingerprint = payload["result"]["fingerprint"]
    seen = expected.get(key)
    if seen is None:
        expected[key] = fingerprint
    elif seen != fingerprint:
        report.violations.append(
            f"scenario {scenario.describe()}: gateway fingerprint diverged "
            f"for key {key[:12]} — cache poisoned or nondeterminism"
        )


def _gateway_disconnect_mid_poll(
    gateway: GatewayThread, scenario: ChaosScenario
) -> None:
    """Submit over HTTP, start a poll, then EOF without reading the reply."""
    with GatewayClient(*gateway.address) as client:
        payload = client.submit(workload=scenario.workload, **scenario.config)
    key = payload["id"]
    request = (
        f"GET /v1/jobs/{key} HTTP/1.1\r\n"
        f"Host: chaos\r\nConnection: keep-alive\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(gateway.address, timeout=10.0) as sock:
        # half the poll request, then vanish mid-exchange
        sock.sendall(request[: len(request) // 2])


def _shard_down_between_submit_and_poll(
    scenario: ChaosScenario,
    gateway: GatewayThread,
    expected: Dict[str, dict],
    report: ChaosReport,
) -> None:
    """Kill the shard that owns the job after submit, before the poll.

    The contract: the poll must reach a terminal verdict — either the
    router remapped the job to the surviving shard (transparent retry)
    or the job failed with a structured code.  A hang or a torn result
    is a violation.
    """
    key = expected_fingerprint(scenario.workload, scenario.config)
    target = int(key[:16], 16) % 2
    try:
        with GatewayClient(*gateway.address) as client:
            submitted = client.submit(
                workload=scenario.workload, **scenario.config
            )
            gateway.kill_shard(target)
            payload = client.wait(submitted["id"], timeout=30.0)
    except (GatewayError, OSError, ConnectionError, TimeoutError) as exc:
        report.violations.append(
            f"scenario {scenario.describe()}: shard-down poll died "
            f"({type(exc).__name__}: {exc})"
        )
        gateway.revive_shard(target)
        _await_healthy_shards(gateway)
        return
    report.count("shard-down")
    if payload["status"] == "failed":
        code = (payload.get("error") or {}).get("code")
        if code not in GATEWAY_ERROR_CODES:
            report.violations.append(
                f"scenario {scenario.describe()}: shard-down failed with "
                f"unknown code {code!r}"
            )
    else:
        fingerprint = payload["result"]["fingerprint"]
        seen = expected.get(payload["id"])
        if seen is None:
            expected[payload["id"]] = fingerprint
        elif seen != fingerprint:
            report.violations.append(
                f"scenario {scenario.describe()}: shard-down fingerprint "
                f"diverged for key {payload['id'][:12]}"
            )
    gateway.revive_shard(target)
    _await_healthy_shards(gateway)
    # the fleet must be whole again and the key resolvable end-to-end
    _checked_gateway_compile(scenario, gateway, expected, report)


def _await_healthy_shards(
    gateway: GatewayThread, count: int = 2, timeout: float = 10.0
) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with GatewayClient(*gateway.address) as client:
                shards = client.stats()["shards"]
        except (GatewayError, OSError, ConnectionError):
            shards = []
        if sum(1 for shard in shards if shard["healthy"]) >= count:
            return
        time.sleep(0.05)


def _gateway_alive(gateway: GatewayThread) -> bool:
    try:
        with GatewayClient(*gateway.address) as probe:
            return bool(probe.ping().get("ok"))
    except (GatewayError, OSError, ConnectionError):
        return False


def _check_truncation_quarantined(
    scenario: ChaosScenario,
    host: str,
    port: int,
    cache_dir: str,
    disk_faults: ScriptedDiskFaults,
    expected: Dict[str, dict],
    report: ChaosReport,
) -> None:
    """The truncated entry must be quarantined on read, never served."""
    truncated = disk_faults.last_truncated
    if truncated is None or not Path(truncated).is_file():
        return  # warm hit: nothing was stored, nothing was truncated
    key = truncated.name[: -len(".json")]
    # an independent reader over the same directory must refuse the entry
    reader = CompileCache(cache_dir)
    if reader.load(key) is not None:
        report.violations.append(
            f"scenario {scenario.describe()}: truncated cache entry "
            f"{key[:12]} was served instead of quarantined"
        )
        return
    if reader.quarantined != 1:
        report.violations.append(
            f"scenario {scenario.describe()}: truncated cache entry "
            f"{key[:12]} missed but not quarantined"
        )
        return
    report.count("quarantined")
    # and the server still answers for that job (memo or recompile)
    _checked_compile(scenario, host, port, expected, report)


def _probe_alive(host: str, port: int) -> bool:
    try:
        with Client(host, port, timeout=30.0) as probe:
            return bool(probe.ping().get("ok"))
    except (ServiceError, OSError, ConnectionError):
        return False


def _bench_phase(
    report: ChaosReport, host: str, port: int, baseline_path: Optional[str]
) -> None:
    """Compile the fast matrix through the battered server and compare."""
    if baseline_path in (None, "-"):
        return
    path = Path(baseline_path)
    if not path.is_file():
        report.bench_mismatches.append(f"missing baseline {path}")
        return
    try:
        cases = json.loads(path.read_text())["cases"]
        if not isinstance(cases, dict):
            raise ValueError("'cases' is not an object")
    except (ValueError, KeyError, TypeError, OSError) as exc:
        report.bench_mismatches.append(f"unreadable baseline {path}: {exc!r}")
        return
    from ..perf import bench_cases

    wanted = []
    for case in bench_cases(fast=True):
        row = cases.get(case.key)
        want = row.get("default") if isinstance(row, dict) else None
        if isinstance(want, dict):
            wanted.append((case, want))
    if not wanted:
        report.bench_mismatches.append(
            f"baseline {path} has no default row for any fast-matrix case"
        )
        return
    for case, want in wanted:
        try:
            with Client(host, port, timeout=60.0) as client:
                reply = client.compile(
                    workload=case.workload,
                    routing_paths=case.routing_paths,
                    num_factories=case.num_factories,
                )
        except (ServiceError, OSError, ConnectionError) as exc:
            report.bench_mismatches.append(f"{case.key}: request failed: {exc}")
            continue
        report.bench_checked += 1
        for field_name in FINGERPRINT_FIELDS:
            if reply.fingerprint.get(field_name) != want.get(field_name):
                report.bench_mismatches.append(
                    f"{case.key}: {field_name} "
                    f"{reply.fingerprint.get(field_name)!r} != baseline "
                    f"{want.get(field_name)!r}"
                )


def expected_fingerprint(workload: str, config: Dict[str, int]) -> str:
    """The content-addressed job key a chaos request resolves to.

    Exposed for tests that want to pre-compute which cache file a
    scenario will touch.
    """
    from ..compiler.config import CompilerConfig

    return job_key(load_benchmark(workload), CompilerConfig(**config))
