"""Parallel sweep execution with memoisation and the persistent cache.

:class:`SweepEngine` is the single entry point the experiment layer
compiles through.  Resolution order for every job (the tier stack of
:mod:`repro.sweep.tiers`):

1. **memo** — a bounded LRU of results already materialised in this
   process (:class:`~repro.sweep.tiers.MemoryCache`);
2. **disk** — the content-addressed :class:`~repro.sweep.cache.CompileCache`;
3. **remote** — an optional :class:`~repro.service.remote_cache.RemoteCache`
   peer shared across a fleet of engines; remote hits are
   replay-validated on ingest (a poisoned entry can never propagate)
   and **promoted** into disk and memo, and a peer outage degrades to a
   miss, never an error;
4. **compile** — in-process for single jobs, or fanned out over a
   :class:`~repro.sweep.supervisor.SupervisedPool` by
   :meth:`SweepEngine.prefetch` (the pool survives worker crashes and
   enforces per-job deadlines; see :mod:`repro.sweep.supervisor`).

Workers ship results back encoded by :mod:`repro.compiler.codec`, and
those bytes are the ones every tier then stores: the parent decodes them
once for itself and hands the same bytes to the disk tier and the remote
peer, with no second encoding.  :func:`~repro.compiler.codec.decode`
reproduces a result exactly, so a result is identical whether it was
computed serially, in a worker, or read back from disk — parallel and
cached runs are bit-identical to serial ones.

The engine is installed per run with :func:`use_engine`;
``experiments.runner`` falls back to a private serial engine when none is
active, which keeps plain library calls (and the test suite) free of disk
and process-pool side effects.

Batch CLI runs use ephemeral engines whose pools live for one
:meth:`SweepEngine.prefetch`.  The compile service instead constructs one
``SweepEngine(..., persistent=True)`` and keeps it for the process
lifetime: :meth:`SweepEngine.submit` / :meth:`SweepEngine.adopt` dispatch
single jobs to the long-lived pool, :meth:`SweepEngine.cached_result`
resolves warm hits without compiling, and :meth:`SweepEngine.shutdown`
tears the pool down on exit.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..compiler import codec
from ..compiler.config import CompilerConfig
from ..compiler.pipeline import FaultTolerantCompiler
from ..compiler.result import CompilationResult
from ..ir.circuit import Circuit
from .cache import CompileCache
from .jobs import CompileJob, job_key
from .planner import plan_jobs
from .supervisor import Fault, SupervisedPool
from .tiers import DEFAULT_MEMO_LIMIT, CacheBackend, MemoryCache, TieredCache


@dataclass
class SweepCounters:
    """Tier provenance of every requested compilation."""

    memo_hits: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
    compiled: int = 0

    @property
    def requests(self) -> int:
        return self.memo_hits + self.disk_hits + self.remote_hits + self.compiled

    def record_source(self, source: str) -> None:
        """Count one resolution by its tier name."""
        if source == "memo":
            self.memo_hits += 1
        elif source == "disk":
            self.disk_hits += 1
        elif source == "remote":
            self.remote_hits += 1
        else:
            self.compiled += 1

    def as_dict(self) -> Dict[str, int]:
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "remote_hits": self.remote_hits,
            "compiled": self.compiled,
        }

    def describe(self) -> str:
        return (
            f"{self.requests} compile requests: {self.compiled} compiled, "
            f"{self.disk_hits} disk hits, {self.memo_hits} memo hits, "
            f"{self.remote_hits} remote hits"
        )


def _compile_payload(payload: Tuple[Circuit, CompilerConfig]) -> bytes:
    """Worker entry point: compile one job, return the encoded result."""
    circuit, config = payload
    return codec.encode(FaultTolerantCompiler(config).compile(circuit))


class SweepEngine:
    """Executes compile jobs with dedupe, caching and process fan-out.

    Args:
        jobs: worker processes for :meth:`prefetch` (1 = fully serial).
        cache: optional persistent store; None keeps everything in-memory.
        remote: optional untrusted remote tier (a
            :class:`~repro.service.remote_cache.RemoteCache`, or any
            :class:`~repro.sweep.tiers.CacheBackend`).  Remote hits are
            **always** replay-validated before being served or promoted,
            independent of ``validate`` — remote bytes crossed a trust
            boundary.  Rejected entries are quarantined in the local
            disk cache (when present) and resolved as a miss.
        memo_limit: entry bound on the in-process memo tier (LRU).
        validate: replay-validate every resolved result against its circuit
            and config (once per job key, wherever it came from — fresh
            compile, worker, memo or disk, so cache corruption is caught
            too).  Raises :class:`~repro.verify.ValidationError`.
        persistent: keep one long-lived worker pool alive across calls
            instead of spinning a pool up per :meth:`prefetch`.  This is
            the mode the compile service runs in: the pool is created
            lazily on first use, :meth:`submit` dispatches single jobs to
            it, and :meth:`shutdown` (or the context-manager exit) tears
            it down.
        job_deadline: per-job compile budget in seconds enforced by the
            worker pool (None = unbounded).  A wedged worker is killed and
            the job retried; exhausted budgets surface as
            :class:`~repro.sweep.supervisor.JobTimeout`.
        job_attempts: attempts per job before a worker crash or deadline
            expiry becomes the job's failure (1 = never retry).
        worker_faults: optional seeded ``(job_seq, attempt) -> Fault``
            hook forwarded to the pool — the chaos harness's entry point
            for deterministic worker kills and stalls.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[CompileCache] = None,
        remote: Optional[CacheBackend] = None,
        validate: bool = False,
        persistent: bool = False,
        job_deadline: Optional[float] = None,
        job_attempts: int = 3,
        worker_faults: Optional[Callable[[int, int], Fault]] = None,
        memo_limit: int = DEFAULT_MEMO_LIMIT,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.remote = remote
        self.validate = validate
        self.persistent = bool(persistent)
        self.job_deadline = job_deadline
        self.job_attempts = max(1, int(job_attempts))
        self.worker_faults = worker_faults
        self.counters = SweepCounters()
        self.memo = MemoryCache(limit=memo_limit)
        tiers = [self.memo]
        if cache is not None:
            tiers.append(cache)
        if remote is not None:
            tiers.append(remote)
        self.tiers = TieredCache(tiers)
        self._validated: set = set()
        self._pool: Optional[SupervisedPool] = None
        # guards counter mutation on the service paths, where
        # cached_result/adopt run on multiple executor threads at once
        # (the tiers carry their own locks)
        self._lock = threading.Lock()

    def _check(
        self, circuit: Circuit, config: CompilerConfig, result: CompilationResult,
        key: Optional[str] = None, fresh: bool = False,
    ) -> CompilationResult:
        """Validate one resolved result (at most once per job key).

        ``fresh`` marks a result this engine just compiled: with
        ``REPRO_VALIDATE`` forcing validation inside every compile (also in
        worker processes, which inherit the env), re-validating here would
        audit the same schedule twice.
        """
        if not self.validate:
            return result
        if key is not None and key in self._validated:
            return result
        from ..verify import env_forced, raise_if_invalid, validate_result

        if not (fresh and env_forced()):
            raise_if_invalid(
                validate_result(result, circuit, config, label=circuit.name)
            )
        if key is not None:
            self._validated.add(key)
        return result

    # -- single-point API ---------------------------------------------------

    def compile(
        self,
        circuit: Circuit,
        config: CompilerConfig,
        use_cache: bool = True,
    ) -> CompilationResult:
        """Resolve one compile point (memo -> disk -> remote -> compile)."""
        if not use_cache:
            self.counters.compiled += 1
            return self._check(
                circuit, config, FaultTolerantCompiler(config).compile(circuit),
                fresh=True,
            )
        key = job_key(circuit, config)
        hit = self._lookup(key, circuit, config)
        if hit is not None:
            return self._check(circuit, config, hit, key)
        result = FaultTolerantCompiler(config).compile(circuit)
        self.counters.compiled += 1
        # validate before persisting: an invalid schedule must never reach
        # the memo or the shared disk cache, where a later non-validating
        # run would trust it
        self._check(circuit, config, result, key, fresh=True)
        self._remember(key, result)
        return result

    def _lookup(
        self, key: str, circuit: Circuit, config: CompilerConfig
    ) -> Optional[CompilationResult]:
        hit = self._lookup_sourced(key, circuit, config)
        return None if hit is None else hit[0]

    def _ingest_guard(
        self, circuit: Circuit, config: CompilerConfig
    ) -> Callable[[CacheBackend, str, CompilationResult], bool]:
        """The poisoning defense for untrusted (remote) tier hits.

        Replay-validates the entry against the job's own circuit and
        config — regardless of ``self.validate``, since remote bytes
        crossed a trust boundary.  A failing entry is quarantined in the
        local disk cache (evidence for debugging a bad peer) and the
        lookup treats it as a miss.
        """
        from ..verify import validate_result

        def guard(
            tier: CacheBackend, key: str, result: CompilationResult
        ) -> bool:
            report = validate_result(result, circuit, config, label=circuit.name)
            if report.ok:
                self._validated.add(key)
                return True
            if self.cache is not None:
                self.cache.quarantine_payload(
                    key, codec.encoded(result), reason=tier.name
                )
            return False

        return guard

    def _lookup_sourced(
        self, key: str, circuit: Circuit, config: CompilerConfig
    ) -> Optional[Tuple[CompilationResult, str]]:
        """Tier lookup returning ``(result, "memo" | "disk" | "remote")``.

        A hit at a lower tier is promoted into the tiers above it, so
        the next lookup for the same key resolves at the memo.
        """
        guard = (
            self._ingest_guard(circuit, config)
            if self.remote is not None
            else None
        )
        hit = self.tiers.lookup(key, guard=guard)
        if hit is None:
            return None
        result, source = hit
        with self._lock:
            self.counters.record_source(source)
        return result, source

    def _remember(
        self,
        key: str,
        result: CompilationResult,
        payload: Optional[bytes] = None,
    ) -> None:
        """Fill every tier (memo, disk, and the remote peer when present)."""
        self.tiers.fill(key, result, payload)

    @property
    def validated_keys(self) -> frozenset:
        """Job keys whose results passed replay validation this process."""
        return frozenset(self._validated)

    def clear_memo(self) -> None:
        """Drop in-process results (the disk cache is untouched)."""
        self.memo.clear()

    def purge(self, key: str) -> None:
        """Forget one key in the local tiers (memo + disk).

        The remote peer is deliberately untouched — this is the chaos
        harness's hook for forcing the next lookup to resolve remotely.
        """
        self.memo.discard(key)
        if self.cache is not None:
            self.cache.discard(key)
        self._validated.discard(key)

    def tier_stats(self) -> Dict[str, dict]:
        """Per-tier hit/miss/latency/eviction counters, keyed by tier name."""
        return self.tiers.stats()

    # -- long-lived service API ---------------------------------------------

    def pool(self) -> SupervisedPool:
        """The persistent worker pool, created lazily on first use.

        Only available on engines constructed with ``persistent=True`` —
        ephemeral engines deliberately keep their pools scoped to one
        :meth:`prefetch` call so library users never leak processes.
        """
        if not self.persistent:
            raise RuntimeError(
                "pool() requires a persistent engine "
                "(construct with SweepEngine(..., persistent=True))"
            )
        if self._pool is None:
            self._pool = self._make_pool(self.jobs)
        return self._pool

    def _make_pool(self, workers: int) -> SupervisedPool:
        return SupervisedPool(
            workers=workers,
            deadline=self.job_deadline,
            max_attempts=self.job_attempts,
            fault_hook=self.worker_faults,
        )

    def pool_stats(self) -> Optional[Dict[str, int]]:
        """Supervision counters of the live pool (None before first use)."""
        if self._pool is None:
            return None
        return self._pool.stats.as_dict()

    def submit(self, circuit: Circuit, config: CompilerConfig) -> "Future[bytes]":
        """Dispatch one compile to the persistent pool.

        Returns a future of the encoded result (the same bytes the cache
        tiers persist).  The caller is expected to hand
        the payload back to :meth:`adopt`, which folds it into the memo,
        the disk cache and the counters.  Cache lookup is *not* performed
        here — pair with :meth:`cached_result` first.
        """
        return self.pool().submit(_compile_payload, (circuit, config))

    def cached_result(
        self,
        circuit: Circuit,
        config: CompilerConfig,
        key: Optional[str] = None,
    ) -> Optional[Tuple[CompilationResult, str]]:
        """Resolve a job from the cache tiers only; never compiles.

        Returns ``(result, source)`` with source ``"memo"``, ``"disk"``
        or ``"remote"``, or None on a cold miss.  Validates the hit when
        the engine was constructed with ``validate=True`` (catching
        cache corruption); remote hits are replay-validated regardless.
        """
        if key is None:
            key = job_key(circuit, config)
        hit = self._lookup_sourced(key, circuit, config)
        if hit is None:
            return None
        result, source = hit
        self._check(circuit, config, result, key)
        return result, source

    def adopt(
        self,
        circuit: Circuit,
        config: CompilerConfig,
        payload: bytes,
        key: Optional[str] = None,
    ) -> CompilationResult:
        """Fold a worker-produced encoded result into this engine.

        Counts the compilation, memoises the result and persists
        ``payload`` itself (no re-encoding), and validates it when the
        engine validates.  This is the collection half of :meth:`submit`,
        split out so an async caller can await the worker future on its
        own event loop.
        """
        result = codec.decode(payload)
        if key is None:
            key = job_key(circuit, config)
        with self._lock:
            self.counters.compiled += 1
        # validate before persisting (see :meth:`compile`)
        self._check(circuit, config, result, key, fresh=True)
        self._remember(key, result, payload)
        return result

    def shutdown(self) -> None:
        """Tear down the persistent pool (idempotent; memo survives)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        close = getattr(self.remote, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- batch API ----------------------------------------------------------

    def prefetch(
        self,
        jobs: Sequence[CompileJob],
        progress=None,
        tolerant: bool = False,
    ) -> None:
        """Materialise every job into the memo, compiling misses in parallel.

        Jobs are deduped first; misses are dispatched to a process pool in
        plan order and collected in the same order, so the memo's contents
        never depend on worker timing.  After ``prefetch`` returns, table
        construction hits the memo only and stays deterministic.

        ``tolerant=True`` skips jobs whose compile raises instead of
        aborting the whole batch — the fuzz runner uses it so one crashing
        scenario does not discard every other scenario's parallel compile
        (the crash is re-found and attributed when the scenario is checked
        individually).  Batch experiment runs keep the default fail-fast
        behaviour.
        """
        plan = plan_jobs(jobs)
        missing: List[CompileJob] = []
        for job in plan.unique:
            hit = self._lookup(job.key, job.circuit, job.config)
            if hit is None:
                missing.append(job)
            else:
                self._check(job.circuit, job.config, hit, job.key)
        if progress is not None and plan.requested:
            cached = len(plan.unique) - len(missing)
            progress(
                f"{plan.describe()}; {len(missing)} to compile "
                f"({cached} already cached)"
            )
        if not missing:
            return
        if self.jobs == 1 or len(missing) == 1:
            for job in missing:
                try:
                    result = FaultTolerantCompiler(job.config).compile(job.circuit)
                except Exception:
                    if not tolerant:
                        raise
                    continue
                self.counters.compiled += 1
                self._remember(job.key, result)
                self._check(job.circuit, job.config, result, job.key, fresh=True)
                if progress is not None:
                    progress(f"compiled {job.tag or 'job'} {job.key[:12]}")
            return
        if self.persistent:
            self._collect(self.pool(), missing, progress, tolerant)
        else:
            workers = min(self.jobs, len(missing))
            with self._make_pool(workers) as pool:
                self._collect(pool, missing, progress, tolerant)

    def _collect(
        self,
        pool: SupervisedPool,
        missing: List[CompileJob],
        progress,
        tolerant: bool = False,
    ) -> None:
        """Fan ``missing`` out over ``pool`` and adopt results in plan order."""
        futures = [
            pool.submit(_compile_payload, (job.circuit, job.config))
            for job in missing
        ]
        for job, future in zip(missing, futures):
            try:
                payload = future.result()
            except Exception:
                if not tolerant:
                    raise
                continue  # the per-job check re-finds and attributes it
            self.adopt(job.circuit, job.config, payload, job.key)
            if progress is not None:
                progress(f"compiled {job.tag or 'job'} {job.key[:12]}")


# -- active engine ------------------------------------------------------------

_ACTIVE: Optional[SweepEngine] = None


def active_engine() -> Optional[SweepEngine]:
    """The engine installed by :func:`use_engine`, if any."""
    return _ACTIVE


@contextmanager
def use_engine(engine: SweepEngine) -> Iterator[SweepEngine]:
    """Route ``experiments.runner`` compilations through ``engine``."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = engine
    try:
        yield engine
    finally:
        _ACTIVE = previous
