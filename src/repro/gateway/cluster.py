"""One-call boot of a complete gateway fleet (peer + shards + gateway).

:class:`GatewayCluster` wires together what a production deployment runs
as separate processes: one ``cache-serve`` peer, N backend
:class:`~repro.service.server.CompileService` shards (each with its own
worker pool and disk cache, all pointed at the shared peer so compiles
are shared fleet-wide), and the :class:`~repro.gateway.server.Gateway`
in front.  The CLI, the bench, the chaos harness and the tests all boot
fleets through this class so the topology is defined exactly once.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, List, Optional, Tuple

from ..service import CachePeerThread, RemoteCache, ServiceThread
from ..sweep import CompileCache
from .auth import Keyring
from .jobstore import JobStore
from .server import GatewayThread


class GatewayCluster:
    """A gateway over ``shards`` backend compile services, in one process.

    Args:
        shards: number of backend compile services.
        jobs: worker processes per backend.
        cache_dir: root directory for all state (per-shard disk caches,
            the shared peer's cache, the gateway's SQLite job store);
            default is a fresh temp dir.  Reusing the same directory
            across cluster lifetimes is the restart story: disk caches,
            the peer and the job store all pick up where they left off.
        validate: replay-validate every backend response.
        store: prebuilt :class:`JobStore` (overrides the default
            ``<cache_dir>/gateway-jobs.sqlite``).
        keyring / rate / burst / max_pending: gateway admission knobs.
        gateway_kwargs: anything else forwarded to :class:`Gateway`
            (retry policy, rng, timeouts, ...).
    """

    def __init__(
        self,
        shards: int = 2,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        validate: bool = False,
        store: Optional[JobStore] = None,
        keyring: Optional[Keyring] = None,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_pending: int = 64,
        job_deadline: Optional[float] = None,
        job_attempts: int = 2,
        **gateway_kwargs: Any,
    ) -> None:
        if shards < 1:
            raise ValueError("a gateway needs at least one shard")
        self.shards = shards
        self.jobs = jobs
        self.cache_dir = Path(
            cache_dir
            if cache_dir is not None
            else tempfile.mkdtemp(prefix="repro-gateway-")
        )
        self.validate = validate
        self._store = store
        self._keyring = keyring
        self._rate = rate
        self._burst = burst
        self._max_pending = max_pending
        self._job_deadline = job_deadline
        self._job_attempts = job_attempts
        self._gateway_kwargs = gateway_kwargs
        self.peer: Optional[CachePeerThread] = None
        self.backends: List[ServiceThread] = []
        self.gateway_thread: Optional[GatewayThread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "GatewayCluster":
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        try:
            self.peer = CachePeerThread(
                cache=CompileCache(self.cache_dir / "peer"),
                allow_shutdown=False,
            )
            self.peer.start()
            for index in range(self.shards):
                backend = ServiceThread(
                    jobs=self.jobs,
                    cache=CompileCache(self.cache_dir / f"shard-{index}"),
                    remote=RemoteCache(*self.peer.address),
                    validate=self.validate,
                    allow_shutdown=False,
                    job_deadline=self._job_deadline,
                    job_attempts=self._job_attempts,
                )
                backend.start()
                self.backends.append(backend)
            store = self._store
            if store is None:
                store = JobStore(str(self.cache_dir / "gateway-jobs.sqlite"))
            self.gateway_thread = GatewayThread(
                backends=[backend.address for backend in self.backends],
                store=store,
                keyring=self._keyring,
                rate=self._rate,
                burst=self._burst,
                max_pending=self._max_pending,
                **self._gateway_kwargs,
            )
            self.gateway_thread.start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self.gateway_thread is not None:
            self.gateway_thread.stop()
            self.gateway_thread = None
        for backend in self.backends:
            backend.stop()
        self.backends = []
        if self.peer is not None:
            self.peer.stop()
            self.peer = None

    def join(self) -> None:
        """Block while the gateway serves (it has no ``shutdown`` op)."""
        self.gateway_thread.join()

    def __enter__(self) -> "GatewayCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- conveniences --------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        assert self.gateway_thread is not None, "cluster is not started"
        return self.gateway_thread.address

    def kill_shard(self, index: int) -> None:
        """Sever shard ``index`` at the router (SIGKILL as seen from the
        gateway; the backend thread itself keeps running)."""
        assert self.gateway_thread is not None
        self.gateway_thread.kill_shard(index)

    def revive_shard(self, index: int) -> None:
        assert self.gateway_thread is not None
        self.gateway_thread.revive_shard(index)
