"""The gateway: HTTP/WebSocket front door over the sharded compile fleet.

The :class:`Gateway` is one asyncio process that owns identity (API-key
auth), admission (per-tenant token buckets, bounded in-flight dispatch),
the persistent job store, and the shard router.  It compiles nothing:
jobs are forwarded to backend :class:`~repro.service.server.CompileService`
processes over the newline-JSON protocol, and every result it serves is
byte-identical to what ``repro compile`` produces for the same request —
the job id *is* the sweep layer's content-addressed cache key, computed
locally with the same :func:`~repro.sweep.jobs.job_key` the backends use.

Endpoints (all JSON):

``POST /v1/jobs``
    Submit a compile request (``workload`` or ``qasm``, plus optional
    ``config`` / ``optimize`` / ``full``).  Answers 202 with the job id,
    or 200 immediately when the store already holds the finished result
    (zero compilations).  Deterministic rejects (bad QASM, unknown
    workload, bad config) are answered 400/404 synchronously and never
    become jobs.
``GET /v1/jobs/<id>``
    Poll one job; 404 ``not-found`` for unknown ids.
``GET /v1/ws``
    WebSocket upgrade; the client sends ``{"watch": "<id>"}`` text
    frames and receives status frames until the job is terminal.
``GET /v1/stats``
    Per-tenant counters, latency percentiles, per-shard dispatch, job
    totals and the persistent session ledger.
``GET /v1/ping``
    Liveness probe (no auth).

Error responses reuse the service protocol's closed code set plus the
gateway-specific codes below; every failure is a structured JSON body
with a stable ``code``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..service import protocol
from ..service.endpoint import Endpoint, EndpointThread
from ..service.transport import RetryPolicy
from ..sweep.jobs import job_key
from .auth import ANONYMOUS_TENANT, Keyring, TokenBucket
from .http11 import (
    DEFAULT_HEADER_TIMEOUT,
    HttpError,
    Request,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    encode_ws_frame,
    error_body,
    read_request,
    read_ws_frame,
    render_response,
    websocket_handshake,
)
from .jobstore import DONE, FAILED, JobStore
from .metrics import GatewayMetrics
from .shards import NoShardsError, ShardRouter

#: default TCP port of ``repro gateway`` (next to the service's 7787).
DEFAULT_GATEWAY_PORT = 7790

# -- gateway-specific error codes (extending the protocol's closed set) --------

E_UNAUTHORIZED = "unauthorized"  #: missing or unknown API key
E_RATE_LIMITED = "rate-limited"  #: token bucket empty; see ``Retry-After``
E_NOT_FOUND = "not-found"  #: unknown endpoint or job id
E_NO_SHARDS = "no-shards"  #: every backend shard is down

#: the closed set of error codes the gateway can emit: the service
#: protocol's codes (forwarded verbatim from backends) plus the HTTP
#: layer's and the gateway's own.
GATEWAY_ERROR_CODES = protocol.ERROR_CODES + (
    E_UNAUTHORIZED,
    E_RATE_LIMITED,
    E_NOT_FOUND,
    E_NO_SHARDS,
    "request-timeout",
    "payload-too-large",
    "headers-too-large",
)

#: request body fields ``POST /v1/jobs`` accepts.
JOB_FIELDS = ("workload", "qasm", "config", "optimize", "full")

#: HTTP status for each deterministic compile-request reject.
_REJECT_STATUS = {
    protocol.E_BAD_REQUEST: 400,
    protocol.E_BAD_CONFIG: 400,
    protocol.E_BAD_CIRCUIT: 400,
    protocol.E_UNKNOWN_WORKLOAD: 404,
}

#: backend sources that cost zero compilations.
_WARM_SOURCES = ("memo", "disk", "remote", "coalesced")


class Gateway(Endpoint):
    """The multi-tenant front door; see the module docstring.

    Args:
        backends: ``(host, port)`` of each backend compile service.
        host / port: the listening address (``port=0`` → ephemeral).
        store: a prebuilt :class:`JobStore` (tests inject fake clocks /
            fault hooks); mutually exclusive with ``store_path``.
        store_path: SQLite file for a store the gateway builds itself;
            ``":memory:"`` (the default) keeps everything in-process.
        keyring: API-key → tenant mapping; None runs open (every caller
            is the ``anonymous`` tenant).
        rate / burst: per-tenant token-bucket parameters (requests/s and
            bucket depth); ``rate=None`` disables rate limiting.
        max_pending: bound on concurrently dispatched jobs; submissions
            beyond it that would start a *new* compilation are shed with
            503 ``overloaded``.
        retry / rng: shard-dispatch backoff policy and its jitter source.
        clock: token-bucket clock (tests pass a fake).
        header_timeout: slow-loris bound for request heads/bodies.
        request_timeout: per-dispatch bound against a backend shard.
    """

    kind = "gateway"

    def __init__(
        self,
        backends: List[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
        store: Optional[JobStore] = None,
        store_path: str = ":memory:",
        keyring: Optional[Keyring] = None,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_pending: int = 64,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        clock=time.monotonic,
        header_timeout: float = DEFAULT_HEADER_TIMEOUT,
        request_timeout: float = 120.0,
        health_interval: float = 0.25,
    ) -> None:
        super().__init__(host, port)
        self.keyring = keyring
        self.max_pending = max_pending
        self.header_timeout = header_timeout
        self.store = store if store is not None else JobStore(store_path)
        self.limiter: Optional[TokenBucket] = None
        if rate is not None:
            self.limiter = TokenBucket(
                rate=rate,
                burst=burst if burst is not None else max(1.0, rate),
                clock=clock,
            )
        self.router = ShardRouter(
            backends,
            retry=retry,
            rng=rng,
            request_timeout=request_timeout,
            health_interval=health_interval,
        )
        self.metrics = GatewayMetrics()
        self._tasks: Dict[str, asyncio.Task] = {}
        self._watchers: Dict[str, asyncio.Event] = {}

    # -- lifecycle hooks ----------------------------------------------------

    def _on_start(self) -> None:
        self.router.start_health_loop()
        # crash recovery: every job the previous process left non-terminal
        # is re-dispatched (claim() re-adopts rows already 'dispatched')
        for record in self.store.pending():
            self._ensure_dispatch(record.key)

    async def _on_stop(self) -> None:
        await self.router.stop()
        tasks = list(self._tasks.values())
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        try:
            while True:
                try:
                    request = await self._while_idle(
                        lambda: read_request(
                            reader, header_timeout=self.header_timeout
                        )
                    )
                except HttpError as exc:
                    self.metrics.http_error(exc.code)
                    writer.write(
                        render_response(
                            exc.status,
                            error_body(exc.code, str(exc)),
                            exc.headers,
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:  # client EOF, or the gateway is stopping
                    return
                self.metrics.requests += 1
                if request.header("upgrade").lower() == "websocket":
                    # a watch is a standing subscription, not a request
                    # being handled: stop() hangs it up like an idle one
                    await self._while_idle(
                        lambda: self._serve_websocket(request, reader, writer)
                    )
                    return
                started = time.monotonic()
                try:
                    status, payload, headers = await self._route(request)
                except HttpError as exc:
                    self.metrics.http_error(exc.code)
                    status = exc.status
                    payload = error_body(exc.code, str(exc))
                    headers = exc.headers
                self.metrics.observe_latency(time.monotonic() - started)
                writer.write(
                    render_response(
                        status, payload, headers, keep_alive=request.keep_alive
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, OSError):
            pass  # client hung up; nothing to answer

    async def _route(
        self, request: Request
    ) -> Tuple[int, dict, Dict[str, str]]:
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/v1/ping":
            if method != "GET":
                raise HttpError(405, protocol.E_BAD_REQUEST, "use GET")
            return (
                200,
                {
                    "ok": True,
                    "version": __version__,
                    "protocol": protocol.PROTOCOL_VERSION,
                },
                {},
            )
        if path == "/v1/jobs":
            if method != "POST":
                raise HttpError(405, protocol.E_BAD_REQUEST, "use POST")
            return await self._submit_job(request)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise HttpError(405, protocol.E_BAD_REQUEST, "use GET")
            return self._poll_job(request, path[len("/v1/jobs/"):])
        if path == "/v1/stats":
            if method != "GET":
                raise HttpError(405, protocol.E_BAD_REQUEST, "use GET")
            self._authenticate(request)
            return 200, {"ok": True, **self._stats()}, {}
        raise HttpError(404, E_NOT_FOUND, f"no such endpoint {path!r}")

    # -- auth & admission ---------------------------------------------------

    def _authenticate(self, request: Request) -> str:
        """The tenant behind ``request`` (401 on missing/unknown key)."""
        if self.keyring is None:
            return ANONYMOUS_TENANT
        presented: Optional[str] = None
        auth = request.header("authorization")
        if auth.lower().startswith("bearer "):
            presented = auth[7:].strip()
        if not presented:
            presented = request.header("x-api-key") or None
        tenant = self.keyring.tenant_for(presented)
        if tenant is None:
            raise HttpError(
                401, E_UNAUTHORIZED, "missing or unknown API key"
            )
        return tenant

    def _admit(self, tenant: str) -> None:
        """Spend one rate-limit token (429 + Retry-After when empty)."""
        if self.limiter is None:
            return
        allowed, retry_after = self.limiter.acquire(tenant)
        if not allowed:
            self.metrics.tenant(tenant).rate_limited += 1
            raise HttpError(
                429,
                E_RATE_LIMITED,
                f"tenant {tenant!r} is over its request rate",
                headers={"Retry-After": f"{retry_after:.3f}"},
            )

    # -- job submission / polling -------------------------------------------

    async def _submit_job(
        self, request: Request
    ) -> Tuple[int, dict, Dict[str, str]]:
        tenant = self._authenticate(request)
        self._admit(tenant)
        body = request.json()
        unknown = sorted(set(body) - set(JOB_FIELDS))
        if unknown:
            raise HttpError(
                400,
                protocol.E_BAD_REQUEST,
                f"unknown field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(JOB_FIELDS)}",
            )
        message = protocol.compile_request(
            workload=body.get("workload"),
            qasm_source=body.get("qasm"),
            config=body.get("config"),
            optimize=bool(body.get("optimize")),
            full=bool(body.get("full")),
        )
        # deterministic rejects (bad QASM, unknown workload, bad config)
        # never become jobs: resolve the request — and its content
        # address — right here, with the exact parser the backends use
        loop = asyncio.get_running_loop()
        try:
            key = await loop.run_in_executor(None, self._resolve_key, message)
        except protocol.ProtocolError as exc:
            raise HttpError(
                _REJECT_STATUS.get(exc.code, 400), exc.code, str(exc)
            ) from exc
        counters = self.metrics.tenant(tenant)
        record = self.store.get(key)
        if record is not None and record.status == DONE:
            counters.accepted += 1
            counters.warm_hits += 1
            return 200, {"ok": True, **record.public()}, {}
        needs_dispatch = (
            record is None or record.status == FAILED
        ) and key not in self._tasks
        if needs_dispatch and len(self._tasks) >= self.max_pending:
            counters.shed += 1
            raise HttpError(
                503,
                protocol.E_OVERLOADED,
                f"gateway has {len(self._tasks)} jobs in flight",
                headers={"Retry-After": "1"},
            )
        counters.accepted += 1
        record = self.store.submit(key, tenant, message)
        if record.status == DONE:
            counters.warm_hits += 1
            return 200, {"ok": True, **record.public()}, {}
        self._ensure_dispatch(key)
        return 202, {"ok": True, **record.public()}, {}

    @staticmethod
    def _resolve_key(message: Dict[str, Any]) -> str:
        circuit, config, _ = protocol.parse_compile_request(message)
        return job_key(circuit, config)

    def _poll_job(
        self, request: Request, key: str
    ) -> Tuple[int, dict, Dict[str, str]]:
        self._authenticate(request)
        record = self.store.get(key)
        if record is None:
            raise HttpError(404, E_NOT_FOUND, f"no job {key[:16]}...")
        return 200, {"ok": True, **record.public()}, {}

    def _stats(self) -> dict:
        return {
            "gateway": self.metrics.snapshot(),
            "shards": self.router.snapshot(),
            "jobs": self.store.counts(),
            "sessions": self.store.tenants(),
            "in_flight": len(self._tasks),
        }

    # -- dispatch -----------------------------------------------------------

    def _ensure_dispatch(self, key: str) -> None:
        task = self._tasks.get(key)
        if task is None or task.done():
            self._tasks[key] = asyncio.ensure_future(self._dispatch(key))

    async def _dispatch(self, key: str) -> None:
        """Drive one job to a terminal state via the shard router.

        Exactly one dispatch task exists per key at a time — every client
        submitting the same key piggybacks on it, so identical requests
        coalesce here before the backend broker even sees them.
        """
        try:
            record = self.store.claim(key)
            if record is None:  # already terminal (restart replay race)
                return
            self._notify(key)
            counters = self.metrics.tenant(record.tenant)
            try:
                response = await self.router.dispatch(key, dict(record.request))
            except NoShardsError as exc:
                response = protocol.error_response(E_NO_SHARDS, str(exc))
            except Exception as exc:  # noqa: BLE001 — no job is left non-terminal
                # e.g. a shard reply over MAX_LINE_BYTES (the shard stays up)
                response = protocol.error_response(
                    protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            if response.get("ok"):
                payload = {
                    name: value
                    for name, value in response.items()
                    if name not in ("ok", "op", "id")
                }
                if payload.get("key", key) != key:
                    # a backend disagreeing on the content address would
                    # poison the store — fail loudly instead
                    self.store.fail(
                        key,
                        {
                            "code": protocol.E_INTERNAL,
                            "message": "backend job key mismatch",
                        },
                    )
                    counters.failed += 1
                    return
                self.store.complete(key, payload)
                counters.completed += 1
                if payload.get("source") in _WARM_SOURCES:
                    counters.warm_hits += 1
            else:
                error = response.get("error") or {
                    "code": protocol.E_INTERNAL,
                    "message": "backend returned no error payload",
                }
                self.store.fail(key, error)
                counters.failed += 1
        finally:
            self._tasks.pop(key, None)
            self._notify(key)

    # -- watchers -----------------------------------------------------------

    def _notify(self, key: str) -> None:
        event = self._watchers.pop(key, None)
        if event is not None:
            event.set()

    async def _wait_for_update(self, key: str, timeout: float) -> None:
        event = self._watchers.setdefault(key, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    # -- WebSocket ----------------------------------------------------------

    async def _serve_websocket(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Stream job status frames; see the module docstring."""
        if request.path.split("?", 1)[0] != "/v1/ws":
            raise HttpError(404, E_NOT_FOUND, "WebSocket endpoint is /v1/ws")
        self._authenticate(request)
        writer.write(websocket_handshake(request))
        await writer.drain()
        self.metrics.ws_streams += 1
        while True:
            try:
                opcode, payload = await read_ws_frame(reader)
            except (ConnectionError, HttpError):
                return
            if opcode == WS_CLOSE:
                writer.write(encode_ws_frame(b"", WS_CLOSE))
                await writer.drain()
                return
            if opcode == WS_PING:
                writer.write(encode_ws_frame(payload, WS_PONG))
                await writer.drain()
                continue
            if opcode != WS_TEXT:
                continue
            try:
                command = json.loads(payload.decode("utf-8"))
                key = command["watch"]
            except (ValueError, KeyError, UnicodeDecodeError):
                writer.write(
                    encode_ws_frame(
                        json.dumps(
                            error_body(
                                protocol.E_BAD_REQUEST,
                                'expected {"watch": "<job id>"}',
                            )
                        ).encode()
                    )
                )
                await writer.drain()
                continue
            await self._stream_job(key, writer)

    async def _stream_job(
        self, key: str, writer: asyncio.StreamWriter
    ) -> None:
        """Send status frames for ``key`` until it reaches a terminal state."""
        last_status: Optional[str] = None
        while True:
            record = self.store.get(key)
            if record is None:
                writer.write(
                    encode_ws_frame(
                        json.dumps(
                            error_body(E_NOT_FOUND, f"no job {key[:16]}...")
                        ).encode()
                    )
                )
                await writer.drain()
                return
            if record.status != last_status:
                last_status = record.status
                writer.write(
                    encode_ws_frame(
                        json.dumps(
                            {"ok": True, **record.public()}, sort_keys=True
                        ).encode()
                    )
                )
                await writer.drain()
            if record.terminal:
                return
            await self._wait_for_update(key, timeout=1.0)


# -- background-thread harness -------------------------------------------------


class GatewayThread(EndpointThread):
    """A gateway running on a dedicated background thread.

    :meth:`kill_shard` / :meth:`revive_shard` drive the shard-death seam
    from outside the gateway's loop (chaos harness, tests).
    """

    endpoint_class = Gateway

    @property
    def gateway(self) -> Gateway:
        return self.endpoint

    def kill_shard(self, index: int) -> None:
        """Sever shard ``index`` as if its backend were SIGKILLed."""
        router = self.gateway.router
        self._loop.call_soon_threadsafe(router.force_down, index)

    def revive_shard(self, index: int) -> None:
        """Let the health loop re-admit shard ``index``."""
        router = self.gateway.router
        self._loop.call_soon_threadsafe(router.revive, index)

    def stop(self, timeout: float = 60.0) -> None:
        super().stop(timeout)
        if self._endpoint is not None:
            self._endpoint.store.close()
