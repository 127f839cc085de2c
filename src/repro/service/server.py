"""The asyncio compile server behind ``repro serve``.

:class:`CompileService` owns one persistent
:class:`~repro.sweep.SweepEngine` (long-lived worker pool + optional
on-disk cache) and serves the JSON-lines protocol of
:mod:`repro.service.protocol` over TCP.  The request loop, ``ping``,
``stats``, ``shutdown`` and the error mapping are the shared
:class:`~repro.service.transport.LineEndpoint`'s; the service adds its
``compile`` op, the disconnect probe, per-op metrics, the ``id`` echo and
off-loop encoding of full replies.  All compile resolution — coalescing,
warm-cache hits, backpressure — lives in the
:class:`~repro.service.batcher.CompileBroker`.

Shutdown is graceful: ``stop()`` (or SIGINT/SIGTERM under ``repro
serve``, or a ``shutdown`` request) closes the listening socket, hangs
up idle connections, lets in-flight requests finish, then tears down the
worker pool — the :class:`~repro.service.endpoint.Endpoint` lifecycle.

:class:`ServiceThread` runs a whole service on a background thread with
its own event loop — the tests, the chaos harness and the CI smoke
script all use it to get a real TCP server in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, Dict, Optional, Tuple

from ..sweep import CompileCache, JobFailure, JobTimeout, SweepEngine
from ..verify import ValidationError
from . import protocol
from .batcher import CompileBroker, OverloadedError
from .endpoint import EndpointThread
from .protocol import DEFAULT_PORT
from .transport import LineEndpoint

#: default bound on distinct in-flight compilations (per broker).
DEFAULT_MAX_PENDING = 32

#: default end-to-end budget per request (seconds); None = unbounded.
DEFAULT_REQUEST_TIMEOUT: Optional[float] = None

#: default attempts the worker pool gives a crashing/wedged compile.
DEFAULT_JOB_ATTEMPTS = 3

#: ops with their own metrics bucket; anything else (including garbage a
#: client invents) is recorded under "?" so the endpoints dict stays bounded.
_KNOWN_OPS = ("compile", "stats", "ping", "shutdown")


class CompileService(LineEndpoint):
    """A compile-as-a-service front-end over the sweep engine.

    Args:
        host / port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`address` after :meth:`start`).
        jobs: worker processes in the persistent compile pool.
        cache: persistent result store shared with the batch CLI, or None
            to keep results memo-only for this process's lifetime.
        remote: optional remote cache tier (a
            :class:`~repro.service.remote_cache.RemoteCache`) — lets a
            fleet of services share one ``repro cache-serve`` peer.
            Remote hits are replay-validated by the engine on ingest.
        validate: replay-validate every response before it is sent
            (fresh, memoed and disk-cached results alike); failures reach
            the client as the structured ``validation-failed`` error.
        max_pending: backpressure bound on distinct in-flight compiles.
        allow_shutdown: honour the ``shutdown`` op (disable for servers
            exposed beyond a trusted dev loop).
        request_timeout: end-to-end budget per request in seconds
            (admission to response); expiry answers with the ``timeout``
            error code.  A request's own ``timeout`` field can only
            shorten it.  None = unbounded.
        queue_wait: seconds a request may wait for a free compile slot
            before being shed as ``overloaded`` (0 = shed immediately).
        job_deadline: per-job compile budget enforced by the worker pool;
            a wedged worker is killed and the job retried.
        job_attempts: worker-pool attempts per job before a crash/deadline
            becomes the request's ``compile-failed``/``timeout`` error.
        worker_faults: seeded fault hook forwarded to the worker pool
            (chaos harness only).
    """

    kind = "service"
    ops = {"compile": "_compile"}

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        jobs: int = 1,
        cache: Optional[CompileCache] = None,
        remote=None,
        validate: bool = False,
        max_pending: int = DEFAULT_MAX_PENDING,
        allow_shutdown: bool = True,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        queue_wait: float = 0.0,
        job_deadline: Optional[float] = None,
        job_attempts: int = DEFAULT_JOB_ATTEMPTS,
        worker_faults=None,
    ) -> None:
        super().__init__(host, port, allow_shutdown)
        self.validate = validate
        self.request_timeout = request_timeout
        self.engine = SweepEngine(
            jobs=jobs,
            cache=cache,
            remote=remote,
            validate=validate,
            persistent=True,
            job_deadline=job_deadline,
            job_attempts=job_attempts,
            worker_faults=worker_faults,
        )
        self.broker = CompileBroker(
            self.engine, max_pending=max_pending, queue_wait=queue_wait
        )

    async def _on_stop(self) -> None:
        # the pool shutdown joins worker processes; keep it off the loop
        await asyncio.get_running_loop().run_in_executor(
            None, self.engine.shutdown
        )

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.broker.metrics.connections += 1
        await super()._handle_connection(reader, writer)

    async def _answer(
        self, line: bytes, reader: asyncio.StreamReader
    ) -> Tuple[Optional[Dict[str, Any]], bytes]:
        """Dispatch one request racing the client's disappearance.

        A one-byte read on the (otherwise idle — the protocol is strict
        request/response) connection doubles as a disconnect probe: EOF
        while the request is in flight cooperatively cancels the dispatch,
        so its compile slot, queue entry and coalesced-waiter registration
        are released instead of grinding for a client that is gone.  A
        byte the probe read from an eager (pipelining) client is returned
        as read ahead, for the loop to prepend to the next request line.
        """
        dispatch = asyncio.ensure_future(self._dispatch(line))
        probe = asyncio.ensure_future(reader.read(1))
        await asyncio.wait(
            {dispatch, probe}, return_when=asyncio.FIRST_COMPLETED
        )
        if dispatch.done():
            # response ready: retire the probe without losing a byte
            # (cancelling a StreamReader read never consumes buffer data)
            probe.cancel()
            ahead = b""
            with contextlib.suppress(asyncio.CancelledError, Exception):
                ahead = await probe
            return await dispatch, ahead
        try:
            data = probe.result()
        except OSError:
            data = b""
        if data:
            # an eager client sent its next frame early — not a
            # disconnect; finish this request and stash the byte
            return await dispatch, data
        # EOF mid-request: the client abandoned it
        self.broker.metrics.disconnects += 1
        dispatch.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await dispatch
        return None, b""

    async def _compile(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """The ``compile`` op: its budget, and its failures as error codes."""
        budget = self._request_budget(message)
        try:
            return await asyncio.wait_for(self._handle_compile(message), budget)
        except OverloadedError as exc:
            return protocol.error_response(protocol.E_OVERLOADED, str(exc))
        except JobTimeout as exc:
            # the worker pool killed a wedged compile on every attempt
            self.broker.metrics.timeouts += 1
            return protocol.error_response(
                protocol.E_TIMEOUT, str(exc), details={"attempts": exc.attempts}
            )
        except JobFailure as exc:  # JobCrashed and future siblings
            self.broker.metrics.compile_failures += 1
            return protocol.error_response(
                protocol.E_COMPILE_FAILED,
                str(exc),
                details={"attempts": exc.attempts, "cause": exc.code},
            )
        except asyncio.TimeoutError:
            # the end-to-end request budget expired (admission to response)
            self.broker.metrics.timeouts += 1
            return protocol.error_response(
                protocol.E_TIMEOUT, "request exceeded its time budget"
            )
        except ValidationError as exc:
            self.broker.metrics.validation_failures += 1
            return protocol.error_response(
                protocol.E_VALIDATION,
                exc.report.summary(),
                details=exc.report.to_dict(),
            )

    def _on_reply(
        self, op: str, message: Optional[dict], reply: dict, wall: float
    ) -> Dict[str, Any]:
        code = None if reply.get("ok") else reply["error"]["code"]
        metric_op = op if op in _KNOWN_OPS else "?"
        self.broker.metrics.endpoint(metric_op).record(wall, code)
        if message is not None and "id" in message:
            reply = {**reply, "id": message["id"]}
        return reply

    async def _encode(self, reply: Dict[str, Any]) -> bytes:
        if "result" not in reply:
            return protocol.encode_line(reply)
        # full-result payloads can be megabytes of JSON; encode off the
        # loop like the parse path
        return await asyncio.get_running_loop().run_in_executor(
            None, protocol.encode_line, reply
        )

    def _request_budget(self, message: Dict[str, Any]) -> Optional[float]:
        """Effective end-to-end budget for one compile request.

        A request's own ``timeout`` field can only shorten the server's
        configured ``request_timeout``, never extend it.
        """
        client = message.get("timeout")
        if client is not None:
            if (
                isinstance(client, bool)
                or not isinstance(client, (int, float))
                or client <= 0
            ):
                raise protocol.ProtocolError(
                    protocol.E_BAD_REQUEST,
                    "'timeout' must be a positive number of seconds",
                )
            client = float(client)
        if client is None:
            return self.request_timeout
        if self.request_timeout is None:
            return client
        return min(client, self.request_timeout)

    async def _handle_compile(self, message: Dict[str, Any]) -> Dict[str, Any]:
        start = time.perf_counter()
        # parsing can mean megabytes of QASM — keep it off the event loop
        loop = asyncio.get_running_loop()
        circuit, config, full = await loop.run_in_executor(
            None, protocol.parse_compile_request, message
        )
        result, source, key = await self.broker.resolve(circuit, config)
        wall = time.perf_counter() - start
        if full:
            # symmetric to the parse path: serializing a whole result can
            # be megabytes — build it off the loop too
            return await loop.run_in_executor(
                None, protocol.compile_response, result, key, source, wall, True
            )
        return protocol.compile_response(result, key, source, wall)

    def _stats(self) -> Dict[str, Any]:
        stats = self.broker.metrics.snapshot()
        stats["engine"] = self.engine.counters.as_dict()
        stats["pending"] = self.broker.pending
        stats["max_pending"] = self.broker.max_pending
        stats["jobs"] = self.engine.jobs
        stats["validate"] = self.validate
        stats["request_timeout"] = self.request_timeout
        stats["pool"] = self.engine.pool_stats()
        if self.engine.cache is not None:
            stats["cache"] = {
                "dir": str(self.engine.cache.root),
                **self.engine.cache.health(),
            }
        else:
            stats["cache"] = None
        stats["cache_tiers"] = self.engine.tier_stats()
        return stats


class ServiceThread(EndpointThread):
    """A compile service running on a dedicated background thread."""

    endpoint_class = CompileService

    @property
    def service(self) -> CompileService:
        return self.endpoint
