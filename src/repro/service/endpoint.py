"""The lifecycle the three TCP endpoints share: start, drain, stop, signals.

:class:`~repro.service.server.CompileService`,
:class:`~repro.service.cache_peer.CachePeer` and
:class:`~repro.gateway.server.Gateway` subclass :class:`Endpoint` and
keep only their request loop (the service and the peer share
:class:`~repro.service.transport.LineEndpoint`'s) and two hooks.
:class:`EndpointThread` runs one on a background thread with its own
event loop, and
:func:`serve_forever` is the blocking body of ``repro serve``,
``repro cache-serve`` and ``repro gateway``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Awaitable, Callable, Optional, Set, Tuple, TypeVar

T = TypeVar("T")


class Endpoint:
    """An asyncio TCP server with the shared lifecycle.

    Subclasses implement ``_handle_connection(reader, writer)`` (the
    connection is closed when it returns), await every connection's next
    request through :meth:`_while_idle`, and may override the
    :meth:`_on_start` and :meth:`_on_stop` hooks.

    :meth:`stop` closes the listener and hangs up every connection that
    is waiting for its next request; a request already being handled
    finishes, then :meth:`_on_stop` releases what the endpoint owns.
    """

    #: how errors name the endpoint ("<kind> is not started").
    kind = "endpoint"
    #: StreamReader buffer limit (asyncio's default).
    stream_limit = 2**16

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping: Optional[asyncio.Event] = None
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.Task] = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The actual bound (host, port) — call after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError(f"{self.kind} is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=self.stream_limit
        )
        self._on_start()

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to stop (call on the endpoint's loop)."""
        if self._stopping is not None:
            self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` request)."""
        await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, hang up idle connections, drain the rest, release."""
        if self._server is None:
            return
        server, self._server = self._server, None
        self._stopping.set()
        server.close()
        for task in self._idle:
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        # from Python 3.12 this also waits for every connection to close
        await server.wait_closed()
        await self._on_stop()

    def _on_start(self) -> None:
        """Hook: runs once the listener is bound."""

    async def _on_stop(self) -> None:
        """Hook: runs after the last connection closed."""

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self._connections.discard(task)

    async def _while_idle(self, wait: Callable[[], Awaitable[T]]) -> Optional[T]:
        """``await wait()`` as idle time on this connection; None once stopping.

        While parked here the connection is waiting for its next request,
        so :meth:`stop` cancels the wait (hangs up) instead of draining it.
        """
        if self._stopping.is_set():
            return None
        task = asyncio.current_task()
        self._idle.add(task)
        try:
            return await wait()
        except asyncio.CancelledError:
            if not self._stopping.is_set():
                raise
            # stop() hung up: end the handler normally, because the stream
            # protocol logs a connection task that ends cancelled
            return None
        finally:
            self._idle.discard(task)


class EndpointThread:
    """An :class:`Endpoint` serving on a background thread with its own loop.

    Usage (each subclass names its ``endpoint_class``)::

        with ServiceThread(jobs=2) as service:
            client = Client(*service.address)
            ...

    Keyword arguments go to the endpoint's constructor, with ``port``
    defaulting to 0 (an ephemeral port).  The tests, the chaos harness,
    the smoke script and the gateway fleet run their endpoints this way.
    """

    endpoint_class = Endpoint

    def __init__(self, **endpoint_kwargs: Any) -> None:
        endpoint_kwargs.setdefault("port", 0)
        self._kwargs = endpoint_kwargs
        self._endpoint: Optional[Endpoint] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None
        name = "repro-" + self.endpoint_class.kind.replace(" ", "-")
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._stopped.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            endpoint = self.endpoint_class(**self._kwargs)
            await endpoint.start()
            self._endpoint = endpoint
        except Exception as exc:  # start() re-raises it on the caller's thread
            self._startup_error = exc
            return
        finally:
            self._ready.set()
        await endpoint.serve_until_stopped()

    def start(self) -> "EndpointThread":
        kind = self.endpoint_class.kind
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise RuntimeError(
                f"{kind} failed to start: {self._startup_error}"
            ) from self._startup_error
        if self._endpoint is None:
            raise RuntimeError(f"{kind} failed to start (timeout)")
        return self

    @property
    def endpoint(self) -> Endpoint:
        if self._endpoint is None:
            raise RuntimeError(f"{self.endpoint_class.kind} is not started")
        return self._endpoint

    @property
    def address(self) -> Tuple[str, int]:
        return self.endpoint.address

    def join(self) -> None:
        """Wait for the endpoint to stop (e.g. through a ``shutdown`` op)."""
        # not Thread.join(): a signal interrupting it can leave the thread
        # marked as stopped while it still runs, and stop() would skip it
        self._stopped.wait()

    def stop(self, timeout: float = 60.0) -> None:
        """Stop the endpoint gracefully and join its thread."""
        if self._endpoint is not None and not self._stopped.is_set():
            try:
                self._loop.call_soon_threadsafe(self._endpoint.request_stop)
            except RuntimeError:
                pass  # the loop closed since the check: the thread is ending
        if self._thread.ident is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "EndpointThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve_forever(harness: Any, announce: Callable[[], None]) -> int:
    """Serve in the foreground until SIGINT or SIGTERM; the exit code (0).

    ``harness`` is an :class:`EndpointThread` or a
    :class:`~repro.gateway.cluster.GatewayCluster`; ``announce`` runs
    once it listens.  A signal, or the endpoint stopping itself through a
    ``shutdown`` op, stops everything: in-flight requests finish and
    worker pools are joined.
    """
    # both signals unwind the main thread as KeyboardInterrupt
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    try:
        harness.start()
        try:
            announce()
            harness.join()
        finally:
            harness.stop()
    except KeyboardInterrupt:
        pass
    return 0
