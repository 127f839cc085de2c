"""The JSON-lines transport: one connection, one reply reader, one loop.

* :class:`Connection` — the client side of :class:`~.client.Client` and
  :class:`~.remote_cache.RemoteCache`: lazy connect, one exchange, drop
  on a transport failure, and one retry loop under :class:`RetryPolicy`.
* :func:`read_reply` — what a transport failure is, for these and the
  gateway's :class:`~repro.gateway.shards.ShardRouter`: EOF, a line with
  no newline (a torn reply), or a reply that is not a JSON object.  Each
  raises :class:`ConnectionError`, so every caller retries it like a
  reset.
* :class:`LineEndpoint` — the request loop of
  :class:`~.server.CompileService` and :class:`~.cache_peer.CachePeer`.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .. import __version__
from . import protocol
from .endpoint import Endpoint


@dataclass
class RetryPolicy:
    """Exponential backoff with full jitter for transient failures.

    The delay before attempt *k* (0-based retry index) is drawn uniformly
    from ``[0, min(max_delay, base_delay * 2**k)]`` — "full jitter", which
    decorrelates a thundering herd of retrying clients instead of having
    them all hammer the server again on the same beat.

    Retried failures: transport failures (the connection is rebuilt
    first) and the error codes in ``codes`` (``overloaded`` and
    ``timeout`` by default).  Resubmission is **idempotent by
    construction**: requests are content-addressed and results
    deterministic, so a retry can only hit the cache or recompile to
    identical bytes — never double-apply anything.
    """

    attempts: int = 4  # total tries (1 initial + attempts-1 retries)
    base_delay: float = 0.05
    max_delay: float = 2.0
    codes: Tuple[str, ...] = protocol.RETRYABLE_CODES

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """The jittered sleep before the ``retry_index``-th retry."""
        ceiling = min(self.max_delay, self.base_delay * (2.0**retry_index))
        return rng.uniform(0.0, ceiling)

    def retries_error(self, code: str) -> bool:
        return code in self.codes


def error_code(reply: Dict[str, Any]) -> str:
    """The ``error.code`` of a failed reply ('' when it carries none)."""
    return (reply.get("error") or {}).get("code", "")


def read_reply(line: bytes, peer: str) -> Dict[str, Any]:
    """Decode one reply line, or raise :class:`ConnectionError`.

    ``line`` is what a ``readline`` returned: empty at EOF, without its
    newline when the peer hung up mid-reply.
    """
    if not line:
        raise ConnectionError(f"{peer} closed the connection")
    if not line.endswith(b"\n"):
        raise ConnectionError(f"{peer} hung up mid-reply ({len(line)} bytes)")
    try:
        return protocol.decode_line(line)
    except protocol.ProtocolError as exc:
        raise ConnectionError(f"{peer} sent an unreadable reply: {exc}") from None


class Connection:
    """One lazily opened connection and its retry loop (one caller at a time).

    ``connects`` counts the connects that succeeded, ``retried`` the
    retries :meth:`request` slept before.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        retry: Optional[RetryPolicy],
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self.connects = 0
        self.retried = 0
        self.sock: Optional[socket.socket] = None
        self.reader = None

    def connect(self) -> None:
        self.sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self.reader = self.sock.makefile("rb")
        self.connects += 1

    def close(self) -> None:
        for stream in (self.reader, self.sock):
            if stream is not None:
                with contextlib.suppress(OSError):
                    stream.close()
        self.sock = self.reader = None

    def request(self, frame: bytes) -> Dict[str, Any]:
        """Send one encoded request under the policy; the final reply.

        A transport failure (any :class:`OSError`: a hang-up, a torn or
        unreadable reply, a reset, a timeout) drops the connection; it and
        a reply with a retryable code are retried.  The last transport
        failure is raised.
        """
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(attempts):
            last = attempt + 1 >= attempts
            try:
                if self.sock is None:
                    self.connect()
                self.sock.sendall(frame)
                reply = read_reply(self.reader.readline(), f"{self.host}:{self.port}")
            except OSError:
                # the connection is in an unknown state — rebuild it on
                # the next attempt rather than reading a stale frame
                self.close()
                if last:
                    raise
            else:
                if (
                    reply.get("ok")
                    or last
                    or not policy.retries_error(error_code(reply))
                ):
                    return reply
            self.retried += 1
            self._sleep(policy.delay(attempt, self._rng))
        raise AssertionError("unreachable")  # pragma: no cover


_TOO_LONG = protocol.error_response(protocol.E_BAD_REQUEST, "request line too long")


class LineEndpoint(Endpoint):
    """An :class:`Endpoint` serving the JSON-lines protocol.

    The loop reads a line (one over ``MAX_LINE_BYTES`` is answered
    ``bad-request``, counted in ``too_large`` and hung up) and answers
    ``ping``, ``stats`` and ``shutdown`` (if ``allow_shutdown``) itself.
    Other ops are looked up in ``ops`` (op name -> name of a method
    taking the message: a coroutine, or a blocking function run on the
    default executor); an unknown op is ``bad-request``, a
    :class:`~.protocol.ProtocolError` answers with its code and any other
    exception with ``internal``.  Subclasses fill in the hooks below.
    """

    stream_limit = protocol.MAX_LINE_BYTES
    #: op name -> name of its handler method.
    ops: Dict[str, str] = {}

    def __init__(self, host: str, port: int, allow_shutdown: bool) -> None:
        super().__init__(host, port)
        self.allow_shutdown = allow_shutdown
        self.too_large = 0  # request lines over MAX_LINE_BYTES

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        ahead = b""  # bytes of the next request :meth:`_answer` read early
        try:
            while True:
                try:
                    line = await self._while_idle(reader.readline)
                except ValueError:  # the line overran stream_limit
                    self.too_large += 1
                    await self._send(writer, _TOO_LONG)
                    return
                if not line:  # client EOF, or the endpoint is stopping
                    return
                reply, ahead = await self._answer(ahead + line, reader)
                if reply is None or not await self._send(writer, reply):
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _answer(
        self, line: bytes, reader: asyncio.StreamReader
    ) -> Tuple[Optional[Dict[str, Any]], bytes]:
        """``(reply, bytes read ahead)``; a None reply closes the connection."""
        return await self._dispatch(line), b""

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        """One request line to its reply; never raises (but cancellation)."""
        start = time.perf_counter()
        op, message = "?", None
        try:
            message = protocol.decode_line(line)
            op = str(message.get("op", "?"))
            reply = await self._handle(op, message)
        except protocol.ProtocolError as exc:
            reply = protocol.error_response(exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 — a request must never kill the endpoint
            reply = protocol.error_response(
                protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return self._on_reply(op, message, reply, time.perf_counter() - start)

    async def _handle(self, op: str, message: Dict[str, Any]) -> Dict[str, Any]:
        if op in ("ping", "stats"):
            reply = {
                "ok": True,
                "op": op,
                "version": __version__,
                "protocol": protocol.PROTOCOL_VERSION,
            }
            if op == "stats":
                reply["stats"] = {**self._stats(), "too_large": self.too_large}
            return reply
        if op == "shutdown" and self.allow_shutdown:
            self.request_stop()
            return {"ok": True, "op": "shutdown"}
        if op not in self.ops:
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, f"unknown op {op!r}"
            )
        handler = getattr(self, self.ops[op])
        if asyncio.iscoroutinefunction(handler):
            return await handler(message)
        loop = asyncio.get_running_loop()  # a blocking handler: off the loop
        return await loop.run_in_executor(None, handler, message)

    def _stats(self) -> Dict[str, Any]:
        """Hook: the endpoint's fields of the ``stats`` reply."""
        return {}

    def _on_reply(
        self, op: str, message: Optional[dict], reply: dict, wall: float
    ) -> Dict[str, Any]:
        """Hook: bookkeeping for one answered request; returns the reply."""
        return reply

    async def _encode(self, reply: Dict[str, Any]) -> bytes:
        return protocol.encode_line(reply)

    async def _send(self, writer: asyncio.StreamWriter, reply: dict) -> bool:
        """Write one reply; False ends the connection."""
        writer.write(await self._encode(reply))
        await writer.drain()
        return True
