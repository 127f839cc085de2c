"""The cache peer behind ``repro cache-serve``.

A :class:`CachePeer` is the **remote tier's server half**: a small
asyncio TCP endpoint speaking the same newline-delimited JSON protocol
as the compile service, backed by one :class:`~repro.sweep.CompileCache`
directory.  It never compiles anything — it only moves verified encoded
results (:mod:`repro.compiler.codec`) by SHA-256 job key, so a fleet of
engines can warm each other.  It never decodes them either: a hit is
served as the entry file's bytes.

Ops:

``cache-get``
    ``{"op": "cache-get", "key": K}`` answers
    ``{"ok": true, "found": true, "key": K, "blob": B}`` (``B`` the
    base64 of the encoded result) or ``{"ok": true, "found": false}``.
    The digest inside the encoded result lets the client reject a torn
    frame or torn stored entry without trusting the peer.
``cache-put``
    ``{"op": "cache-put", "key": K, "blob": B}``.  The peer checks the
    encoded result's digest against its body and rejects a mismatch
    with ``bad-request`` — a torn upload can never land.  The reply's
    ``stored`` says whether the peer's own disk write succeeded.
``stats`` / ``ping`` / ``shutdown``
    As on the compile service (``shutdown`` honoured unless started
    with ``allow_shutdown=False``).

The peer does **not** replay-validate payloads: validation needs the
circuit, which never crosses this wire.  That defense lives in the
engine (every hit from the untrusted remote tier is replay-validated on
ingest before it is served or promoted) — the peer's checksum merely
guarantees the bytes are the bytes that were stored.

``faults`` is the chaos seam: a
:class:`~repro.faultinject.ScriptedPeerFaults` can make a ``cache-get``
reset the connection mid-frame or serve a deliberately torn entry (one
flipped body byte).
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..compiler import codec
from ..sweep import CompileCache
from ..sweep.cache import payload_checksum
from . import protocol
from .endpoint import Endpoint, EndpointThread
from .remote_cache import DEFAULT_CACHE_PORT

#: 64 hex chars — the only key shape the peer will address storage with.
_KEY_LEN = 64


def _valid_key(key: Any) -> bool:
    return (
        isinstance(key, str)
        and len(key) == _KEY_LEN
        and all(c in "0123456789abcdef" for c in key)
    )


class CachePeer(Endpoint):
    """A get/put-by-key cache server over one ``CompileCache`` directory.

    Args:
        host / port: bind address (port 0 picks an ephemeral port).
        cache: the backing store (its ``size_budget``/``quarantine_cap``
            bound the peer's disk use).
        allow_shutdown: honour the ``shutdown`` op.
        faults: optional scripted fault hook (chaos harness only) with an
            ``on_get(key) -> None | "reset" | "corrupt"`` method.
    """

    kind = "cache peer"
    stream_limit = protocol.MAX_LINE_BYTES

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_CACHE_PORT,
        cache: Optional[CompileCache] = None,
        allow_shutdown: bool = True,
        faults=None,
    ) -> None:
        super().__init__(host, port)
        self.cache = cache if cache is not None else CompileCache()
        self.allow_shutdown = allow_shutdown
        self.faults = faults
        self.requests = 0
        self.rejected_puts = 0

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await self._while_idle(reader.readline)
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode_line(
                            protocol.error_response(
                                protocol.E_BAD_REQUEST, "request line too long"
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:  # client EOF, or the peer is stopping
                    break
                self.requests += 1
                response, action = await self._dispatch(line)
                data = protocol.encode_line(response)
                if action == "reset":
                    # chaos: half a frame, then a hard RST mid-response
                    writer.write(data[: max(1, len(data) // 2)])
                    with contextlib.suppress(Exception):
                        await writer.drain()
                    writer.transport.abort()
                    return
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _dispatch(
        self, line: bytes
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Resolve one request to ``(response, chaos_action)``."""
        loop = asyncio.get_running_loop()
        try:
            message = protocol.decode_line(line)
            op = str(message.get("op", "?"))
            if op == "cache-get":
                return await loop.run_in_executor(
                    None, self._handle_get, message
                )
            if op == "cache-put":
                return (
                    await loop.run_in_executor(None, self._handle_put, message),
                    None,
                )
            if op == "stats":
                return self._handle_stats(), None
            if op == "ping":
                return (
                    {
                        "ok": True,
                        "op": "ping",
                        "version": __version__,
                        "protocol": protocol.PROTOCOL_VERSION,
                    },
                    None,
                )
            if op == "shutdown" and self.allow_shutdown:
                self.request_stop()
                return {"ok": True, "op": "shutdown"}, None
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, f"unknown op {op!r}"
            )
        except protocol.ProtocolError as exc:
            return protocol.error_response(exc.code, str(exc)), None
        except Exception as exc:  # noqa: BLE001 — a request must never kill the peer
            return (
                protocol.error_response(
                    protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
                None,
            )

    # -- op handlers (run on the executor — they touch disk) ----------------

    def _handle_get(
        self, message: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        key = message.get("key")
        if not _valid_key(key):
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, "'key' must be a 64-char hex job key"
            )
        action = self.faults.on_get(key) if self.faults is not None else None
        blob = self.cache.get(key)
        if blob is None:
            return {"ok": True, "op": "cache-get", "found": False}, action
        if action == "corrupt":
            # chaos: serve a torn entry — one flipped body byte, so the
            # digest the entry carries no longer matches and the client
            # must reject it
            torn = bytearray(blob)
            torn[-1] ^= 0xFF
            blob = bytes(torn)
        return (
            {
                "ok": True,
                "op": "cache-get",
                "found": True,
                "key": key,
                "blob": base64.b64encode(blob).decode("ascii"),
            },
            action,
        )

    def _handle_put(self, message: Dict[str, Any]) -> Dict[str, Any]:
        key = message.get("key")
        if not _valid_key(key):
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, "'key' must be a 64-char hex job key"
            )
        try:
            blob = base64.b64decode(message["blob"], validate=True)
            digest, body = codec.split(blob)
            if payload_checksum(body) != digest:
                raise ValueError("checksum does not match the payload")
        except (KeyError, TypeError, ValueError) as exc:
            self.rejected_puts += 1
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST,
                f"torn or malformed upload rejected: {exc}",
            ) from None
        stored = self.cache.put(key, blob)
        return {"ok": True, "op": "cache-put", "stored": stored, "key": key}

    def _handle_stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "stats",
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "stats": {
                "dir": str(self.cache.root),
                "requests": self.requests,
                "rejected_puts": self.rejected_puts,
                "entries": len(self.cache),
                **self.cache.stats(),
            },
        }


class CachePeerThread(EndpointThread):
    """A cache peer running on a dedicated background thread."""

    endpoint_class = CachePeer

    @property
    def peer(self) -> CachePeer:
        return self.endpoint
