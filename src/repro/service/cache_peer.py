"""The cache peer behind ``repro cache-serve``.

A :class:`CachePeer` is the **remote tier's server half**: a small
asyncio TCP endpoint backed by one :class:`~repro.sweep.CompileCache`
directory.  It serves the compile service's newline-delimited JSON
protocol through the same request loop
(:class:`~repro.service.transport.LineEndpoint`) and adds only its two
ops, its stats fields and the chaos actions below.  It never compiles
anything — it only moves verified encoded results
(:mod:`repro.compiler.codec`) by SHA-256 job key, so a fleet of engines
can warm each other.  It never decodes them either: a hit is served as
the entry file's bytes.

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
    with ``allow_shutdown=False``); ``stats`` counts ``requests``,
    ``rejected_puts`` and over-long request lines (``too_large``).

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
from typing import Any, Dict, Optional

from ..compiler import codec
from ..sweep import CompileCache
from ..sweep.cache import payload_checksum
from . import protocol
from .endpoint import EndpointThread
from .remote_cache import DEFAULT_CACHE_PORT
from .transport import LineEndpoint

#: 64 hex chars — the only key shape the peer will address storage with.
_KEY_LEN = 64


def _valid_key(key: Any) -> bool:
    return (
        isinstance(key, str)
        and len(key) == _KEY_LEN
        and all(c in "0123456789abcdef" for c in key)
    )


class _TornReply(dict):
    """A ``cache-get`` reply the chaos hook wants cut off mid-frame."""


class CachePeer(LineEndpoint):
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
    ops = {"cache-get": "_handle_get", "cache-put": "_handle_put"}

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_CACHE_PORT,
        cache: Optional[CompileCache] = None,
        allow_shutdown: bool = True,
        faults=None,
    ) -> None:
        super().__init__(host, port, allow_shutdown)
        self.cache = cache if cache is not None else CompileCache()
        self.faults = faults
        self.requests = 0
        self.rejected_puts = 0

    # -- the request loop's hooks ------------------------------------------

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        self.requests += 1
        return await super()._dispatch(line)

    async def _send(self, writer: asyncio.StreamWriter, reply: dict) -> bool:
        if not isinstance(reply, _TornReply):
            return await super()._send(writer, reply)
        # chaos: half a frame, then a hard RST mid-response
        data = protocol.encode_line(reply)
        writer.write(data[: max(1, len(data) // 2)])
        with contextlib.suppress(Exception):
            await writer.drain()
        writer.transport.abort()
        return False

    # -- op handlers (run on the executor — they touch disk) ----------------

    def _handle_get(self, message: Dict[str, Any]) -> Dict[str, Any]:
        key = message.get("key")
        if not _valid_key(key):
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, "'key' must be a 64-char hex job key"
            )
        action = self.faults.on_get(key) if self.faults is not None else None
        blob = self.cache.get(key)
        if blob is None:
            reply = {"ok": True, "op": "cache-get", "found": False}
        else:
            if action == "corrupt":
                # chaos: serve a torn entry — one flipped body byte, so the
                # digest the entry carries no longer matches and the client
                # must reject it
                torn = bytearray(blob)
                torn[-1] ^= 0xFF
                blob = bytes(torn)
            reply = {
                "ok": True,
                "op": "cache-get",
                "found": True,
                "key": key,
                "blob": base64.b64encode(blob).decode("ascii"),
            }
        return _TornReply(reply) if action == "reset" else reply

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

    def _stats(self) -> Dict[str, Any]:
        return {
            "dir": str(self.cache.root),
            "requests": self.requests,
            "rejected_puts": self.rejected_puts,
            "entries": len(self.cache),
            **self.cache.stats(),
        }


class CachePeerThread(EndpointThread):
    """A cache peer running on a dedicated background thread."""

    endpoint_class = CachePeer

    @property
    def peer(self) -> CachePeer:
        return self.endpoint
