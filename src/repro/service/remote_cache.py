"""The remote cache tier: a line-protocol client of ``repro cache-serve``.

:class:`RemoteCache` implements the :class:`~repro.sweep.tiers.CacheBackend`
contract over one :class:`~repro.service.transport.Connection` (the
transport :class:`~repro.service.client.Client` uses too) to a
:mod:`~repro.service.cache_peer`.  It is the tier that lets a fleet of
engines share one content-addressed store: ``get``/``put`` by SHA-256
job key, nothing else.  The tier adds the breaker, the size check and
its counters; connecting, retrying and what counts as a transport
failure belong to the connection.

Design rules, in order of importance:

* **A remote failure is a miss, never an error.**  Connection refused,
  reset mid-frame, a timeout, a torn or garbage reply — every failure path
  counts an ``error`` and returns None (gets) or drops the write (puts).
  A sweep with a dead peer completes with fingerprints identical to a
  sweep with no peer at all.
* **Remote bytes are untrusted.**  ``trusted = False``: the engine
  replay-validates every remote hit before serving or promoting it (the
  poisoning defense).  Below that, :meth:`get` itself verifies the
  SHA-256 digest the encoded result carries, so a torn frame or torn
  remote entry is rejected (counted in ``corrupt``) before validation is
  even attempted.
* **Results ride as their encoded bytes.**  A put sends the bytes of
  :mod:`repro.compiler.codec` as one base64 field of the JSON line, and a
  hit returns the peer's stored bytes the same way; the engine promotes
  a validated hit to disk with exactly those bytes.
* **An oversized frame is refused, not sent.**  A request whose line
  would exceed :data:`~repro.service.protocol.MAX_LINE_BYTES` fails
  locally, counted in ``too_large`` (and ``errors``), instead of being
  sent only for the peer to refuse it as an over-long line.
* **Outages are cheap.**  Transient failures retry on the shared
  :class:`~repro.service.transport.RetryPolicy` (small budget, jittered
  backoff); repeated failures trip a circuit breaker that skips the
  peer entirely for ``breaker_cooldown`` seconds (counted in
  ``skipped``), so a dead peer costs one connect timeout per cooldown,
  not one per lookup.
"""

from __future__ import annotations

import base64
import random
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..compiler import codec
from ..sweep.cache import payload_checksum
from ..sweep.tiers import CacheBackend
from . import protocol
from .transport import Connection, RetryPolicy

#: default TCP port of ``repro cache-serve`` (one above the compile service).
DEFAULT_CACHE_PORT = 7788

#: default socket timeout (seconds) for connect and each response — a
#: cache peer answers from disk, so this is deliberately much tighter
#: than the compile client's budget.
DEFAULT_TIMEOUT = 2.0

#: a conservative retry budget: the tier must degrade fast, not grind.
DEFAULT_RETRY = RetryPolicy(attempts=2, base_delay=0.02, max_delay=0.1)


class RemoteCache(CacheBackend):
    """Cache tier speaking the line protocol to a ``cache-serve`` peer.

    Args:
        host / port: the peer's address.
        timeout: socket timeout for connect and each response (seconds).
        retry: :class:`RetryPolicy` for transient failures (connection
            drops and the retryable error codes); the default is a small
            two-attempt budget.
        breaker_threshold: consecutive failed requests before the
            circuit breaker opens.
        breaker_cooldown: seconds the breaker skips the peer before
            letting one probe request through.
        sleep / rng / clock: injection points (tests drive the backoff
            and the breaker without real waiting).
    """

    name = "remote"
    trusted = False
    object_store = False

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_CACHE_PORT,
        timeout: float = DEFAULT_TIMEOUT,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = breaker_cooldown
        self.corrupt = 0  # frames/entries rejected by the checksum check
        self.too_large = 0  # requests over the frame limit, never sent
        self.skipped = 0  # requests the open breaker never sent
        self.breaker_trips = 0
        self._clock = clock
        self._failures = 0
        self._resume_at = 0.0
        retry = retry if retry is not None else DEFAULT_RETRY
        self._conn = Connection(host, port, timeout, retry, sleep, rng)
        # one in-flight request at a time on the shared connection
        self._io = threading.Lock()

    def close(self) -> None:
        with self._io:
            self._conn.close()

    # -- breaker ------------------------------------------------------------

    def _breaker_open(self) -> bool:
        if self._failures < self.breaker_threshold:
            return False
        return self._clock() < self._resume_at

    def _note_failure(self) -> None:
        self._failures += 1
        if self._failures >= self.breaker_threshold:
            if self._failures == self.breaker_threshold:
                self.breaker_trips += 1
            self._resume_at = self._clock() + self.breaker_cooldown

    def _request(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One request, retried and breaker-gated; None on any failure."""
        frame = protocol.encode_line(message)
        with self._io:
            if len(frame) > protocol.MAX_LINE_BYTES:
                self.too_large += 1
                self.errors += 1
                return None
            if self._breaker_open():
                self.skipped += 1
                return None
            try:
                reply = self._conn.request(frame)
            except OSError:
                self._note_failure()
                self.errors += 1
                return None
            # a structured rejection (e.g. bad-request on a put) is a
            # healthy peer saying no — don't punish it via the breaker
            self._failures = 0
            if reply.get("ok"):
                return reply
            self.errors += 1
            return None

    # -- the CacheBackend contract ------------------------------------------

    def _get(self, key: str) -> Optional[bytes]:
        reply = self._request({"op": "cache-get", "key": key})
        if reply is None or not reply.get("found"):
            return None
        try:
            if reply.get("key") != key:
                raise ValueError("reply is for a different key")
            blob = base64.b64decode(reply["blob"], validate=True)
            digest, body = codec.split(blob)
            if payload_checksum(body) != digest:
                raise ValueError("entry failed its checksum")
        except (KeyError, TypeError, ValueError):
            # torn frame or torn remote entry: the bytes do not match
            # what the peer claims they are — reject before validation
            self.corrupt += 1
            return None
        return blob

    def _put(self, key: str, blob: bytes) -> bool:
        reply = self._request(
            {
                "op": "cache-put",
                "key": key,
                "blob": base64.b64encode(blob).decode("ascii"),
            }
        )
        stored = bool(reply and reply.get("stored"))
        if reply is not None and not stored:
            self.errors += 1  # the peer answered, but its disk write failed
        return stored

    # -- peer introspection (CLI / benchmarks) ------------------------------

    def peer_stats(self) -> Optional[Dict[str, Any]]:
        """The peer's own stats snapshot, or None if unreachable."""
        reply = self._request({"op": "stats"})
        return None if reply is None else reply.get("stats")

    def ping(self) -> bool:
        """True when the peer answers a liveness probe."""
        return self._request({"op": "ping"}) is not None

    def stats(self) -> dict:
        snap = super().stats()
        snap["corrupt"] = self.corrupt
        snap["too_large"] = self.too_large
        snap["skipped"] = self.skipped
        snap["breaker_trips"] = self.breaker_trips
        snap["peer"] = f"{self.host}:{self.port}"
        return snap

    def __enter__(self) -> "RemoteCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def parse_peer(spec: str) -> Tuple[str, int]:
    """Parse a ``HOST[:PORT]`` peer spec (the ``--remote-cache`` flag)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        return spec, DEFAULT_CACHE_PORT
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"invalid --remote-cache {spec!r}: expected HOST or HOST:PORT"
        ) from None
