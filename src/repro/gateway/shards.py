"""Key-hash sharding of compile jobs across ``CompileService`` backends.

The gateway never compiles anything itself: every job is dispatched to
one of N backend compile services over the existing newline-JSON
protocol.  The shard a key lands on is a pure function of the key and
the *healthy* shard set — hot keys always hash to the same shard, so the
backend broker's coalescing keeps working across tenants, and when a
backend dies the router degrades to fewer shards (the same keys remap
deterministically onto the survivors) instead of failing requests.

Failure handling shares :mod:`repro.service.transport`: its
:class:`RetryPolicy` paces redispatch (exponential backoff + full
jitter), and its reply reader decides what a transport failure is — a
reset, EOF, a torn or undecodable reply.  One marks the shard down at
once and the job remaps; a reply over ``MAX_LINE_BYTES`` fails the job
and leaves the shard up.  A background health loop pings downed shards
and re-admits them once they answer again.  ``force_down`` is the chaos
/ test seam — it marks a shard dead *and severs its in-flight
connections*, which is what a SIGKILLed backend looks like from here.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..service import protocol
from ..service.transport import RetryPolicy, error_code, read_reply


class NoShardsError(RuntimeError):
    """Every backend shard is down; the job cannot be dispatched."""


@dataclass
class Shard:
    """One backend compile service and its health/dispatch bookkeeping."""

    index: int
    host: str
    port: int
    healthy: bool = True
    forced_down: bool = False
    dispatched: int = 0
    failures: int = 0
    writers: Set[asyncio.StreamWriter] = field(default_factory=set)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def sever(self) -> None:
        """Abort every in-flight connection to this shard (kill seam)."""
        for writer in list(self.writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()


class ShardRouter:
    """Routes job keys to healthy backend shards with retry + remap.

    Args:
        addresses: ``(host, port)`` per backend compile service.
        retry: backoff policy for redispatch (PR 6 semantics: full
            jitter, retries connection failures and the retryable
            protocol codes).
        rng / sleep: injection points for the backoff schedule — tests
            pass a seeded rng and a no-op async sleep.
        connect_timeout / request_timeout: per-dispatch bounds in
            seconds.
        health_interval: seconds between health-loop probe rounds.
    """

    def __init__(
        self,
        addresses: List[Tuple[str, int]],
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        sleep: Optional[Callable[[float], Any]] = None,
        connect_timeout: float = 5.0,
        request_timeout: float = 120.0,
        health_interval: float = 0.25,
    ) -> None:
        if not addresses:
            raise ValueError("shard router needs at least one backend")
        self.shards = [
            Shard(index=i, host=host, port=port)
            for i, (host, port) in enumerate(addresses)
        ]
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.health_interval = health_interval
        self.remaps = 0
        self._health_task: Optional[asyncio.Task] = None

    # -- routing ------------------------------------------------------------

    def healthy_shards(self) -> List[Shard]:
        return [shard for shard in self.shards if shard.healthy]

    def shard_for(self, key: str) -> Optional[Shard]:
        """The healthy shard owning ``key`` (None when all are down).

        Hashing the key over the *current healthy set* keeps the mapping
        deterministic for a fixed fleet state while letting the router
        degrade to fewer shards when backends die.
        """
        healthy = self.healthy_shards()
        if not healthy:
            return None
        return healthy[int(key[:16], 16) % len(healthy)]

    # -- dispatch -----------------------------------------------------------

    async def dispatch(self, key: str, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one compile request to the shard owning ``key``.

        Returns the backend's raw response dict (``ok`` true or false).
        Connection failures mark the shard down and redispatch onto the
        remapped owner after a jittered backoff; retryable error codes
        (``overloaded`` / ``timeout``) back off on the same shard.
        Raises :class:`NoShardsError` once every shard is down or the
        attempt budget is spent on connection failures, and the
        ``ValueError`` of a reply over ``MAX_LINE_BYTES`` as it is.
        """
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retry.attempts):
            shard = self.shard_for(key)
            if shard is None:
                raise NoShardsError(
                    "all backend shards are down"
                ) from last_exc
            try:
                response = await self._exchange(shard, message)
            except (OSError, asyncio.TimeoutError) as exc:
                self._mark_down(shard)
                self.remaps += 1
                last_exc = exc
            else:
                shard.dispatched += 1
                if not response.get("ok"):
                    if (
                        self.retry.retries_error(error_code(response))
                        and attempt + 1 < self.retry.attempts
                    ):
                        await self._sleep(self.retry.delay(attempt, self._rng))
                        continue
                return response
            if attempt + 1 < self.retry.attempts:
                await self._sleep(self.retry.delay(attempt, self._rng))
        raise NoShardsError(
            f"dispatch of {key[:12]}... exhausted "
            f"{self.retry.attempts} attempts"
        ) from last_exc

    async def _exchange(
        self, shard: Shard, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                shard.host, shard.port, limit=protocol.MAX_LINE_BYTES
            ),
            timeout=self.connect_timeout,
        )
        shard.writers.add(writer)
        try:
            if shard.forced_down:
                raise ConnectionError(f"shard {shard.index} is down")
            writer.write(protocol.encode_line(message))
            await writer.drain()
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.request_timeout
                )
            except ValueError:  # asyncio's limit overrun: the shard is fine
                raise ValueError(f"shard {shard.index} reply too long") from None
            return read_reply(line, f"shard {shard.index}")
        finally:
            shard.writers.discard(writer)
            writer.close()

    def _mark_down(self, shard: Shard) -> None:
        shard.healthy = False
        shard.failures += 1
        shard.sever()

    # -- health -------------------------------------------------------------

    def force_down(self, index: int) -> None:
        """Chaos seam: treat shard ``index`` as SIGKILLed.

        The shard is marked unhealthy, its in-flight connections are
        aborted mid-frame, and the health loop will not re-admit it
        until :meth:`revive` clears the flag.
        """
        shard = self.shards[index]
        shard.forced_down = True
        self._mark_down(shard)

    def revive(self, index: int) -> None:
        """Allow the health loop to re-admit shard ``index``."""
        self.shards[index].forced_down = False

    async def ping(self, shard: Shard) -> bool:
        """One liveness probe against ``shard`` (never raises)."""
        try:
            response = await self._exchange(shard, {"op": "ping"})
        except (OSError, asyncio.TimeoutError, ValueError):
            return False
        return bool(response.get("ok"))

    async def health_loop(self) -> None:
        """Re-admit downed shards as their backends come back.

        Runs forever; the gateway cancels it on shutdown.  Forced-down
        shards (chaos seam) are skipped until revived.
        """
        while True:
            await asyncio.sleep(self.health_interval)
            for shard in self.shards:
                if shard.healthy or shard.forced_down:
                    continue
                if await self.ping(shard):
                    shard.healthy = True

    def start_health_loop(self) -> None:
        if self._health_task is None or self._health_task.done():
            self._health_task = asyncio.ensure_future(self.health_loop())

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for shard in self.shards:
            shard.sever()

    # -- stats --------------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {
                "shard": shard.index,
                "address": shard.address,
                "healthy": shard.healthy,
                "dispatched": shard.dispatched,
                "failures": shard.failures,
            }
            for shard in self.shards
        ]
