"""The tiered cache: one ``CacheBackend`` contract, memo -> disk -> remote.

Caching used to be smeared across the stack — an unbounded ``_memo`` dict
inside :class:`~repro.sweep.executor.SweepEngine`, the crash-safe disk
:class:`~repro.sweep.cache.CompileCache`, and nothing at all between
fleet members.  This module gives every tier the same shape:

* :class:`CacheBackend` — the contract: ``get(key) -> bytes | None``,
  ``put(key, blob)``, ``stats()``, where ``blob`` is a result encoded by
  :mod:`repro.compiler.codec`.  Every backend counts hits, misses, puts
  (successful stores only), evictions, errors and cumulative get/put
  latency, so the service ``stats`` op and ``repro bench`` meta can
  report each tier.
* :class:`MemoryCache` — the in-process memo tier: a bounded LRU of
  live :class:`~repro.compiler.result.CompilationResult` objects
  (``SweepEngine._memo``, extracted and given an eviction policy).
* :class:`~repro.sweep.cache.CompileCache` — the disk tier (defined in
  its own module; it subclasses :class:`CacheBackend`).
* :class:`~repro.service.remote_cache.RemoteCache` — the remote tier,
  speaking the service line protocol to a ``repro cache-serve`` peer.
  It is the one **untrusted** tier: remote bytes crossed a network from
  a machine we do not control, so :class:`TieredCache` replay-validates
  them on ingest before they may be served or promoted.

:class:`TieredCache` stacks backends in lookup order.  A hit at depth N
is **promoted** into every tier above it (a remote hit warms disk and
memo; a disk hit warms memo), so the next lookup resolves at the
cheapest possible tier.  A fill (freshly compiled result) lands in every
tier, which is how one engine's compile becomes the whole fleet's warm
hit.

A result is encoded at most once on its way through the stack: a fill
encodes it once for every byte-storing tier, and a result decoded from a
lower tier is promoted with the very bytes it arrived in
(:func:`repro.compiler.codec.encoded`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compiler import codec
from ..compiler.result import CompilationResult

#: default bound on the in-process memo tier (entries, not bytes).
DEFAULT_MEMO_LIMIT = 4096

#: a guard decides whether a hit from an untrusted tier may be served:
#: ``guard(tier, key, result) -> bool``.  False rejects the entry (the
#: lookup continues deeper / misses); the guard is responsible for any
#: local quarantine bookkeeping.
IngestGuard = Callable[["CacheBackend", str, CompilationResult], bool]


class CacheBackend:
    """Contract and shared accounting for one cache tier.

    Subclasses implement ``_get(key) -> Optional[bytes]`` and
    ``_put(key, blob) -> bool`` (True when stored); the public
    :meth:`get`/:meth:`put` wrappers record hit/miss/put counters and
    cumulative latency.  Backends that hold live result objects (the memo
    tier) override :meth:`get_result`/:meth:`put_result` to skip the
    codec — those overrides must record the same counters via
    :meth:`_record_get`/:meth:`_record_put`.

    Attributes:
        name: stable tier name (``"memo"``/``"disk"``/``"remote"``) used
            as the provenance label in sweep counters and stats payloads.
        trusted: False for tiers whose bytes crossed a trust boundary;
            :class:`TieredCache` replay-validates their hits on ingest.
        object_store: True when the tier stores live result objects and
            ignores the encoded payload (lets :class:`TieredCache` skip
            encoding when no byte-storing tier needs filling).
    """

    name = "tier"
    trusted = True
    object_store = False

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.errors = 0
        self.rejected = 0
        self.get_ms = 0.0
        self.put_ms = 0.0
        self._stats_lock = threading.Lock()

    # -- counter recording (shared by wrappers and fast-path overrides) -----

    def _record_get(self, hit: bool, started: float) -> None:
        elapsed = (time.perf_counter() - started) * 1000.0
        with self._stats_lock:
            self.get_ms += elapsed
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def _record_put(self, started: float, stored: bool = True) -> None:
        elapsed = (time.perf_counter() - started) * 1000.0
        with self._stats_lock:
            self.put_ms += elapsed
            if stored:
                self.puts += 1

    # -- the byte-level contract --------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The encoded result stored under ``key``, or None (a miss)."""
        started = time.perf_counter()
        blob = self._get(key)
        self._record_get(blob is not None, started)
        return blob

    def put(self, key: str, blob: bytes) -> bool:
        """Store an encoded result under ``key`` (best effort).

        Returns whether it was stored; only a stored entry counts as a put.
        """
        started = time.perf_counter()
        stored = self._put(key, blob)
        self._record_put(started, stored)
        return stored

    def _get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def _put(self, key: str, blob: bytes) -> bool:
        raise NotImplementedError

    # -- object-level fast path (what the engine actually calls) ------------

    def get_result(self, key: str) -> Optional[CompilationResult]:
        """Like :meth:`get` but returning a live (decoded) result object.

        Bytes that pass the tier's integrity check but do not decode are
        counted in ``rejected`` and missed, like an entry the ingest guard
        refuses.
        """
        blob = self.get(key)
        if blob is None:
            return None
        try:
            return codec.decode(blob)
        except codec.CodecError:
            with self._stats_lock:
                self.rejected += 1
            return None

    def put_result(
        self,
        key: str,
        result: CompilationResult,
        payload: Optional[bytes] = None,
    ) -> None:
        """Like :meth:`put` from a live result.

        ``payload`` lets callers that already hold the encoded bytes (a
        worker round-trip, a fill into several tiers) skip encoding.
        """
        self.put(key, payload if payload is not None else codec.encoded(result))

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        """Hit/miss/latency/eviction counter snapshot for this tier."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "errors": self.errors,
            "rejected": self.rejected,
            "get_ms": round(self.get_ms, 3),
            "put_ms": round(self.put_ms, 3),
        }


class MemoryCache(CacheBackend):
    """The memo tier: a bounded LRU of live results, thread-safe.

    This is ``SweepEngine._memo`` promoted to a real backend: same
    in-process speed (no serialization on the fast path), but bounded —
    a paper-scale sweep or a long-lived service can no longer grow the
    memo without limit.  Eviction is least-recently-used; a hit (or a
    re-put) refreshes recency.
    """

    name = "memo"
    trusted = True
    object_store = True

    def __init__(self, limit: int = DEFAULT_MEMO_LIMIT) -> None:
        super().__init__()
        self.limit = max(1, int(limit))
        self._entries: "OrderedDict[str, CompilationResult]" = OrderedDict()
        self._lock = threading.Lock()

    def _fetch(self, key: str) -> Optional[CompilationResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def _insert(self, key: str, result: CompilationResult) -> None:
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            with self._stats_lock:
                self.evictions += evicted

    def _get(self, key: str) -> Optional[bytes]:
        result = self._fetch(key)
        return None if result is None else codec.encoded(result)

    def _put(self, key: str, blob: bytes) -> bool:
        self._insert(key, codec.decode(blob))
        return True

    def get_result(self, key: str) -> Optional[CompilationResult]:
        started = time.perf_counter()
        result = self._fetch(key)
        self._record_get(result is not None, started)
        return result

    def put_result(
        self,
        key: str,
        result: CompilationResult,
        payload: Optional[bytes] = None,
    ) -> None:
        started = time.perf_counter()
        self._insert(key, result)
        self._record_put(started)

    def discard(self, key: str) -> bool:
        """Drop one entry (the chaos harness's purge hook)."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        snap = super().stats()
        snap["entries"] = len(self)
        snap["limit"] = self.limit
        return snap


class TieredCache:
    """An ordered stack of :class:`CacheBackend` tiers.

    Lookup walks the tiers cheapest-first and **promotes on hit**: a
    result found at depth N is written into every tier above it, so the
    stack converges toward serving from the memo.  Fills (fresh
    compiles) land in every tier — including the remote peer, which is
    how one engine's work warms the fleet.

    Hits from untrusted tiers pass through the ``guard`` first; a
    rejected entry is never served and never promoted (the lookup keeps
    walking deeper tiers, and ultimately misses).
    """

    def __init__(self, tiers: Sequence[CacheBackend]) -> None:
        self.tiers: List[CacheBackend] = list(tiers)

    def lookup(
        self, key: str, guard: Optional[IngestGuard] = None
    ) -> Optional[Tuple[CompilationResult, str]]:
        """Resolve ``key`` to ``(result, tier_name)``, or None on a miss."""
        for depth, tier in enumerate(self.tiers):
            result = tier.get_result(key)
            if result is None:
                continue
            if not tier.trusted and guard is not None:
                if not guard(tier, key, result):
                    with tier._stats_lock:
                        tier.rejected += 1
                    continue
            self._promote(key, result, depth)
            return result, tier.name
        return None

    def _promote(self, key: str, result: CompilationResult, depth: int) -> None:
        if depth > 0:
            self._put_all(self.tiers[:depth], key, result)

    def fill(
        self,
        key: str,
        result: CompilationResult,
        payload: Optional[bytes] = None,
    ) -> None:
        """Store a fresh result in every tier (encoding at most once)."""
        self._put_all(self.tiers, key, result, payload)

    @staticmethod
    def _put_all(
        tiers: Sequence[CacheBackend],
        key: str,
        result: CompilationResult,
        payload: Optional[bytes] = None,
    ) -> None:
        if payload is None and any(not tier.object_store for tier in tiers):
            payload = codec.encoded(result)
        for tier in tiers:
            tier.put_result(key, result, payload)

    def stats(self) -> Dict[str, dict]:
        """Per-tier counter snapshots, keyed by tier name."""
        return {tier.name: tier.stats() for tier in self.tiers}
