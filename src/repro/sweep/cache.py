"""Persistent, content-addressed store of compilation results (disk tier).

Each entry is one file named by its job key (see
:mod:`repro.sweep.jobs`): ``<cache_dir>/<key[:2]>/<key>.json``.  It holds
the key (64 ASCII hex characters) followed by the result exactly as
:func:`repro.compiler.codec.encode` produced it — the bytes the worker
sent over the pool pipe and the cache peer sends over its socket (the
``.json`` suffix is kept so the path scheme never changes).  Because
the key already covers the circuit, the full compiler config and the
serialization schema, invalidation is automatic — any change to the input
or the format simply addresses a different file.  Deleting the directory
(or passing ``--no-cache``) is always safe.

:class:`CompileCache` is the **disk tier** of the tiered cache (see
:mod:`repro.sweep.tiers`): it implements the :class:`CacheBackend`
contract (``get``/``put``/``stats``) on top of its crash-safe store, and
optionally enforces a byte ``size_budget`` with least-recently-used
eviction.  Eviction never removes an entry that is being read right now
(reads pin their key), so a tight budget degrades hit rate, never
correctness.

The store is crash-safe in both directions:

* **writes** go to a temp file in the entry's directory, are ``fsync``\\ ed,
  and land via ``os.replace`` — a crash (or a parallel writer) can never
  leave a torn entry under the final name, and a power loss cannot leave
  an empty one.  A failing write (disk full, permission error) is
  *counted*, not raised: the cache is an accelerator, so the caller's
  freshly compiled result must still reach the client.
* **reads** verify the SHA-256 checksum the encoded result carries over
  its compressed body.  An entry that fails to parse, fails its
  checksum, or carries the wrong key is **quarantined** — moved into
  ``<cache_dir>/quarantine/`` and counted — never silently served and
  never allowed to crash the request; the lookup simply misses and the
  job recompiles.  Transient I/O errors (``EIO`` and friends) miss
  without quarantining, since the bytes on disk may be fine.

The quarantine directory itself is bounded (``quarantine_cap`` entries,
oldest evicted first), so a flaky disk cannot grow it without limit.

``FaultInjector`` is the seam the chaos harness uses to make disk
failures deterministic: its hooks run inside ``load``/``store`` and may
raise ``OSError`` or truncate the just-written file.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, TypeVar, Union

from ..compiler import codec
from ..compiler.codec import payload_checksum
from ..compiler.result import CompilationResult
from .tiers import CacheBackend

_T = TypeVar("_T")

#: environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: subdirectory (under the cache root) where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

#: default bound on quarantined entries kept around for post-mortems.
DEFAULT_QUARANTINE_CAP = 64

#: an entry file starts with its 64-hex-character job key.
_KEY_BYTES = 64


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/sweep``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweep"


class FaultInjector:
    """Deterministic disk-fault hooks for the chaos harness.

    Subclass (or assign the attributes) to inject failures; the default
    hooks do nothing.  ``on_read``/``on_write`` run inside
    :meth:`CompileCache.load` / :meth:`CompileCache.store` and may raise
    ``OSError`` to simulate I/O failure; ``after_write`` runs after the
    entry has landed under its final name and may mutilate it (truncate,
    overwrite) to simulate a torn write that snuck past the journal.
    """

    def on_read(self, path: Path) -> None:  # pragma: no cover - default no-op
        pass

    def on_write(self, path: Path) -> None:  # pragma: no cover - default no-op
        pass

    def after_write(self, path: Path) -> None:  # pragma: no cover - no-op
        pass


class CompileCache(CacheBackend):
    """On-disk result store with hit/miss and corruption accounting.

    The disk tier of the tiered cache: implements the
    :class:`~repro.sweep.tiers.CacheBackend` contract, plus the legacy
    object-level :meth:`load`/:meth:`store` API the rest of the codebase
    grew up with.

    Args:
        cache_dir: entry-tree root (default ``$REPRO_CACHE_DIR``, else
            ``~/.cache/repro/sweep``).
        faults: optional :class:`FaultInjector` (chaos harness seam).
        size_budget: soft bound in bytes on the entry tree; exceeding it
            evicts least-recently-used entries (pinned — currently being
            read — entries are skipped).  None disables eviction.
        quarantine_cap: bound on files kept in ``quarantine/``; the
            oldest are deleted beyond it.  None disables the cap.

    Attributes:
        hits / misses / stores: counters since construction (misses count
            only failed lookups, not stores).
        quarantined: corrupt entries moved aside by :meth:`load`.
        read_errors: transient I/O failures during :meth:`load` (missed
            without quarantining).
        store_errors: failed :meth:`store` calls (swallowed, counted).
        evictions: entries removed by the size budget.
        quarantine_evictions: quarantined files removed by the cap.
    """

    name = "disk"
    trusted = True
    object_store = False

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        faults: Optional[FaultInjector] = None,
        size_budget: Optional[int] = None,
        quarantine_cap: Optional[int] = DEFAULT_QUARANTINE_CAP,
    ) -> None:
        super().__init__()
        self.root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.faults = faults
        self.size_budget = size_budget
        self.quarantine_cap = quarantine_cap
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.read_errors = 0
        self.store_errors = 0
        self.quarantine_evictions = 0
        # LRU index over the entry tree (key -> size in bytes), built
        # lazily from a directory scan the first time the budget matters.
        self._index: Optional["OrderedDict[str, int]"] = None
        self._index_bytes = 0
        # keys with a read in flight; eviction must never unlink them
        self._pins: Dict[str, int] = {}
        self._mu = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read path ----------------------------------------------------------

    def _read_entry(
        self, key: str, build: Callable[[bytes], _T]
    ) -> Optional[_T]:
        """``build(encoded result)`` for ``key``'s verified entry, or None.

        A missing file is a plain miss.  A present-but-unreadable file is
        a miss that counts a ``read_error`` (the bytes may be fine — the
        I/O was not).  A readable file that carries the wrong key, fails
        the checksum or fails ``build`` is quarantined: moved to
        ``quarantine/`` and counted, so corruption is visible in stats
        and can never be served or re-hit on the next lookup.
        """
        path = self._path(key)
        try:
            if self.faults is not None:
                self.faults.on_read(path)
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.read_errors += 1
            self.misses += 1
            return None
        try:
            if raw[:_KEY_BYTES] != key.encode():
                raise ValueError("entry is addressed by a different key")
            blob = raw[_KEY_BYTES:]
            digest, body = codec.split(blob)
            if payload_checksum(body) != digest:
                raise ValueError("entry failed its checksum")
            value = build(blob)
        except ValueError:
            self._quarantine(path)
            self._forget(key)
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key, len(raw))
        return value

    def _pinned_read(
        self, key: str, build: Callable[[bytes], _T]
    ) -> Optional[_T]:
        """Read ``key`` with the entry pinned against concurrent eviction."""
        started = time.perf_counter()
        self._pin(key)
        try:
            return self._read_entry(key, build)
        finally:
            self._unpin(key)
            self.get_ms += (time.perf_counter() - started) * 1000.0

    def load(self, key: str) -> Optional[CompilationResult]:
        """The verified cached result for ``key``, or None (see `_read_entry`)."""
        return self._pinned_read(key, codec.decode)

    def get(self, key: str) -> Optional[bytes]:
        """CacheBackend contract: the verified encoded result, undecoded."""
        return self._pinned_read(key, bytes)

    def get_result(self, key: str) -> Optional[CompilationResult]:
        return self.load(key)

    # -- write path ---------------------------------------------------------

    def _write_entry(self, key: str, blob: bytes) -> bool:
        path = self._path(key)
        tmp = None
        try:
            if self.faults is not None:
                self.faults.on_write(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(key.encode())
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            tmp = None
        except OSError:
            self.store_errors += 1
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.stores += 1
        self.puts += 1
        self._touch(key, _KEY_BYTES + len(blob))
        self._evict_to_budget()
        if self.faults is not None:
            self.faults.after_write(path)
        return True

    def put(self, key: str, blob: bytes) -> bool:
        """Durably persist an encoded result under ``key`` (atomic).

        A failing write is swallowed and counted in ``store_errors``: the
        cache accelerates later runs, it must never fail the run that is
        trying to warm it.  Returns whether the entry landed.
        """
        started = time.perf_counter()
        try:
            return self._write_entry(key, blob)
        finally:
            self.put_ms += (time.perf_counter() - started) * 1000.0

    def store(self, key: str, result: CompilationResult) -> None:
        """Object-level :meth:`put` (the legacy API)."""
        self.put(key, codec.encoded(result))

    def put_result(
        self,
        key: str,
        result: CompilationResult,
        payload: Optional[bytes] = None,
    ) -> None:
        self.put(key, payload if payload is not None else codec.encoded(result))

    # -- LRU size budget ----------------------------------------------------

    def _ensure_index(self) -> None:
        if self._index is not None:
            return
        with self._mu:
            if self._index is not None:
                return
            entries = []
            if self.root.is_dir():
                for path in self.root.glob("[0-9a-f][0-9a-f]/*.json"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, path.stem, stat.st_size))
            index: "OrderedDict[str, int]" = OrderedDict()
            total = 0
            # oldest first, so a cold start evicts stale entries first
            for _, key, size in sorted(entries):
                index[key] = size
                total += size
            self._index = index
            self._index_bytes = total

    def _touch(self, key: str, size: int) -> None:
        """Record ``key`` as most-recently-used at ``size`` bytes."""
        if self.size_budget is None:
            return
        self._ensure_index()
        with self._mu:
            old = self._index.pop(key, None)
            if old is not None:
                self._index_bytes -= old
            self._index[key] = size
            self._index_bytes += size

    def _forget(self, key: str) -> None:
        if self._index is None:
            return
        with self._mu:
            old = self._index.pop(key, None)
            if old is not None:
                self._index_bytes -= old

    def _evict_to_budget(self) -> None:
        """Unlink least-recently-used entries until under ``size_budget``.

        Pinned keys (a read is in flight) are never victims: the budget
        is a soft bound, and an entry being served right now must remain
        on disk until its read completes.
        """
        if self.size_budget is None:
            return
        victims = []
        with self._mu:
            while self._index_bytes > self.size_budget:
                victim = next(
                    (k for k in self._index if k not in self._pins), None
                )
                if victim is None:  # everything left is pinned
                    break
                self._index_bytes -= self._index.pop(victim)
                victims.append(victim)
        for key in victims:
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            self.evictions += 1

    def _pin(self, key: str) -> None:
        with self._mu:
            self._pins[key] = self._pins.get(key, 0) + 1

    def _unpin(self, key: str) -> None:
        with self._mu:
            count = self._pins.get(key, 0) - 1
            if count <= 0:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count

    def discard(self, key: str) -> bool:
        """Drop one entry from the tree (the chaos harness's purge hook)."""
        removed = False
        try:
            os.unlink(self._path(key))
            removed = True
        except OSError:
            pass
        self._forget(key)
        return removed

    # -- quarantine ---------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (best effort — never raises)."""
        target_dir = self.root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # quarantine dir unwritable: fall back to deleting the entry
            # so the corruption at least cannot be re-read
            try:
                os.unlink(path)
            except OSError:
                pass
        self.quarantined += 1
        self._trim_quarantine()

    def quarantine_payload(
        self, key: str, blob: bytes, reason: str = "remote"
    ) -> None:
        """Park a poisoned encoded result that never touched the entry tree.

        Used when an **untrusted** tier (a remote peer) serves an entry
        that fails replay validation: the bytes were never written under
        ``<key[:2]>/<key>.json``, but keeping them around (bounded, like
        every quarantined entry, and in the entry layout) makes the
        poisoning diagnosable.
        """
        target_dir = self.root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            with open(target_dir / f"{key}.{reason}.json", "wb") as handle:
                handle.write(key.encode())
                handle.write(blob)
        except OSError:
            return
        self.quarantined += 1
        self._trim_quarantine()

    def _trim_quarantine(self) -> None:
        """Delete the oldest quarantined files beyond ``quarantine_cap``."""
        if self.quarantine_cap is None:
            return
        target_dir = self.root / QUARANTINE_DIR
        try:
            files = [p for p in target_dir.iterdir() if p.is_file()]
        except OSError:
            return
        if len(files) <= self.quarantine_cap:
            return

        def _mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        files.sort(key=lambda p: (_mtime(p), p.name))
        for victim in files[: len(files) - self.quarantine_cap]:
            try:
                victim.unlink()
                self.quarantine_evictions += 1
            except OSError:
                pass

    # -- reporting ----------------------------------------------------------

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def health(self) -> dict:
        """Counter snapshot for the service stats endpoint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "read_errors": self.read_errors,
            "store_errors": self.store_errors,
        }

    def stats(self) -> dict:
        """CacheBackend tier snapshot plus :meth:`health` and the disk's own.

        ``errors`` counts failed reads and failed stores alike.
        """
        snap = super().stats()
        snap.update(self.health())
        snap["errors"] = self.read_errors + self.store_errors
        snap["quarantine_evictions"] = self.quarantine_evictions
        snap["size_budget"] = self.size_budget
        if self._index is not None:
            snap["entries"] = len(self._index)
            snap["size_bytes"] = self._index_bytes
        return snap

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("[0-9a-f][0-9a-f]/*.json"))
