"""Low-overhead per-phase wall/call profiler for the compile pipeline.

Performance claims need attribution: "the compiler got 2x faster" is only
auditable when the trajectory says *which phase* paid for it.  This module
provides named phase seams — a context manager and a decorator — that the
pipeline, router, scheduler, optimiser and validator wrap around their hot
sections.  When no profile is active every seam is a single global load
and ``is None`` test, so instrumented code runs at full speed; when a
:class:`PhaseProfiler` is active each seam costs two ``perf_counter``
calls and a couple of dict operations.

Phases nest: a ``route.path`` search inside ``schedule.cnot`` is recorded
under both, and each phase tracks *exclusive* time (``self``) next to
inclusive wall time, so the breakdown sums sensibly even with nesting.

Usage::

    from repro.perf import profiler

    with profiler.capture() as prof:
        compiler.compile(circuit)
    print(prof.as_dict())

``perfbench/`` captures one profile per traced pass and folds them
together with :meth:`PhaseProfiler.merge`.

The profiler is process-local and not thread-safe by design — compile
work fans out across *processes* (the sweep engine, the service pool),
each of which profiles independently.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Optional

#: the currently active profiler, or None (the fast path).  One per
#: process; nested ``capture()`` calls are rejected.
_ACTIVE: Optional["PhaseProfiler"] = None


class PhaseStats:
    """Accumulated wall/call counters for one named phase."""

    __slots__ = ("wall", "self_wall", "calls")

    def __init__(self) -> None:
        self.wall = 0.0       # inclusive: children counted
        self.self_wall = 0.0  # exclusive: children subtracted
        self.calls = 0

    def as_dict(self) -> dict:
        return {
            "wall": round(self.wall, 6),
            "self": round(self.self_wall, 6),
            "calls": self.calls,
        }


class PhaseProfiler:
    """Collects per-phase timings while installed via :func:`capture`."""

    __slots__ = ("phases", "_stack")

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStats] = {}
        # stack of [name, start, child_time] frames for exclusive-time
        # accounting; a plain list is faster than frame objects.
        self._stack = []

    # -- seam entry/exit (hot when active) ---------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats()
        stats.calls += 1
        stats.self_wall += elapsed - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += elapsed
            # Re-entrant phases (recursive planning): only the outermost
            # activation contributes inclusive wall, or nested calls would
            # double-count the same seconds.
            for frame in self._stack:
                if frame[0] == name:
                    return
        stats.wall += elapsed

    # -- reporting ---------------------------------------------------------

    def as_dict(self) -> Dict[str, dict]:
        """Phase name -> {wall, self, calls}, sorted by inclusive wall."""
        return {
            name: stats.as_dict()
            for name, stats in sorted(
                self.phases.items(), key=lambda kv: -kv[1].wall
            )
        }

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's counters into this one (suite totals)."""
        for name, theirs in other.phases.items():
            stats = self.phases.get(name)
            if stats is None:
                stats = self.phases[name] = PhaseStats()
            stats.wall += theirs.wall
            stats.self_wall += theirs.self_wall
            stats.calls += theirs.calls


@contextmanager
def capture():
    """Install a fresh profiler for the duration of the ``with`` block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a phase profiler is already active")
    prof = PhaseProfiler()
    _ACTIVE = prof
    try:
        yield prof
    finally:
        _ACTIVE = None


class _PhaseSeam:
    """Context-manager seam: times its block when a profiler is active.

    A plain slotted class instead of ``@contextmanager``: seams sit inside
    per-route and per-op loops, and skipping the generator machinery keeps
    the inactive path to an attribute load and an ``is None`` test.
    """

    __slots__ = ("name", "_entered")

    def __init__(self, name: str) -> None:
        self.name = name
        self._entered = False

    def __enter__(self) -> None:
        prof = _ACTIVE
        if prof is not None:
            self._entered = True
            prof.enter(self.name)

    def __exit__(self, *exc) -> bool:
        # Guarded by the entry flag so a profiler installed mid-block
        # never sees an exit() without its matching enter().
        if self._entered:
            self._entered = False
            prof = _ACTIVE
            if prof is not None:
                prof.exit()
        return False


def phase(name: str) -> _PhaseSeam:
    """Context-manager seam: time the enclosed block under ``name``."""
    return _PhaseSeam(name)


def profiled(name: str) -> Callable:
    """Decorator seam: time every call of the wrapped function.

    The inactive path is one global load and an ``is None`` test on top
    of the call itself.
    """

    def wrap(fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            prof = _ACTIVE
            if prof is None:
                return fn(*args, **kwargs)
            prof.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                prof.exit()

        timed.__name__ = fn.__name__
        timed.__qualname__ = fn.__qualname__
        timed.__doc__ = fn.__doc__
        timed.__wrapped__ = fn
        timed.__module__ = fn.__module__
        return timed

    return wrap
