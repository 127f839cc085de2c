"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` records one :class:`Span` per call into a layer: its
name, start, end, parent span and trace id.  Spans are kept in memory and
written out once, when the run ends.  The parent is whatever span was
current when the call started (a :mod:`contextvars` variable, so asyncio
tasks inherit it); the trace id is given by the probe or inherited from
the nearest ancestor that has one.

Layers are probed from the outside: :meth:`Tracer.wrap` replaces a
function, method, static- or classmethod on its owner with a timed
wrapper, and :meth:`Tracer.uninstall` puts every original back.  Nothing
under ``src/`` is edited.  Because modules bind some names at import, a
name is wrapped in every module that holds it (see :func:`install_probes`).

While probes are installed, ``run_in_executor`` copies the caller's
context into the worker thread (as :func:`asyncio.to_thread` does), so a
span opened on an executor thread still nests under the request that
scheduled it.

A span's self time is its duration minus the part of it that its child
spans cover (children are clipped to the parent and their overlaps
merged), so self times add up to the wall of the root span.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

TraceFn = Optional[Callable[..., Optional[str]]]


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "trace", "start", "end", "parent")

    def __init__(self, name: str, trace: Optional[str], parent: Optional["Span"]):
        self.name = name
        self.trace = trace
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def trace_id(self) -> Optional[str]:
        span: Optional[Span] = self
        while span is not None:
            if span.trace is not None:
                return span.trace
            span = span.parent
        return None


class Tracer:
    """Collects spans from the probes it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, trace: Optional[str] = None) -> Tuple[Span, Any]:
        span = Span(name, trace, _CURRENT.get())
        return span, _CURRENT.set(span)

    def finish(self, span: Span, token: Any) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def span(self, name: str, trace: Optional[str] = None) -> "_SpanScope":
        """Context manager: one span around the ``with`` block."""
        return _SpanScope(self, name, trace)

    # -- probes -----------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        trace: TraceFn = None,
        trace_result: TraceFn = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``trace(*args, **kwargs)`` names the trace id from the call's
        arguments; ``trace_result(result)`` names it from the return value
        (for calls that compute the key themselves).
        """
        static = inspect.getattr_static(owner, attr)
        # an inherited method is removed again on uninstall, not copied down
        restore = not isinstance(owner, type) or attr in owner.__dict__
        if isinstance(static, staticmethod):
            replacement: Any = staticmethod(
                self._timed(static.__func__, name, trace, trace_result)
            )
        elif isinstance(static, classmethod):
            replacement = classmethod(
                self._timed(static.__func__, name, trace, trace_result)
            )
        else:
            replacement = self._timed(static, name, trace, trace_result)
        self._patches.append((owner, attr, restore, static))
        setattr(owner, attr, replacement)

    def wrap_future(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a method returning a future: the span ends when it resolves."""
        original = inspect.getattr_static(owner, attr)
        tracer = self

        @functools.wraps(original)
        def submit(*args, **kwargs):
            span = Span(name, None, _CURRENT.get())
            future = original(*args, **kwargs)

            def done(_future) -> None:
                span.end = time.perf_counter()
                tracer.spans.append(span)

            future.add_done_callback(done)
            return future

        self._patches.append((owner, attr, attr in owner.__dict__, original))
        setattr(owner, attr, submit)

    def _timed(self, fn: Callable, name: str, trace: TraceFn, trace_result: TraceFn):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, token = tracer.begin(name, trace(*args, **kwargs) if trace else None)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.finish(span, token)
                if trace_result is not None and span.trace is None:
                    span.trace = trace_result(result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer.begin(name, trace(*args, **kwargs) if trace else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span, token)
            if trace_result is not None and span.trace is None:
                span.trace = trace_result(result)
            return result

        return traced

    def patch_executor_context(self) -> None:
        """Make ``run_in_executor`` carry the caller's span into the thread."""
        loop_cls = asyncio.BaseEventLoop
        original = loop_cls.__dict__["run_in_executor"]

        def run_in_executor(loop, executor, func, *args):
            return original(loop, executor, contextvars.copy_context().run, func, *args)

        self._patches.append((loop_cls, "run_in_executor", True, original))
        loop_cls.run_in_executor = run_in_executor

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            owner, attr, restore, original = self._patches.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------------

    def layer_totals(self, spans: Optional[Iterable[Span]] = None) -> Dict[str, dict]:
        """Per span name: summed self time, summed wall and call count."""
        spans = list(self.spans if spans is None else spans)
        own = self_times(spans)
        totals: Dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
        for span, self_s in zip(spans, own):
            row = totals[span.name]
            row["self_s"] += self_s
            row["wall_s"] += span.duration
            row["calls"] += 1
        return dict(totals)

    def descendants(self, root: Span) -> List[Span]:
        """Spans whose ancestor chain reaches ``root`` (root excluded)."""
        inside = {id(root)}
        found: List[Span] = []
        # parents always start before their children: one sorted pass
        for span in sorted(self.spans, key=lambda s: s.start):
            if span.parent is not None and id(span.parent) in inside:
                inside.add(id(span))
                found.append(span)
        return found

    def export(self, path: str, meta: dict, limit: int = 20000) -> None:
        """Write the first ``limit`` spans (and ``meta``) as JSON."""
        spans = sorted(self.spans, key=lambda s: s.start)[:limit]
        index = {id(span): number for number, span in enumerate(spans)}
        origin = spans[0].start if spans else 0.0
        rows = [
            {
                "id": index[id(span)],
                "name": span.name,
                "trace": span.trace_id(),
                "parent": index.get(id(span.parent)),
                "start_ms": round((span.start - origin) * 1000.0, 4),
                "end_ms": round((span.end - origin) * 1000.0, 4),
            }
            for span in spans
        ]
        with open(path, "w") as handle:
            json.dump({"meta": meta, "dropped": len(self.spans) - len(spans), "spans": rows}, handle)


class _SpanScope:
    __slots__ = ("tracer", "name", "trace", "span", "token")

    def __init__(self, tracer: Tracer, name: str, trace: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.trace = trace

    def __enter__(self) -> Span:
        self.span, self.token = self.tracer.begin(self.name, self.trace)
        return self.span

    def __exit__(self, *exc) -> bool:
        self.tracer.finish(self.span, self.token)
        return False


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    result = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(id(span), ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def install_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Span names match the per-layer metric prefixes of ``BENCHMARK.json``.
    """
    from repro import verify
    from repro.compiler import pipeline, result
    from repro.gateway import jobstore, server, shards
    from repro.service import batcher, cache_peer, protocol, remote_cache
    from repro.sweep import cache, executor, jobs, tiers
    from repro.verify import validator

    wrap = tracer.wrap
    wrap(pipeline.FaultTolerantCompiler, "compile", "compile")
    # codec: the result tree and its checksum, bound by name in three modules
    wrap(result.CompilationResult, "to_dict", "codec.to_dict")
    wrap(result.CompilationResult, "from_dict", "codec.from_dict")
    for module in (cache, remote_cache, cache_peer):
        wrap(module, "payload_checksum", "codec.checksum")
    wrap(protocol, "encode_line", "codec.frame_encode")
    wrap(protocol, "decode_line", "codec.frame_decode")
    for module in (jobs, executor, batcher, server):
        wrap(module, "job_key", "sweep.job_key")
    # cache tiers (the remote tier inherits get_result/put_result)
    for tier in (tiers.MemoryCache, cache.CompileCache, remote_cache.RemoteCache):
        wrap(tier, "get_result", f"tier.{tier.name}.get", trace=_key_arg)
        wrap(tier, "put_result", f"tier.{tier.name}.put", trace=_key_arg)
    wrap(cache_peer.CachePeer, "_handle_get", "tier.peer.get", trace=_message_key)
    wrap(cache_peer.CachePeer, "_handle_put", "tier.peer.put", trace=_message_key)
    wrap(verify, "validate_result", "verify.validate")
    wrap(validator, "validate_result", "verify.validate")
    # worker pool and service broker
    tracer.wrap_future(executor.SweepEngine, "submit", "pool.roundtrip")
    wrap(executor.SweepEngine, "adopt", "pool.adopt", trace=_adopt_key)
    wrap(executor.SweepEngine, "cached_result", "service.cached_result", trace=_cached_key)
    wrap(batcher.CompileBroker, "resolve", "service.resolve", trace_result=lambda out: out[2])
    # gateway
    wrap(server.Gateway, "_route", "gateway.request", trace_result=_response_id)
    wrap(server.Gateway, "_resolve_key", "gateway.resolve_key", trace_result=lambda key: key)
    wrap(jobstore.JobStore, "get", "gateway.jobstore.read", trace=_key_arg)
    for method in ("submit", "claim", "complete", "fail"):
        wrap(jobstore.JobStore, method, "gateway.jobstore.write", trace=_key_arg)
    wrap(shards.ShardRouter, "dispatch", "gateway.dispatch", trace=_key_arg)
    tracer.patch_executor_context()


def _key_arg(owner, key, *args, **kwargs) -> Optional[str]:
    return key if isinstance(key, str) else None


def _message_key(owner, message, *args, **kwargs) -> Optional[str]:
    key = message.get("key") if isinstance(message, dict) else None
    return key if isinstance(key, str) else None


def _adopt_key(engine, circuit, config, payload, key=None) -> Optional[str]:
    return key


def _cached_key(engine, circuit, config, key=None) -> Optional[str]:
    return key


def _response_id(response) -> Optional[str]:
    payload = response[1] if isinstance(response, tuple) and len(response) > 1 else None
    return payload.get("id") if isinstance(payload, dict) else None
