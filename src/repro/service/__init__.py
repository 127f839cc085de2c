"""Compile-as-a-service layer on top of the sweep engine.

The batch CLI treats compilation as a one-shot sweep; this package turns
the same engine into a long-lived multi-client endpoint (``repro serve``):

* :mod:`~repro.service.protocol` — the newline-delimited JSON wire
  format, its stable error codes and the request/response builders;
* :mod:`~repro.service.batcher` — :class:`CompileBroker`: coalesces
  identical in-flight requests by content-addressed job key, serves warm
  hits from the sweep cache with zero recompilation, sheds load beyond a
  bounded in-flight queue, and keeps the per-endpoint metrics;
* :mod:`~repro.service.endpoint` — the lifecycle every TCP endpoint
  (service, cache peer, gateway) shares: start, drain, stop, the
  background-thread harness and the signal-driven foreground loop of the
  serving commands;
* :mod:`~repro.service.server` — :class:`CompileService`, the asyncio
  TCP server owning one persistent :class:`~repro.sweep.SweepEngine`
  (worker pool + disk cache), plus :class:`ServiceThread` for running a
  real server in-process (tests, the chaos harness, smoke scripts);
* :mod:`~repro.service.transport` — the one JSON-lines transport: the
  client :class:`~repro.service.transport.Connection` and its retry
  loop, the reply reader, and the request loop the service and the cache
  peer share;
* :mod:`~repro.service.client` — :class:`Client`, the synchronous
  request/response client scripts and tests talk through;
* :mod:`~repro.service.cache_peer` — :class:`CachePeer`, the
  ``repro cache-serve`` endpoint: a get/put-by-job-key result store a
  fleet of engines warms itself from;
* :mod:`~repro.service.remote_cache` — :class:`RemoteCache`, the client
  half: the engine's untrusted remote cache tier (checksummed frames,
  retry + circuit breaker, outage degrades to a miss).

Responses carry the same behavioural fingerprint the perf harness gates
on, and the job keys are byte-identical to what ``repro compile`` /
``repro.sweep.job_key`` compute locally — the service is a transport, not
a different compiler.
"""

from .batcher import CompileBroker, OverloadedError, ServiceMetrics
from .cache_peer import CachePeer, CachePeerThread
from .client import Client, CompileReply, RetryPolicy, ServiceError
from .protocol import (
    DEFAULT_PORT,
    ERROR_CODES,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ProtocolError,
)
from .remote_cache import DEFAULT_CACHE_PORT, RemoteCache, parse_peer
from .server import DEFAULT_MAX_PENDING, CompileService, ServiceThread

__all__ = [
    "CachePeer",
    "CachePeerThread",
    "Client",
    "CompileBroker",
    "CompileReply",
    "CompileService",
    "DEFAULT_CACHE_PORT",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_PORT",
    "ERROR_CODES",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_CODES",
    "RemoteCache",
    "RetryPolicy",
    "ServiceError",
    "ServiceMetrics",
    "ServiceThread",
    "parse_peer",
]
