"""Synchronous client for the compile service.

:class:`Client` speaks the JSON-lines protocol over one
:class:`~repro.service.transport.Connection`, strict request/response.
It is what scripts, tests and the chaos harness use::

    from repro.service import Client

    with Client("127.0.0.1", 7787) as client:
        reply = client.compile(workload="ising_2d_4x4", routing_paths=4)
        print(reply.source, reply.fingerprint["makespan"])

Failures the server reports (unknown workload, overload shed, replay
validation rejection, ...) raise :class:`ServiceError` carrying the
machine-readable ``code`` from :data:`repro.service.protocol.ERROR_CODES`
and any structured ``details`` (a full validation report dict for
``validation-failed``).  A transport failure (a hang-up, a torn or
unreadable reply, a timeout) raises an :class:`OSError`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..compiler.result import CompilationResult
from . import protocol
from .transport import Connection, RetryPolicy


class ServiceError(RuntimeError):
    """A structured error response from the compile service.

    Attributes:
        code: stable error code (see :data:`repro.service.protocol.ERROR_CODES`).
        details: optional structured payload (e.g. the
            :class:`~repro.verify.ValidationReport` dict for
            ``validation-failed``).
    """

    def __init__(
        self, code: str, message: str, details: Optional[dict] = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.details = details


@dataclass
class CompileReply:
    """One successful compile response, unpacked.

    Attributes:
        key: the content-addressed job key (identical to what
            ``repro.sweep.job_key`` computes locally for the same job).
        source: where the server resolved it — ``compiled``, ``coalesced``,
            ``memo``, ``disk`` or ``remote``.
        wall: server-side wall seconds for this request.
        fingerprint: behavioural fingerprint (makespan / op counts / stats).
        summary: headline metrics (execution time, qubits, t states, ...).
        result: the full :class:`~repro.compiler.result.CompilationResult`
            when the request asked for ``full=True``, else None.
        raw: the complete response message.
    """

    key: str
    source: str
    wall: float
    fingerprint: Dict[str, Any]
    summary: Dict[str, Any]
    result: Optional[CompilationResult] = None
    raw: Dict[str, Any] = field(default_factory=dict)

    @property
    def warm(self) -> bool:
        """True when the request cost zero compilations (a cache-tier hit)."""
        return self.source in ("memo", "disk", "remote")


class Client:
    """Blocking JSON-lines client, one request at a time.

    Args:
        host / port: the service address.
        timeout: socket timeout in seconds for connect and each response
            (compiles of large circuits can be slow — size accordingly).
        retry: optional :class:`RetryPolicy`; when set, transient failures
            (connection drops, ``overloaded``, ``timeout``) are retried
            with exponential backoff + full jitter, reconnecting as
            needed.  None (the default) keeps the classic fail-fast
            behaviour.
        sleep / rng: injection points for the backoff clock — tests pass
            a fake sleep and a seeded ``random.Random`` so retry schedules
            are asserted without real waiting.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        timeout: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._conn = Connection(host, port, timeout, retry, sleep, rng)
        self._conn.connect()

    @property
    def reconnects(self) -> int:
        """Connections opened after the first (each follows a failure)."""
        return self._conn.connects - 1

    @property
    def retried(self) -> int:
        """Retries slept before, across every :meth:`request`."""
        return self._conn.retried

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, return the raw response dict.

        Raises :class:`ServiceError` on ``ok: false`` responses and
        :class:`ConnectionError` when the server hangs up mid-exchange.
        With a :class:`RetryPolicy`, transient failures are resubmitted
        (safe: requests are content-addressed and deterministic) after a
        jittered backoff; the last failure is re-raised once the attempt
        budget is spent.
        """
        response = self._conn.request(protocol.encode_line(message))
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                error.get("code", protocol.E_INTERNAL),
                error.get("message", "unknown service error"),
                error.get("details"),
            )
        return response

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- operations ---------------------------------------------------------

    def compile(
        self,
        workload: Optional[str] = None,
        qasm_source: Optional[str] = None,
        optimize: bool = False,
        full: bool = False,
        request_id: Optional[Any] = None,
        timeout: Optional[float] = None,
        **config: Any,
    ) -> CompileReply:
        """Compile a workload name or QASM source on the service.

        ``timeout`` asks the server to bound this request end-to-end
        (seconds); expiry surfaces as a ``timeout`` :class:`ServiceError`.
        Keyword arguments beyond the named ones are
        :class:`~repro.compiler.config.CompilerConfig` overrides
        (``routing_paths=6``, ``num_factories=2``, ...).
        """
        response = self.request(
            protocol.compile_request(
                workload=workload,
                qasm_source=qasm_source,
                config=config or None,
                optimize=optimize,
                full=full,
                request_id=request_id,
                timeout=timeout,
            )
        )
        result = None
        if full and "result" in response:
            result = CompilationResult.from_dict(response["result"])
        return CompileReply(
            key=response["key"],
            source=response["source"],
            wall=response["wall"],
            fingerprint=response["fingerprint"],
            summary=response["summary"],
            result=result,
            raw=response,
        )

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot (see the ``stats`` op)."""
        return self.request({"op": "stats"})["stats"]

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns version info."""
        return self.request({"op": "ping"})

    def shutdown(self) -> None:
        """Ask the server to drain and exit (needs ``allow_shutdown``)."""
        self.request({"op": "shutdown"})
