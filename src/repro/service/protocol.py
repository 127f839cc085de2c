"""Wire protocol of the compile service: newline-delimited JSON over TCP.

One request is one JSON object on one line; the server answers with one
JSON object on one line.  There is no framing beyond the newline and no
pipelining requirement (the bundled client is strict request/response).
The one binary value, the cache peer's encoded result, rides as a base64
string.

Requests carry an ``op`` field:

``compile``
    Compile a circuit given either ``workload`` (a registry name, see
    ``repro list``) or ``qasm`` (OpenQASM 2 source), plus an optional
    ``config`` object of :class:`~repro.compiler.config.CompilerConfig`
    overrides and an optional ``optimize`` flag (run the front-end
    cleanup passes first).  ``full: true`` additionally returns the
    complete serialized :class:`~repro.compiler.result.CompilationResult`.
    ``timeout`` (seconds) bounds this one request end-to-end; the server
    clamps it to its own ``--request-timeout`` and answers with the
    ``timeout`` error code when the deadline expires.
``stats``
    Per-endpoint request counters, coalescing/cache counters and latency
    percentiles.
``ping``
    Liveness probe.
``shutdown``
    Ask the server to drain and exit (available unless started with
    ``allow_shutdown=False``).

Every response has ``ok``; failures carry a structured ``error`` object
with a stable machine-readable ``code`` from :data:`ERROR_CODES` — the
client raises these as :class:`~repro.service.client.ServiceError`.
Validation failures embed the full
:class:`~repro.verify.ValidationReport` dict under ``error.details``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from ..compiler.config import CompilerConfig
from ..compiler.result import CompilationResult
from ..ir import qasm
from ..ir.circuit import Circuit
from ..ir.passes import optimize as optimize_circuit
from ..workloads import load_benchmark

#: protocol revision; servers echo it in ``ping`` and ``stats`` responses.
#: 2: cache-peer ops carry the encoded result as base64 ``blob`` (was a
#: ``result`` dict plus ``checksum``).
PROTOCOL_VERSION = 2

#: default TCP port of ``repro serve`` (an unassigned registered port).
DEFAULT_PORT = 7787

#: maximum request/response line length (QASM sources can be large).
MAX_LINE_BYTES = 8 * 1024 * 1024

# -- stable error codes --------------------------------------------------------

E_BAD_REQUEST = "bad-request"  #: malformed JSON / unknown op / bad fields
E_BAD_CONFIG = "bad-config"  #: unknown or invalid CompilerConfig override
E_BAD_CIRCUIT = "bad-circuit"  #: QASM source failed to parse
E_UNKNOWN_WORKLOAD = "unknown-workload"  #: workload name not in the registry
E_OVERLOADED = "overloaded"  #: bounded compile queue is full (backpressure)
E_VALIDATION = "validation-failed"  #: replay validation rejected the schedule
E_TIMEOUT = "timeout"  #: request deadline or per-job compile deadline expired
E_COMPILE_FAILED = "compile-failed"  #: compile crashed its worker on every try
E_INTERNAL = "internal"  #: unexpected server-side failure

#: the closed set of error codes a server can emit.
ERROR_CODES = (
    E_BAD_REQUEST,
    E_BAD_CONFIG,
    E_BAD_CIRCUIT,
    E_UNKNOWN_WORKLOAD,
    E_OVERLOADED,
    E_VALIDATION,
    E_TIMEOUT,
    E_COMPILE_FAILED,
    E_INTERNAL,
)

#: error codes a client may safely retry: the failure is transient and the
#: job key is content-addressed, so resubmission is idempotent.
RETRYABLE_CODES = (E_OVERLOADED, E_TIMEOUT)

#: CompilerConfig fields a request's ``config`` object may override.
#: Nested model objects (instruction set, factory, synthesis) are server
#: policy, not request payload — they stay at their defaults.
CONFIG_FIELDS = (
    "routing_paths",
    "num_factories",
    "mapping",
    "lookahead",
    "eliminate_redundant_moves",
    "compute_unit_cost_time",
    "strategy",
)


class ProtocolError(ValueError):
    """A request the server cannot act on, with its wire error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# -- line codec ----------------------------------------------------------------


def encode_line(message: Dict[str, Any]) -> bytes:
    """Serialize one protocol message to its wire form (JSON + newline)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` (``bad-request``) on anything that is
    not a single JSON object.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(E_BAD_REQUEST, f"invalid JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    return message


# -- request construction (client side) ----------------------------------------


def compile_request(
    workload: Optional[str] = None,
    qasm_source: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    optimize: bool = False,
    full: bool = False,
    request_id: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Build a ``compile`` request message (validation happens server-side)."""
    message: Dict[str, Any] = {"op": "compile"}
    if workload is not None:
        message["workload"] = workload
    if qasm_source is not None:
        message["qasm"] = qasm_source
    if config:
        message["config"] = dict(config)
    if optimize:
        message["optimize"] = True
    if full:
        message["full"] = True
    if request_id is not None:
        message["id"] = request_id
    if timeout is not None:
        message["timeout"] = timeout
    return message


# -- request parsing (server side) ---------------------------------------------


def parse_config(overrides: Optional[Dict[str, Any]]) -> CompilerConfig:
    """Resolve a request's ``config`` object into a :class:`CompilerConfig`.

    Raises :class:`ProtocolError` (``bad-config``) on unknown fields or
    values the config's own validation rejects.
    """
    if overrides is None:
        return CompilerConfig()
    if not isinstance(overrides, dict):
        raise ProtocolError(E_BAD_CONFIG, "config must be a JSON object")
    unknown = sorted(set(overrides) - set(CONFIG_FIELDS))
    if unknown:
        raise ProtocolError(
            E_BAD_CONFIG,
            f"unknown config field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(CONFIG_FIELDS)}",
        )
    try:
        return CompilerConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(E_BAD_CONFIG, str(exc)) from exc


def parse_compile_request(
    message: Dict[str, Any],
) -> Tuple[Circuit, CompilerConfig, bool]:
    """Resolve a ``compile`` message into ``(circuit, config, full)``.

    Exactly one of ``workload`` / ``qasm`` must be present.  Raises
    :class:`ProtocolError` with the matching error code on every way the
    request can be unusable.
    """
    workload = message.get("workload")
    qasm_source = message.get("qasm")
    if (workload is None) == (qasm_source is None):
        raise ProtocolError(
            E_BAD_REQUEST, "compile needs exactly one of 'workload' or 'qasm'"
        )
    if workload is not None:
        if not isinstance(workload, str):
            raise ProtocolError(E_BAD_REQUEST, "'workload' must be a string")
        try:
            circuit = load_benchmark(workload)
        except KeyError as exc:
            # the registry's message already lists the available names
            raise ProtocolError(E_UNKNOWN_WORKLOAD, str(exc.args[0])) from exc
    else:
        if not isinstance(qasm_source, str):
            raise ProtocolError(E_BAD_REQUEST, "'qasm' must be a string")
        try:
            circuit = qasm.loads(qasm_source)
        except qasm.QasmError as exc:
            raise ProtocolError(E_BAD_CIRCUIT, str(exc)) from exc
    if message.get("optimize"):
        circuit = optimize_circuit(circuit)
    config = parse_config(message.get("config"))
    return circuit, config, bool(message.get("full"))


# -- response construction (server side) ---------------------------------------


def compile_response(
    result: CompilationResult,
    key: str,
    source: str,
    wall: float,
    full: bool = False,
) -> Dict[str, Any]:
    """Build the success payload for one resolved compile request.

    ``source`` records where the broker found the result: ``compiled``,
    ``coalesced`` (piggybacked on an identical in-flight request),
    ``memo`` (this process already had it), ``disk`` (persistent cache)
    or ``remote`` (fetched from a ``cache-serve`` peer, replay-validated).
    """
    payload: Dict[str, Any] = {
        "ok": True,
        "op": "compile",
        "key": key,
        "source": source,
        "wall": round(wall, 6),
        # the one canonical fingerprint definition — identical fields to
        # what `repro bench` gates on in BENCH.json
        "fingerprint": result.fingerprint(),
        "summary": {
            "name": result.profile.name,
            "num_qubits": result.profile.num_qubits,
            "num_gates": result.profile.num_gates,
            "execution_time": result.execution_time,
            "total_qubits": result.total_qubits,
            "t_states": result.t_states,
            "lower_bound": result.lower_bound,
            "spacetime_volume": result.spacetime_volume(True),
        },
    }
    if full:
        payload["result"] = result.to_dict()
    return payload


def error_response(
    code: str, message: str, details: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Build the failure payload carried under a response's ``error`` key."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if details is not None:
        error["details"] = details
    return {"ok": False, "error": error}
