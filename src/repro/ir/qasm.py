"""Minimal OpenQASM 2 emitter and parser for the Clifford+T subset.

This replaces the Qiskit front-end the paper uses: benchmarks can be dumped
to / loaded from ``.qasm`` text so the compiler can ingest external circuits
(e.g. QASMBench programs) without any third-party dependency.

Supported statements: the header, one quantum register, one classical
register, the gate set of :mod:`repro.ir.gates`, ``measure`` (indexed or
whole-register, as in real QASMBench programs) and ``barrier`` (indexed or
whole-register).  Barriers round-trip: since they carry DAG
pseudo-dependency edges the scheduler serialises on, a file-loaded circuit
must schedule identically to the in-memory one that produced it.  Angles
accept ``pi`` arithmetic expressions such as ``rz(3*pi/4) q[2];``.
"""

from __future__ import annotations

import math
import re

from . import gates as g
from .circuit import Circuit


class QasmError(ValueError):
    """Raised on malformed QASM input."""


_HEADER_RE = re.compile(r"OPENQASM\s+2(\.\d+)?\s*;")
_QREG_RE = re.compile(r"qreg\s+(?P<name>\w+)\s*\[\s*(?P<size>\d+)\s*\]\s*;")
_CREG_RE = re.compile(r"creg\s+\w+\s*\[\s*\d+\s*\]\s*;")
_INCLUDE_RE = re.compile(r'include\s+"[^"]*"\s*;')
_GATE_RE = re.compile(
    r"(?P<name>[a-zA-Z]+)\s*(\((?P<param>[^)]*)\))?\s*(?P<args>[^;]+);"
)
_ARG_RE = re.compile(r"(?P<reg>\w+)\s*\[\s*(?P<idx>\d+)\s*\]")

#: gate mnemonics accepted from QASM text, mapped to IR names.
_SUPPORTED = {
    "h": g.H, "s": g.S, "sdg": g.SDG, "x": g.X, "y": g.Y, "z": g.Z,
    "sx": g.SX, "sxdg": g.SXDG, "t": g.T, "tdg": g.TDG,
    "rz": g.RZ, "rx": g.RX, "cx": g.CX, "cz": g.CZ, "swap": g.SWAP,
}


def _eval_angle(text: str) -> float:
    """Evaluate a restricted ``pi`` arithmetic expression to a finite float.

    ``**`` is refused before evaluation: an exponent tower such as
    ``9**9**9`` would keep ``eval`` busy for minutes.  None of the other
    operators can make a number much longer than the expression itself.
    """
    cleaned = text.strip().replace("pi", repr(math.pi))
    if "**" in cleaned or not re.fullmatch(r"[\d\s\.\+\-\*/()eE]+", cleaned):
        raise QasmError(f"unsupported angle expression {text!r}")
    try:
        value = float(eval(cleaned, {"__builtins__": {}}, {}))  # noqa: S307
    except Exception as exc:  # pragma: no cover - defensive
        raise QasmError(f"cannot evaluate angle {text!r}") from exc
    if not math.isfinite(value):
        raise QasmError(f"angle {text!r} is not finite")
    return value


def _format_angle(theta: float) -> str:
    """Render an angle as a tidy multiple of pi when that is *lossless*.

    The tidy form is only used when evaluating it back reproduces the
    exact float; anything else (subnormals, angles a hair off a pi
    multiple) falls through to ``repr``, which round-trips bit-exactly —
    the emitter must never change a circuit (fuzzer-found: a 1e-313
    rotation used to serialise as ``0``).
    """
    for denom in (1, 2, 3, 4, 6, 8, 16):
        ratio = theta * denom / math.pi
        if abs(ratio - round(ratio)) < 1e-10 and abs(ratio) < 64:
            num = int(round(ratio))
            if num == 0:
                # only +0.0 may collapse to "0": -0.0 compares equal but
                # is a different float, so it goes through repr like any
                # other angle the tidy form cannot reproduce bit-exactly
                if theta == 0.0 and math.copysign(1.0, theta) > 0:
                    return "0"
                break  # tiny / negative zero: repr keeps it exact
            prefix = "-" if num < 0 else ""
            num = abs(num)
            head = "pi" if num == 1 else f"{num}*pi"
            text = f"{prefix}{head}" if denom == 1 else f"{prefix}{head}/{denom}"
            if _eval_angle(text) == theta:
                return text
            break  # approximate match only: repr keeps it exact
    return f"{theta!r}"


def dumps(circuit: Circuit) -> str:
    """Serialise a circuit to OpenQASM 2 text."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
        f"creg c[{circuit.num_qubits}];",
    ]
    for gate in circuit:
        args = ",".join(f"q[{q}]" for q in gate.qubits)
        if gate.name == g.MEASURE:
            q = gate.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
        elif gate.name == g.BARRIER:
            # a barrier with no explicit qubits spans the whole register
            lines.append(f"barrier {args};" if args else "barrier q;")
        elif gate.param is not None:
            lines.append(f"{gate.name}({_format_angle(gate.param)}) {args};")
        else:
            lines.append(f"{gate.name} {args};")
    return "\n".join(lines) + "\n"


def loads(text: str, name: str = "qasm") -> Circuit:
    """Parse OpenQASM 2 text into a :class:`~repro.ir.circuit.Circuit`."""
    body = re.sub(r"//[^\n]*", "", text)
    if not _HEADER_RE.search(body):
        raise QasmError("missing OPENQASM 2 header")
    body = _HEADER_RE.sub("", body, count=1)
    body = _INCLUDE_RE.sub("", body)

    qreg = _QREG_RE.search(body)
    if not qreg:
        raise QasmError("missing qreg declaration")
    num_qubits = int(qreg.group("size"))
    body = _QREG_RE.sub("", body, count=1)
    body = _CREG_RE.sub("", body)

    circuit = Circuit(num_qubits, name=name)
    for statement in body.split(";"):
        statement = statement.strip()
        if not statement:
            continue
        try:
            _parse_statement(statement + ";", circuit)
        except g.GateError as exc:
            # a well-formed statement naming an invalid gate (duplicate or
            # out-of-register qubits, an angle on h) is still bad input
            raise QasmError(str(exc)) from exc
    return circuit


_MEASURE_RE = re.compile(
    r"measure\s+(?P<reg>[A-Za-z_]\w*)\s*(\[\s*(?P<idx>\d+)\s*\])?"
    r"(\s*->\s*[A-Za-z_]\w*\s*(\[\s*\d+\s*\])?)?\s*;"
)


def _parse_statement(statement: str, circuit: Circuit) -> None:
    if statement.startswith("measure"):
        match = _MEASURE_RE.match(statement)
        if not match:
            raise QasmError(f"malformed measure: {statement!r}")
        if match.group("idx") is not None:
            circuit.measure(int(match.group("idx")))
        else:
            # whole-register form ``measure q -> c;`` (QASMBench uses it):
            # expand to one per-qubit measurement in register order
            for qubit in range(circuit.num_qubits):
                circuit.measure(qubit)
        return
    if statement.startswith("barrier"):
        # Barriers order gates across their qubits (DAG pseudo-dependency
        # edges), so they must survive the round trip for file-loaded
        # circuits to schedule identically to in-memory ones.  A bare
        # register name spans the whole register.
        indices = [int(m.group("idx")) for m in _ARG_RE.finditer(statement)]
        circuit.append(g.barrier(*indices))
        return
    match = _GATE_RE.match(statement)
    if not match:
        raise QasmError(f"cannot parse statement {statement!r}")
    mnemonic = match.group("name").lower()
    if mnemonic not in _SUPPORTED:
        raise QasmError(f"unsupported gate {mnemonic!r}")
    qubits = [int(m.group("idx")) for m in _ARG_RE.finditer(match.group("args"))]
    param_text = match.group("param")
    param = None if param_text is None else _eval_angle(param_text)
    circuit.append(g.interned(_SUPPORTED[mnemonic], tuple(qubits), param))


def load_file(path: str) -> Circuit:
    """Read a ``.qasm`` file from disk."""
    with open(path) as handle:
        return loads(handle.read(), name=path.rsplit("/", 1)[-1])


def dump_file(circuit: Circuit, path: str) -> None:
    """Write a circuit to a ``.qasm`` file."""
    with open(path, "w") as handle:
        handle.write(dumps(circuit))
