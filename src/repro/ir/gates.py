"""Gate definitions for the Clifford+T intermediate representation.

The compiler consumes quantum programs expressed over the gate set used by
the paper's benchmarks (Table I): H, S, Sdg, X, Y, Z, SX, T, Tdg, Rz, CNOT
(CX), plus the lattice-surgery primitives Mzz/Mxx and the layout-level MOVE
operation that the scheduler inserts.  Gates are small immutable records so
circuits can be hashed, compared and safely shared between passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

#: Angle comparisons treat values closer than this as equal.  Chosen loose
#: enough to absorb float noise from pi arithmetic, tight enough to separate
#: distinct multiples of pi/8.
ANGLE_ATOL = 1e-9

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Map an angle to the canonical interval [0, 2*pi).

    >>> normalize_angle(-math.pi / 2) == 3 * math.pi / 2
    True
    """
    theta = math.fmod(theta, TWO_PI)
    if theta < 0:
        theta += TWO_PI
    if abs(theta - TWO_PI) < ANGLE_ATOL:
        theta = 0.0
    return theta


def is_multiple_of(theta: float, base: float) -> bool:
    """Return True when ``theta`` is an integer multiple of ``base``."""
    ratio = normalize_angle(theta) / base
    return abs(ratio - round(ratio)) < 1e-7


# ---------------------------------------------------------------------------
# Gate name constants.  Plain strings (not an Enum) keep the IR trivially
# serialisable and make QASM round-tripping direct.
# ---------------------------------------------------------------------------

H = "h"
S = "s"
SDG = "sdg"
X = "x"
Y = "y"
Z = "z"
SX = "sx"
SXDG = "sxdg"
T = "t"
TDG = "tdg"
RZ = "rz"
RX = "rx"
CX = "cx"
CZ = "cz"
SWAP = "swap"
MZZ = "mzz"
MXX = "mxx"
MOVE = "move"
MEASURE = "measure"
BARRIER = "barrier"

#: Single-qubit Clifford gates (no magic states required).
CLIFFORD_1Q = frozenset({H, S, SDG, X, Y, Z, SX, SXDG})

#: Two-qubit Clifford gates.
CLIFFORD_2Q = frozenset({CX, CZ, SWAP})

#: Gates that require one magic state each.
T_LIKE = frozenset({T, TDG})

#: Gates taking a single angle parameter.
PARAMETRIC = frozenset({RZ, RX})

#: Lattice-surgery level operations inserted by the compiler itself.
SURGERY_PRIMITIVES = frozenset({MZZ, MXX, MOVE})

ALL_NAMES = (
    CLIFFORD_1Q
    | CLIFFORD_2Q
    | T_LIKE
    | PARAMETRIC
    | SURGERY_PRIMITIVES
    | {MEASURE, BARRIER}
)

_SINGLE_QUBIT = CLIFFORD_1Q | T_LIKE | PARAMETRIC | {MEASURE, MOVE}
_TWO_QUBIT = CLIFFORD_2Q | {MZZ, MXX}

#: Qubit count per gate name; 0 for ``barrier``, which spans any number.
_ARITY: Dict[str, int] = {
    **{name: 1 for name in _SINGLE_QUBIT},
    **{name: 2 for name in _TWO_QUBIT},
    BARRIER: 0,
}


class GateError(ValueError):
    """Raised for malformed gate construction."""


@dataclass(frozen=True)
class Gate:
    """One quantum operation on named qubit indices.

    Attributes:
        name: lowercase gate mnemonic, one of :data:`ALL_NAMES`.
        qubits: tuple of integer qubit indices the gate acts on.  For
            ``move`` the single entry is the data qubit being relocated.
        param: rotation angle in radians for ``rz``/``rx``; None otherwise.
        label: optional free-form tag (used e.g. to mark Trotter terms).
    """

    name: str
    qubits: Tuple[int, ...]
    param: Optional[float] = None
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        name, qubits, param = self.name, self.qubits, self.param
        arity = _ARITY.get(name)
        if arity is None:
            raise GateError(f"unknown gate name {name!r}")
        if param is None:
            if name in PARAMETRIC:
                raise GateError(f"gate {name!r} requires an angle parameter")
        elif name not in PARAMETRIC:
            raise GateError(f"gate {name!r} takes no parameter")
        elif not math.isfinite(param):
            raise GateError(f"gate {name!r} needs a finite angle, got {param!r}")
        count = len(qubits)
        if arity and count != arity:
            raise GateError(
                f"gate {name!r} acts on {arity} qubit(s), got {count}"
            )
        if count > 1 and len(set(qubits)) != count:
            raise GateError(f"gate {name!r} has duplicate qubits {qubits}")
        if count and min(qubits) < 0:
            raise GateError("qubit indices must be non-negative")

    # -- classification ----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Arity implied by the gate name."""
        return _ARITY[self.name] or len(self.qubits)

    @property
    def is_clifford(self) -> bool:
        """True when the gate never consumes a magic state."""
        if self.name in CLIFFORD_1Q or self.name in CLIFFORD_2Q:
            return True
        if self.name in SURGERY_PRIMITIVES or self.name in (MEASURE, BARRIER):
            return True
        if self.name in PARAMETRIC and self.param is not None:
            return is_multiple_of(self.param, math.pi / 2)
        return False

    @property
    def is_t_like(self) -> bool:
        """True when the gate consumes at least one magic state."""
        if self.name in T_LIKE:
            return True
        if self.name in PARAMETRIC and self.param is not None:
            return not is_multiple_of(self.param, math.pi / 2)
        return False

    @property
    def is_two_qubit(self) -> bool:
        return self.num_qubits == 2

    @property
    def is_pauli(self) -> bool:
        """Pauli gates are tracked in the Pauli frame and cost no time."""
        return self.name in (X, Y, Z)

    # -- convenience -------------------------------------------------------

    def dagger(self) -> "Gate":
        """Return the inverse gate."""
        inverses = {S: SDG, SDG: S, T: TDG, TDG: T, SX: SXDG, SXDG: SX}
        if self.name in inverses:
            return interned(inverses[self.name], self.qubits)
        if self.name in PARAMETRIC:
            assert self.param is not None
            return interned(self.name, self.qubits, -self.param)
        if self.name in (H, X, Y, Z, CX, CZ, SWAP, BARRIER):
            return self
        raise GateError(f"gate {self.name!r} has no defined inverse")

    def on(self, *qubits: int) -> "Gate":
        """Return the same gate remapped onto ``qubits``."""
        return Gate(self.name, tuple(qubits), param=self.param, label=self.label)

    @cached_property
    def canonical_line(self) -> str:
        """This gate's line of the canonical gate stream, computed once.

        ``name|q0,q1|repr(param)`` plus a newline: the bytes
        :func:`repro.sweep.jobs.circuit_fingerprint` hashes, and so part
        of every job key.  ``repr`` keeps the angle bit-exact.
        """
        qubits = ",".join(map(str, self.qubits))
        param = "" if self.param is None else repr(self.param)
        return f"{self.name}|{qubits}|{param}\n"

    def __str__(self) -> str:
        if self.param is not None:
            return f"{self.name}({self.param:.6g}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


# -- interning ---------------------------------------------------------------

#: Most distinct gates the intern table holds.  The benchmark suite has
#: about 1,400; past the cap (fresh random angles, say) gates are built
#: and validated as usual but not remembered, so the table's memory is
#: bounded for the life of a long-running server.
INTERN_CAP = 1 << 14

_INTERNED: Dict[tuple, Gate] = {}


def interned(name: str, qubits: Tuple[int, ...], param: Optional[float] = None) -> Gate:
    """``Gate(name, qubits, param)``, shared with every earlier equal build.

    Gates are immutable, so one validated instance serves every repeat.
    The key holds each field's type as well as its value, and a number's
    sign: ``0.0 == -0.0`` and ``1 == 1.0 == True``, but a shared gate must
    be ``repr``-identical to a direct construction.  Invalid gates raise
    :class:`GateError` exactly as the constructor does and are not stored.
    Two threads missing on the same key both build the gate; either copy
    is correct, so the table needs no lock.
    """
    if param is None:
        key = (name, qubits, *map(type, qubits))
    else:
        key = (name, qubits, *map(type, qubits), param, type(param),
               math.copysign(1.0, param))
    gate = _INTERNED.get(key)
    if gate is None:
        gate = Gate(name, qubits, param)
        if len(_INTERNED) < INTERN_CAP:
            _INTERNED[key] = gate
    return gate


# -- constructors ----------------------------------------------------------


def h(q: int) -> Gate:
    """Hadamard gate."""
    return interned(H, (q,))


def s(q: int) -> Gate:
    """Phase gate S = diag(1, i)."""
    return interned(S, (q,))


def sdg(q: int) -> Gate:
    """Inverse phase gate."""
    return interned(SDG, (q,))


def x(q: int) -> Gate:
    """Pauli X."""
    return interned(X, (q,))


def y(q: int) -> Gate:
    """Pauli Y."""
    return interned(Y, (q,))


def z(q: int) -> Gate:
    """Pauli Z."""
    return interned(Z, (q,))


def sx(q: int) -> Gate:
    """Square root of X."""
    return interned(SX, (q,))


def t(q: int) -> Gate:
    """T gate (pi/8 rotation); consumes one magic state."""
    return interned(T, (q,))


def tdg(q: int) -> Gate:
    """Inverse T gate."""
    return interned(TDG, (q,))


def rz(theta: float, q: int) -> Gate:
    """Z rotation by ``theta`` radians."""
    return interned(RZ, (q,), float(theta))


def rx(theta: float, q: int) -> Gate:
    """X rotation by ``theta`` radians."""
    return interned(RX, (q,), float(theta))


def cx(control: int, target: int) -> Gate:
    """Controlled-NOT."""
    return interned(CX, (control, target))


def cz(a: int, b: int) -> Gate:
    """Controlled-Z."""
    return interned(CZ, (a, b))


def swap(a: int, b: int) -> Gate:
    """SWAP two qubits."""
    return interned(SWAP, (a, b))


def measure(q: int) -> Gate:
    """Computational-basis measurement."""
    return interned(MEASURE, (q,))


def barrier(*qubits: int) -> Gate:
    """Scheduling barrier across ``qubits`` (the whole register when empty)."""
    return interned(BARRIER, qubits)
