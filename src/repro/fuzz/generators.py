"""Seeded scenario generation: random circuits x architectures x configs.

A :class:`Scenario` is one fuzz case: a circuit plus a fully resolved
:class:`~repro.compiler.config.CompilerConfig`, both valid *by
construction* (routing paths satisfiable for the register width, factory
counts the layout can port, angles the front end accepts).  The stream of
scenarios is a pure function of ``(seed, index)`` and prefix-stable: the
first N scenarios of a 10,000-iteration run are exactly the N of an
N-iteration run with the same seed.

Circuit families (the ``kind`` axis):

``clifford-t``
    Flat random streams over the full gate set, optional barriers and a
    measurement tail (:func:`repro.workloads.random_programs.random_mixed_stream`).
``rotation-layers``
    PPR-shaped layered programs
    (:func:`repro.workloads.random_programs.random_rotation_layers`).
``qasm-roundtrip``
    Either family pushed through ``qasm.loads(qasm.dumps(...))`` before
    compilation, so the parser/emitter pair sits inside the fuzz loop.
``edge-case``
    A rotating set of hand-shaped extremes: single-gate programs,
    barrier-only programs, swap chains, rotation ladders on one qubit,
    maximally and minimally provisioned layouts.
``qaoa-layers``
    QAOA ansätze over random problem graphs
    (:func:`repro.workloads.random_programs.random_qaoa_layers`) — the
    same qubit pairs contend for alignment every layer, the repeated
    -interaction pressure flat streams never produce.
``structured``
    Real algorithm instances at fuzz-able sizes: QFT up to 12 wires,
    CDKM adders, shift-add multipliers and QASMBench-shaped ripple
    ladders at several depth scales — deeper and wider than the
    edge-case family, with the DAG shapes of lowered production code.

Scenarios serialise to a self-contained JSON dict (QASM text + config
knobs) — the same form the repro artifacts and the committed regression
corpus use — and deserialise bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict

from ..arch.instruction_set import InstructionSet
from ..arch.layout import (
    LayoutError,
    build_layout,
    max_routing_paths,
    port_headroom,
    routing_plan,
)
from ..compiler.config import CompilerConfig
from ..ir import qasm
from ..ir.circuit import Circuit
from ..workloads.random_programs import (
    ROTATION_ANGLES,
    random_mixed_stream,
    random_qaoa_layers,
    random_rotation_layers,
)
from .rng import FuzzRng, scenario_rng

#: scenario kinds with their generation weights (out of the sum).
KIND_WEIGHTS = (
    ("clifford-t", 30),
    ("rotation-layers", 20),
    ("qasm-roundtrip", 15),
    ("edge-case", 15),
    ("qaoa-layers", 10),
    ("structured", 10),
)

KINDS = tuple(kind for kind, _ in KIND_WEIGHTS)

#: config knobs the fuzzer varies, in their serialized order.  The nested
#: instruction-set/synthesis models stay at paper defaults except for the
#: distillation time, which is serialized separately as ``distill_time``.
CONFIG_KEYS = (
    "routing_paths",
    "num_factories",
    "mapping",
    "lookahead",
    "eliminate_redundant_moves",
    "compute_unit_cost_time",
    "strategy",
)

#: distillation times the fuzzer samples (d units; 11.0 is the paper value).
DISTILL_TIMES = (11.0, 11.0, 11.0, 5.5, 22.0, 1.0)


@dataclass(frozen=True)
class Scenario:
    """One fuzz case: a circuit, a config, and its provenance.

    Attributes:
        kind: generator family (see module docstring).
        seed / index: position in the deterministic scenario stream;
            ``index`` is -1 for scenarios loaded from artifacts or built
            by the shrinker.
        circuit: the program the compiler will be fed.
        config: the fully resolved compiler configuration.
        via_qasm: the circuit passed through a QASM round-trip during
            generation (enables the round-trip fixpoint oracle).
    """

    kind: str
    seed: int
    index: int
    circuit: Circuit
    config: CompilerConfig
    via_qasm: bool = False

    @property
    def name(self) -> str:
        return f"s{self.index:05d}-{self.kind}" if self.index >= 0 else self.kind

    @property
    def key(self) -> str:
        """Content address of the scenario (circuit + config only).

        Unlike :func:`repro.sweep.jobs.job_key` this deliberately excludes
        the compiler revision: a scenario names the same *input* across
        code changes, so corpus files keep their identity over time.
        """
        return scenario_key(self.circuit, self.config)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Self-contained JSON form (QASM text + config knobs)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "index": self.index,
            "name": self.circuit.name,
            "qasm": qasm.dumps(self.circuit),
            "config": config_to_dict(self.config),
            "via_qasm": self.via_qasm,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        circuit = qasm.loads(data["qasm"], name=data.get("name", "scenario"))
        return cls(
            kind=data.get("kind", "artifact"),
            seed=int(data.get("seed", 0)),
            index=int(data.get("index", -1)),
            circuit=circuit,
            config=config_from_dict(data.get("config", {})),
            via_qasm=bool(data.get("via_qasm", False)),
        )


def config_to_dict(config: CompilerConfig) -> Dict[str, Any]:
    """The fuzzer-visible knobs of a config, JSON-safe."""
    payload: Dict[str, Any] = {
        key: getattr(config, key) for key in CONFIG_KEYS
    }
    payload["distill_time"] = config.factory_config().distill_time
    return payload


def config_from_dict(data: Dict[str, Any]) -> CompilerConfig:
    """Rebuild a config from :func:`config_to_dict` output."""
    kwargs = {key: data[key] for key in CONFIG_KEYS if key in data}
    distill = float(data.get("distill_time", 11.0))
    isa = InstructionSet.paper()
    if distill != isa.distill:
        kwargs["instruction_set"] = isa.with_distill_time(distill)
    return CompilerConfig(**kwargs)


def scenario_key(circuit: Circuit, config: CompilerConfig) -> str:
    """SHA-256 content address over the QASM text and the config knobs.

    Only knobs that *differ from the CompilerConfig defaults* enter the
    hash: a config field added later (with a default) then leaves every
    existing corpus key unchanged, so committed artifacts keep their
    identity as CONFIG_KEYS grows.
    """
    defaults = config_to_dict(CompilerConfig())
    knobs = {
        key: value
        for key, value in config_to_dict(config).items()
        if value != defaults[key]
    }
    digest = hashlib.sha256()
    digest.update(qasm.dumps(circuit).encode())
    digest.update(b"\0")
    digest.update(json.dumps(knobs, sort_keys=True).encode())
    return digest.hexdigest()


# -- architecture / config sampling --------------------------------------------


@lru_cache(maxsize=256)
def feasible_routing_paths(num_qubits: int, requested: int) -> int:
    """The largest satisfiable ``r <= requested`` for this register width.

    ``routing_plan`` can reject an ``r`` below the ``2k+2`` bound on
    non-square data blocks (the internal-line rebalance may not fit), so
    feasibility is probed downward from that bound.
    """
    side = math.ceil(math.sqrt(num_qubits))
    r = min(max(2, requested), max_routing_paths(side))
    while r > 2:
        try:
            routing_plan(num_qubits, r)
            return r
        except LayoutError:
            r -= 1
    routing_plan(num_qubits, r)  # r=2 is feasible for every width >= 1
    return r


@lru_cache(maxsize=1024)
def feasible_factories(num_qubits: int, routing_paths: int, requested: int) -> int:
    """The largest factory count <= ``requested`` with fabric headroom.

    Validity by construction: a dense low-r block whose ports leave only
    ``num_qubits // 3`` or fewer parkable bus cells can wedge the
    displacement planner deep into a long program — that is an
    under-provisioned architecture, not a compiler defect, so the
    generator does not emit it.
    """
    layout = build_layout(num_qubits, routing_paths)
    k = max(1, requested)
    while k > 1 and port_headroom(layout, k) <= num_qubits // 3:
        k -= 1
    return k


def sample_config(rng: FuzzRng, num_qubits: int) -> CompilerConfig:
    """Draw a random-but-valid compiler configuration for the register."""
    side = math.ceil(math.sqrt(num_qubits))
    requested = rng.randint(2, min(max_routing_paths(side), 10))
    routing_paths = feasible_routing_paths(num_qubits, requested)
    kwargs: Dict[str, Any] = {
        "routing_paths": routing_paths,
        "num_factories": feasible_factories(
            num_qubits,
            routing_paths,
            rng.weighted_choice((1, 2, 3, 4), (45, 30, 15, 10)),
        ),
        "mapping": rng.weighted_choice(("auto", "grid", "snake"), (50, 25, 25)),
        "lookahead": rng.random() < 0.8,
        "eliminate_redundant_moves": rng.random() < 0.8,
        "compute_unit_cost_time": rng.random() < 0.05,
        "strategy": rng.weighted_choice(("default", "balanced"), (60, 40)),
    }
    distill = rng.choice(DISTILL_TIMES)
    if distill != 11.0:
        kwargs["instruction_set"] = InstructionSet.paper().with_distill_time(
            distill
        )
    return CompilerConfig(**kwargs)


# -- circuit families ----------------------------------------------------------


def _clifford_t_circuit(rng: FuzzRng, num_qubits: int) -> Circuit:
    num_gates = rng.randint(1, 60)
    barrier_every = rng.choice((None, None, None, 5, 8, 13))
    return random_mixed_stream(
        num_qubits,
        num_gates,
        seed=rng.randint(0, 2**31 - 1),
        barrier_every=barrier_every,
        measure_tail=rng.random() < 0.25,
    )


def _rotation_layer_circuit(rng: FuzzRng, num_qubits: int) -> Circuit:
    return random_rotation_layers(
        num_qubits,
        num_layers=rng.randint(1, 8),
        seed=rng.randint(0, 2**31 - 1),
        rotation_fraction=rng.choice((0.3, 0.5, 0.7, 1.0)),
        barrier_between=rng.random() < 0.3,
    )


def _edge_case_circuit(rng: FuzzRng, num_qubits: int) -> Circuit:
    shape = rng.randint(0, 5)
    qc = Circuit(num_qubits, name=f"edge{shape}_{num_qubits}q")
    if shape == 0:  # single gate
        qc.cx(0, num_qubits - 1) if rng.random() < 0.5 else qc.t(0)
    elif shape == 1:  # barriers only (no schedulable ops at all)
        qc.barrier()
        qc.barrier(0)
    elif shape == 2:  # long swap chain across the whole register
        for q in range(num_qubits - 1):
            qc.swap(q, q + 1)
    elif shape == 3:  # rotation ladder on one wire (serial magic states)
        for _ in range(rng.randint(3, 12)):
            qc.rz(rng.choice(ROTATION_ANGLES), 0)
    elif shape == 4:  # measure-heavy: whole register, twice
        qc.h(0)
        qc.measure_all()
        qc.barrier()
        qc.measure_all()
    else:  # all-to-one fan-in (port congestion around one target)
        for q in range(1, num_qubits):
            qc.cx(q, 0)
        qc.t(0)
    return qc


def _qaoa_circuit(rng: FuzzRng, num_qubits: int) -> Circuit:
    return random_qaoa_layers(
        num_qubits,
        num_layers=rng.randint(1, 4),
        seed=rng.randint(0, 2**31 - 1),
        edge_fraction=rng.choice((0.2, 0.4, 0.6)),
    )


def _structured_circuit(rng: FuzzRng) -> Circuit:
    """A real algorithm instance at fuzz-able size (deterministic in rng)."""
    from ..workloads.arithmetic import cdkm_adder, shift_add_multiplier
    from ..workloads.qasmbench import GateBudget, _ladder_circuit
    from ..workloads.qft import qft

    shape = rng.randint(0, 3)
    if shape == 0:  # larger QFT instances than the edge-case family emits
        return qft(rng.randint(6, 12), include_swaps=rng.random() < 0.3)
    if shape == 1:  # CDKM adders: 2..4 bits -> 6..10 qubits
        return cdkm_adder(rng.randint(2, 4))
    if shape == 2:  # shift-add multipliers: 2..3 bits -> 9..13 qubits
        return shift_add_multiplier(rng.randint(2, 3))
    # QASMBench-shaped ripple ladder, depth-scaled (deeper than Table I's
    # per-qubit density at scale 3).
    scale = rng.randint(1, 3)
    budget = GateBudget(rz=30 * scale, cx=24 * scale, sx=6 * scale, x=2 * scale)
    num_qubits = rng.randint(5, 10)
    return _ladder_circuit(
        num_qubits, budget, name=f"fuzz_ladder_{num_qubits}q_x{scale}"
    )


def generate_scenario(seed: int, index: int) -> Scenario:
    """Scenario ``index`` of the stream for ``seed`` (pure, prefix-stable)."""
    rng = scenario_rng(seed, index)
    kind = rng.weighted_choice(KINDS, tuple(w for _, w in KIND_WEIGHTS))
    num_qubits = rng.weighted_choice(
        (2, 3, 4, 5, 6, 8, 9, 12), (10, 15, 20, 15, 15, 10, 10, 5)
    )
    via_qasm = False
    if kind == "clifford-t":
        circuit = _clifford_t_circuit(rng, num_qubits)
    elif kind == "rotation-layers":
        circuit = _rotation_layer_circuit(rng, num_qubits)
    elif kind == "qasm-roundtrip":
        inner = (
            _clifford_t_circuit(rng, num_qubits)
            if rng.random() < 0.6
            else _rotation_layer_circuit(rng, num_qubits)
        )
        circuit = qasm.loads(qasm.dumps(inner), name=inner.name)
        via_qasm = True
    elif kind == "qaoa-layers":
        circuit = _qaoa_circuit(rng, num_qubits)
    elif kind == "structured":
        # structured families fix their own register width
        circuit = _structured_circuit(rng)
        num_qubits = circuit.num_qubits
    else:
        circuit = _edge_case_circuit(rng, num_qubits)
    config = sample_config(rng, num_qubits)
    return Scenario(
        kind=kind,
        seed=seed,
        index=index,
        circuit=circuit,
        config=config,
        via_qasm=via_qasm,
    )
