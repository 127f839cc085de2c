"""The differential oracle bundle every fuzz scenario is checked against.

Each oracle is a named invariant with a stable identifier (see
:data:`ORACLE_NAMES`); a breach produces an :class:`OracleFailure` whose
``oracle`` field anchors shrinking (the minimizer only accepts reductions
that keep the *same* oracle failing) and corpus bookkeeping.

``compile-crash``
    The compiler raised instead of producing a result.  Solvability is by
    construction (see :mod:`repro.fuzz.generators`), so any exception is a
    finding.
``qasm-roundtrip``
    ``qasm.loads(qasm.dumps(c))`` must reproduce the exact gate stream —
    the parser/emitter pair sits inside the fuzz loop.
``replay-validation``
    The :mod:`repro.verify` replay validator accepts the schedule (all ten
    violation classes).
``lower-bound``
    ``makespan >= Eq. 2 lower bound``, and the recorded bound matches the
    one recomputed from the circuit and config.
``metrics-consistency``
    Every derived metric in the result re-derives to the same value from
    its inputs (profile, qubit accounting, spacetime volume, elimination
    report presence).
``serialization-roundtrip``
    Both encodings are lossless: ``CompilationResult.from_dict(json(
    to_dict()))`` (the service's ``full`` replies) and ``codec.decode(
    codec.encode(r))`` (worker IPC, the disk tier and the cache peer) give
    a byte-identical ``json.dumps(to_dict(), sort_keys=True)``.
``baseline-sanity``
    The compiled makespan never exceeds the pessimistic fully-serial
    ceiling of :mod:`repro.baselines.serial`.
``determinism``
    Two resolutions of the same scenario (serial recompile, worker
    payload, warm cache replay) carry identical fingerprints and
    schedules.
``strategy-differential``
    Every registered placement/delivery strategy compiles the scenario to
    a *valid* schedule: replay-validated, at or above the Eq. 2 bound, at
    or below the fully-serial ceiling, and deterministic across
    recompiles.  Strategies may disagree on makespan — that is their
    point — but never on correctness.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..baselines.lower_bound import distillation_lower_bound
from ..baselines.serial import pessimistic_serial_time
from ..compiler import codec
from ..compiler.pipeline import FaultTolerantCompiler
from ..compiler.result import CompilationResult
from ..ir import qasm
from ..ir.properties import profile as circuit_profile
from ..verify import validate_result
from .generators import Scenario

#: float tolerance mirroring the replay validator's.
EPS = 1e-6

#: the closed set of oracle identifiers.
ORACLE_NAMES = (
    "compile-crash",
    "qasm-roundtrip",
    "replay-validation",
    "lower-bound",
    "metrics-consistency",
    "serialization-roundtrip",
    "baseline-sanity",
    "determinism",
    "strategy-differential",
)


@dataclass(frozen=True)
class OracleFailure:
    """One oracle breach on one scenario (JSON-safe for repro artifacts)."""

    oracle: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "message": self.message,
            "details": dict(self.details),
        }

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


def compile_scenario(
    scenario: Scenario,
) -> Tuple[Optional[CompilationResult], List[OracleFailure]]:
    """Compile serially, converting any exception into ``compile-crash``."""
    try:
        result = FaultTolerantCompiler(scenario.config).compile(scenario.circuit)
    except Exception as exc:  # noqa: BLE001 — crashes are the finding
        return None, [
            OracleFailure(
                oracle="compile-crash",
                message=f"{type(exc).__name__}: {exc}",
                details={"traceback": traceback.format_exc(limit=12)},
            )
        ]
    return result, []


def static_oracles(
    scenario: Scenario, result: CompilationResult
) -> List[OracleFailure]:
    """Every oracle that needs only the scenario and one compiled result."""
    failures: List[OracleFailure] = []
    failures.extend(_check_qasm_roundtrip(scenario))
    failures.extend(_check_replay_validation(scenario, result))
    failures.extend(_check_lower_bound(scenario, result))
    failures.extend(_check_metrics(scenario, result))
    failures.extend(_check_serialization(result))
    failures.extend(_check_baseline(scenario, result))
    return failures


def check_scenario(
    scenario: Scenario, differential: bool = True
) -> Tuple[Optional[CompilationResult], List[OracleFailure]]:
    """The full self-contained bundle (shrinker and corpus replay path).

    ``differential=True`` additionally recompiles the scenario in-process
    and replays it through an on-disk cache round trip, holding all three
    resolutions to fingerprint equality.  (The campaign runner adds one
    more leg this path cannot reproduce cheaply: the ``--jobs N``
    worker-pool payload.)
    """
    result, failures = compile_scenario(scenario)
    if result is None:
        return None, failures
    failures = static_oracles(scenario, result)
    if differential:
        second, crash = compile_scenario(scenario)
        if second is None:
            failures.extend(crash)
        else:
            failures.extend(
                compare_results(result, second, label="serial-recompile")
            )
        failures.extend(_check_disk_replay(scenario, result))
        failures.extend(_check_strategy_differential(scenario))
    return result, failures


def _check_disk_replay(
    scenario: Scenario, result: CompilationResult
) -> List[OracleFailure]:
    """Round-trip the result through a real on-disk cache entry."""
    import tempfile

    from ..sweep import CompileCache, job_key

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-replay-") as tmp:
        cache = CompileCache(tmp)
        key = job_key(scenario.circuit, scenario.config)
        cache.store(key, result)
        warm = cache.load(key)
    if warm is None:
        return [
            OracleFailure(
                "determinism",
                "on-disk cache entry unreadable immediately after store",
            )
        ]
    return compare_results(result, warm, label="disk-replay")


def _check_strategy_differential(scenario: Scenario) -> List[OracleFailure]:
    """Compile under every *other* registered strategy and hold each one
    to validity, the bound/ceiling envelope, and determinism.

    The scenario's own strategy is already covered by the main oracle
    bundle; this leg asserts the property the quality harness leans on —
    that strategies are interchangeable on correctness and only ever
    disagree on schedule quality.
    """
    from ..strategies import STRATEGY_NAMES

    failures: List[OracleFailure] = []
    for name in STRATEGY_NAMES:
        if name == scenario.config.strategy:
            continue
        config = scenario.config.with_(strategy=name)
        try:
            result = FaultTolerantCompiler(config).compile(scenario.circuit)
        except Exception as exc:  # noqa: BLE001 — a strategy-only crash is the finding
            failures.append(
                OracleFailure(
                    "strategy-differential",
                    f"strategy {name!r} crashed: {type(exc).__name__}: {exc}",
                    details={"traceback": traceback.format_exc(limit=12)},
                )
            )
            continue
        report = validate_result(
            result, scenario.circuit, config, label=f"{scenario.name}/{name}"
        )
        if not report.ok:
            failures.append(
                OracleFailure(
                    "strategy-differential",
                    f"strategy {name!r} schedule failed replay validation: "
                    f"{report.summary(limit=3)}",
                    details={"report": report.to_dict()},
                )
            )
        if result.execution_time + EPS < result.lower_bound:
            failures.append(
                OracleFailure(
                    "strategy-differential",
                    f"strategy {name!r} makespan {result.execution_time} "
                    f"beats the distillation bound {result.lower_bound}",
                )
            )
        ceiling = pessimistic_serial_time(scenario.circuit, config, result.layout)
        if result.execution_time > ceiling + EPS:
            failures.append(
                OracleFailure(
                    "strategy-differential",
                    f"strategy {name!r} makespan {result.execution_time} "
                    f"exceeds the serial ceiling {ceiling}",
                )
            )
        second = FaultTolerantCompiler(config).compile(scenario.circuit)
        for failure in compare_results(result, second, label=f"strategy:{name}"):
            failures.append(
                OracleFailure(
                    "strategy-differential",
                    f"strategy {name!r} not deterministic: {failure.message}",
                    details=failure.details,
                )
            )
    return failures


# -- individual oracles --------------------------------------------------------


def _check_qasm_roundtrip(scenario: Scenario) -> List[OracleFailure]:
    try:
        text = qasm.dumps(scenario.circuit)
        recovered = qasm.loads(text, name=scenario.circuit.name)
    except Exception as exc:  # noqa: BLE001
        return [
            OracleFailure(
                "qasm-roundtrip",
                f"round-trip raised {type(exc).__name__}: {exc}",
            )
        ]
    if recovered.num_qubits != scenario.circuit.num_qubits:
        return [
            OracleFailure(
                "qasm-roundtrip",
                f"register width changed: {scenario.circuit.num_qubits} -> "
                f"{recovered.num_qubits}",
            )
        ]
    original = list(scenario.circuit.gates)
    parsed = list(recovered.gates)
    if original != parsed:
        for i, (a, b) in enumerate(zip(original, parsed)):
            if a != b:
                return [
                    OracleFailure(
                        "qasm-roundtrip",
                        f"gate {i} changed across the round trip: {a} -> {b}",
                    )
                ]
        return [
            OracleFailure(
                "qasm-roundtrip",
                f"gate count changed: {len(original)} -> {len(parsed)}",
            )
        ]
    return []


def _check_replay_validation(
    scenario: Scenario, result: CompilationResult
) -> List[OracleFailure]:
    report = validate_result(
        result, scenario.circuit, scenario.config, label=scenario.name
    )
    if report.ok:
        return []
    return [
        OracleFailure(
            "replay-validation",
            report.summary(limit=3),
            details={"report": report.to_dict()},
        )
    ]


def _check_lower_bound(
    scenario: Scenario, result: CompilationResult
) -> List[OracleFailure]:
    failures: List[OracleFailure] = []
    config = scenario.config
    expected_bound = distillation_lower_bound(
        result.t_states,
        config.factory_config().distill_time,
        config.num_factories,
    )
    if abs(expected_bound - result.lower_bound) > EPS:
        failures.append(
            OracleFailure(
                "lower-bound",
                f"recorded bound {result.lower_bound} != recomputed "
                f"{expected_bound}",
            )
        )
    for label, value in (
        ("makespan", result.execution_time),
        ("unit-cost makespan", result.unit_cost_time),
    ):
        if value is not None and value + EPS < result.lower_bound:
            failures.append(
                OracleFailure(
                    "lower-bound",
                    f"{label} {value} beats the distillation lower bound "
                    f"{result.lower_bound} — impossible by Eq. 2",
                )
            )
    return failures


def _check_metrics(
    scenario: Scenario, result: CompilationResult
) -> List[OracleFailure]:
    failures: List[OracleFailure] = []
    config = scenario.config

    def mismatch(name: str, got, expected) -> None:
        failures.append(
            OracleFailure(
                "metrics-consistency",
                f"{name}: result records {got!r}, re-derivation gives "
                f"{expected!r}",
            )
        )

    if result.execution_time != result.schedule.makespan:
        mismatch("execution_time", result.execution_time, result.schedule.makespan)
    expected_t = config.synthesis.circuit_t_count(scenario.circuit)
    if result.t_states != expected_t:
        mismatch("t_states", result.t_states, expected_t)
    if result.num_factories != config.num_factories:
        mismatch("num_factories", result.num_factories, config.num_factories)
    if result.factory_area != config.factory_config().area:
        mismatch("factory_area", result.factory_area, config.factory_config().area)
    expected_total = (
        result.layout.total_qubits + config.num_factories * result.factory_area
    )
    if result.total_qubits != expected_total:
        mismatch("total_qubits", result.total_qubits, expected_total)
    expected_volume = result.total_qubits * result.execution_time
    if abs(result.spacetime_volume(True) - expected_volume) > EPS:
        mismatch("spacetime_volume", result.spacetime_volume(True), expected_volume)
    expected_profile = asdict(circuit_profile(scenario.circuit))
    if asdict(result.profile) != expected_profile:
        mismatch("profile", asdict(result.profile), expected_profile)
    if config.eliminate_redundant_moves:
        if result.elimination is None:
            mismatch("elimination report", None, "an EliminationReport")
    elif result.elimination is not None:
        mismatch("elimination report", result.elimination, None)
    if (config.compute_unit_cost_time) != (result.unit_cost_time is not None):
        mismatch(
            "unit_cost_time presence",
            result.unit_cost_time,
            "set iff compute_unit_cost_time",
        )
    if result.layout.routing_paths != config.routing_paths:
        mismatch("layout.routing_paths", result.layout.routing_paths,
                 config.routing_paths)
    return failures


def _check_serialization(result: CompilationResult) -> List[OracleFailure]:
    try:
        canonical = json.dumps(result.to_dict(), sort_keys=True)
        rebuilt = CompilationResult.from_dict(json.loads(canonical))
        decoded = codec.decode(codec.encode(result))
    except Exception as exc:  # noqa: BLE001
        return [
            OracleFailure(
                "serialization-roundtrip",
                f"serialization raised {type(exc).__name__}: {exc}",
            )
        ]
    if rebuilt.to_dict() != result.to_dict():
        return [
            OracleFailure(
                "serialization-roundtrip",
                "to_dict() not a fixpoint across from_dict()",
            )
        ]
    if json.dumps(decoded.to_dict(), sort_keys=True) != canonical:
        return [
            OracleFailure(
                "serialization-roundtrip",
                "codec.decode(codec.encode(r)) does not serialize like r",
            )
        ]
    if rebuilt.fingerprint() != result.fingerprint():
        return [
            OracleFailure(
                "serialization-roundtrip",
                "fingerprint changed across serialization",
                details={
                    "before": result.fingerprint(),
                    "after": rebuilt.fingerprint(),
                },
            )
        ]
    return []


def _check_baseline(
    scenario: Scenario, result: CompilationResult
) -> List[OracleFailure]:
    ceiling = pessimistic_serial_time(
        scenario.circuit, scenario.config, result.layout
    )
    if result.execution_time > ceiling + EPS:
        return [
            OracleFailure(
                "baseline-sanity",
                f"makespan {result.execution_time} exceeds the pessimistic "
                f"fully-serial ceiling {ceiling}",
                details={"ceiling": ceiling, "makespan": result.execution_time},
            )
        ]
    return []


# -- differential comparison ---------------------------------------------------


def compare_results(
    reference: CompilationResult,
    other: CompilationResult,
    label: str,
) -> List[OracleFailure]:
    """Hold two resolutions of one scenario to behavioural identity.

    Fingerprints must match exactly, and so must the serialized schedules
    (op-for-op) — the property that makes ``--jobs N``, warm caches and
    the compile service indistinguishable from serial compilation.
    """
    if reference.fingerprint() != other.fingerprint():
        return [
            OracleFailure(
                "determinism",
                f"fingerprint differs between resolutions ({label})",
                details={
                    "label": label,
                    "reference": reference.fingerprint(),
                    "other": other.fingerprint(),
                },
            )
        ]
    if reference.schedule.to_dict() != other.schedule.to_dict():
        return [
            OracleFailure(
                "determinism",
                f"schedules differ op-for-op despite equal fingerprints "
                f"({label})",
                details={"label": label},
            )
        ]
    return []
