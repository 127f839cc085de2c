"""The fuzz campaign runner behind ``repro fuzz``.

One campaign = one deterministic scenario stream (seed, iterations) pushed
through the full differential pipeline:

1. **prefetch** — every scenario's compile job goes through one
   :class:`~repro.sweep.SweepEngine` (deduped, fanned out over ``--jobs``
   worker processes, results landing in a disposable on-disk cache);
2. **oracles** — each scenario is checked against the bundle in
   :mod:`repro.fuzz.oracles`, including the differential legs: the engine
   result (worker-encoded bytes on ``--jobs > 1``) against a fresh
   in-process serial compile, and against a warm replay through a second
   engine that can only hit the disk cache;
3. **minimize** — failing scenarios are shrunk
   (:mod:`repro.fuzz.shrinker`) and written as self-contained JSON repro
   artifacts (:mod:`repro.fuzz.artifact`).

The report's verdict lines are a pure function of the seed and the code
under test — two runs with the same seed must print identical scenario
keys and verdicts, which CI can (and the tests do) assert verbatim.

Mutation mode (``repro fuzz --mutate``) turns the campaign on the
*validator* instead: every corruption class of
:mod:`repro.verify.mutations` is injected into fuzz-generated schedules,
and the run fails unless each class was both exercised and caught — proof
the conformance oracle has teeth, on inputs nobody hand-picked.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sweep import CompileCache, CompileJob, SweepEngine
from ..verify import MUTATIONS, config_distill_times, run_self_test, validate_result
from .artifact import write_artifact
from .generators import Scenario, generate_scenario
from .oracles import (
    OracleFailure,
    compare_results,
    compile_scenario,
    static_oracles,
)
from .shrinker import DEFAULT_BUDGET, shrink

Progress = Optional[Callable[[str], None]]


@dataclass
class FuzzVerdict:
    """One scenario's outcome."""

    scenario: Scenario
    failures: List[OracleFailure] = field(default_factory=list)
    minimized: Optional[Scenario] = None
    artifact: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def oracles(self) -> Tuple[str, ...]:
        """Breached oracle names, sorted and deduplicated."""
        return tuple(sorted({f.oracle for f in self.failures}))

    def line(self) -> str:
        """The deterministic one-line form the report prints."""
        status = "ok" if self.ok else "FAIL[" + ",".join(self.oracles) + "]"
        return f"{self.scenario.key[:16]} {self.scenario.name:<24} {status}"


@dataclass
class MutationReport:
    """Aggregate of mutation-mode self-tests over fuzz-generated schedules."""

    seed: int
    iterations: int
    applicable: Dict[str, int] = field(default_factory=dict)
    caught: Dict[str, int] = field(default_factory=dict)
    #: (scenario key, mutation name) for every injected-but-uncaught case.
    uncaught: List[Tuple[str, str]] = field(default_factory=list)
    #: scenario keys whose base schedule failed validation outright.
    broken_bases: List[str] = field(default_factory=list)

    @property
    def covered(self) -> Set[str]:
        """Corruption classes injected at least once."""
        return {name for name, count in self.applicable.items() if count}

    @property
    def missing(self) -> Set[str]:
        return set(MUTATIONS) - self.covered

    @property
    def ok(self) -> bool:
        return not self.uncaught and not self.missing and not self.broken_bases

    def summary(self) -> str:
        lines = [
            f"[fuzz --mutate] seed={self.seed} iterations={self.iterations}: "
            f"{len(self.covered)}/{len(MUTATIONS)} corruption classes injected"
        ]
        for name in sorted(MUTATIONS):
            lines.append(
                f"  {name:<22} injected {self.applicable.get(name, 0):>4}  "
                f"caught {self.caught.get(name, 0):>4}"
            )
        if self.missing:
            lines.append(f"  MISSING coverage: {', '.join(sorted(self.missing))}")
        for key, name in self.uncaught[:10]:
            lines.append(f"  UNCAUGHT {name} on scenario {key[:16]}")
        for key in self.broken_bases[:10]:
            lines.append(f"  INVALID base schedule on scenario {key[:16]}")
        lines.append("mutation self-test: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Everything one campaign established."""

    seed: int
    iterations: int
    jobs: int
    verdicts: List[FuzzVerdict] = field(default_factory=list)
    mutation: Optional[MutationReport] = None
    prefetch_error: Optional[str] = None

    @property
    def failures(self) -> List[FuzzVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        if self.mutation is not None and not self.mutation.ok:
            return False
        return not self.failures

    def verdict_lines(self) -> List[str]:
        """Deterministic per-scenario lines (stable across reruns)."""
        return [v.line() for v in self.verdicts]

    def kind_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for verdict in self.verdicts:
            kind = verdict.scenario.kind
            histogram[kind] = histogram.get(kind, 0) + 1
        return histogram

    def summary(self) -> str:
        lines: List[str] = []
        if self.verdicts:
            kinds = ", ".join(
                f"{kind}:{count}"
                for kind, count in sorted(self.kind_histogram().items())
            )
            lines.append(
                f"[fuzz] seed={self.seed} iterations={self.iterations} "
                f"jobs={self.jobs} ({kinds})"
            )
            if self.prefetch_error:
                lines.append(f"  prefetch degraded to serial: {self.prefetch_error}")
            for verdict in self.failures:
                lines.append(f"  {verdict.line()}")
                for failure in verdict.failures[:4]:
                    lines.append(f"    {failure}")
                if verdict.artifact:
                    lines.append(f"    repro written: {verdict.artifact}")
            lines.append(
                f"[fuzz] {len(self.verdicts) - len(self.failures)}/"
                f"{len(self.verdicts)} scenarios passed every oracle"
            )
        if self.mutation is not None:
            lines.append(self.mutation.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "jobs": self.jobs,
            "ok": self.ok,
            "verdicts": self.verdict_lines(),
            "failures": [
                {
                    "key": v.scenario.key,
                    "name": v.scenario.name,
                    "oracles": list(v.oracles),
                    "artifact": v.artifact,
                }
                for v in self.failures
            ],
        }


def run_fuzz(
    seed: int,
    iterations: int,
    jobs: int = 1,
    minimize: bool = True,
    artifact_dir: str = "fuzz-repros",
    shrink_budget: int = DEFAULT_BUDGET,
    max_minimized: int = 20,
    progress: Progress = None,
) -> FuzzReport:
    """Run one fuzz campaign; see the module docstring for the pipeline.

    Args:
        seed / iterations: the deterministic scenario stream.
        jobs: worker processes for the prefetch fan-out.
        minimize: shrink failing scenarios and write repro artifacts.
        artifact_dir: where repro JSON files land.
        shrink_budget: oracle-check ceiling per minimization.
        max_minimized: stop minimizing (not detecting) after this many
            failures — a systemic breakage should fail fast, not grind
            through thousands of shrinks.
        progress: optional line sink for human-readable progress.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    report = FuzzReport(seed=seed, iterations=iterations, jobs=max(1, jobs))
    scenarios = [generate_scenario(seed, i) for i in range(iterations)]

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        engine = SweepEngine(jobs=report.jobs, cache=CompileCache(tmp))
        try:
            # tolerant: one crashing scenario must not abort the batch —
            # it is skipped here and re-found (with full attribution) when
            # its scenario is checked individually below
            engine.prefetch(
                [
                    CompileJob(s.circuit, s.config, tag=s.name)
                    for s in scenarios
                ],
                progress=None,
                tolerant=True,
            )
        except Exception as exc:  # noqa: BLE001 — e.g. a broken pool
            report.prefetch_error = f"{type(exc).__name__}: {exc}"
        warm_engine = SweepEngine(jobs=1, cache=CompileCache(tmp))

        minimized_count = 0
        for index, scenario in enumerate(scenarios):
            verdict = _check_one(scenario, engine, warm_engine)
            if not verdict.ok and minimize and minimized_count < max_minimized:
                minimized_count += 1
                _minimize_into(
                    verdict, artifact_dir, shrink_budget, progress=progress
                )
            report.verdicts.append(verdict)
            if progress is not None and (
                (index + 1) % 50 == 0 or index + 1 == len(scenarios)
            ):
                failed = sum(1 for v in report.verdicts if not v.ok)
                progress(
                    f"[fuzz] {index + 1}/{len(scenarios)} scenarios checked"
                    + (f", {failed} failing" if failed else "")
                )
    return report


def _check_one(
    scenario: Scenario, engine: SweepEngine, warm_engine: SweepEngine
) -> FuzzVerdict:
    """Run every oracle (static + differential legs) on one scenario."""
    try:
        result = engine.compile(scenario.circuit, scenario.config)
    except Exception as exc:  # noqa: BLE001 — crashes are the finding
        import traceback

        return FuzzVerdict(
            scenario=scenario,
            failures=[
                OracleFailure(
                    "compile-crash",
                    f"{type(exc).__name__}: {exc}",
                    details={"traceback": traceback.format_exc(limit=12)},
                )
            ],
        )

    failures = static_oracles(scenario, result)

    # differential leg 1: fresh in-process serial compile.  With --jobs > 1
    # the engine result came from a worker process as encoded bytes,
    # so this holds `--jobs 1` and `--jobs N` to identical behaviour.
    direct, crash = compile_scenario(scenario)
    if direct is None:
        failures.extend(crash)
    else:
        failures.extend(compare_results(result, direct, label="engine-vs-direct"))

    # differential leg 2: warm replay through a second engine that never
    # compiles — it can only deserialise what the campaign cache holds.
    warm = warm_engine.cached_result(scenario.circuit, scenario.config)
    if warm is None:
        failures.append(
            OracleFailure(
                "determinism",
                "warm replay missed the campaign cache entirely",
            )
        )
    else:
        failures.extend(compare_results(result, warm[0], label="warm-replay"))

    return FuzzVerdict(scenario=scenario, failures=failures)


def _minimize_into(
    verdict: FuzzVerdict,
    artifact_dir: str,
    shrink_budget: int,
    progress: Progress = None,
) -> None:
    """Shrink a failing verdict in place and persist its repro artifact."""
    if progress is not None:
        progress(
            f"[fuzz] minimizing {verdict.scenario.name} "
            f"({verdict.oracles[0]}...)"
        )
    try:
        outcome = shrink(
            verdict.scenario,
            verdict.failures,
            budget=shrink_budget,
            progress=progress,
        )
        minimized, min_failures = outcome.scenario, outcome.failures
    except Exception:  # noqa: BLE001 — never lose the original repro
        minimized, min_failures = verdict.scenario, verdict.failures
    verdict.minimized = minimized
    verdict.artifact = str(
        write_artifact(
            artifact_dir, minimized, min_failures, original=verdict.scenario
        )
    )


def run_mutation_fuzz(
    seed: int,
    iterations: int,
    progress: Progress = None,
) -> MutationReport:
    """Inject every corruption class into fuzz-generated schedules.

    For each scenario: compile, assert the unmutated schedule validates,
    then run the :data:`repro.verify.MUTATIONS` self-test against it.  The
    report fails if any injected corruption goes uncaught, or if some
    class was never injectable across the whole stream (coverage hole).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    report = MutationReport(seed=seed, iterations=iterations)
    for name in MUTATIONS:
        report.applicable[name] = 0
        report.caught[name] = 0
    for index in range(iterations):
        scenario = generate_scenario(seed, index)
        result, crash = compile_scenario(scenario)
        if result is None:
            report.broken_bases.append(scenario.key)
            continue
        base = validate_result(
            result, scenario.circuit, scenario.config, label=scenario.name
        )
        if not base.ok:
            report.broken_bases.append(scenario.key)
            continue
        outcomes = run_self_test(
            result.schedule,
            scenario.circuit,
            config_distill_times(scenario.config),
            result.t_states,
        )
        for outcome in outcomes:
            if not outcome.applicable:
                continue
            report.applicable[outcome.name] += 1
            if outcome.caught:
                report.caught[outcome.name] += 1
            else:
                report.uncaught.append((scenario.key, outcome.name))
        if progress is not None and (
            (index + 1) % 25 == 0 or index + 1 == iterations
        ):
            progress(
                f"[fuzz --mutate] {index + 1}/{iterations} schedules corrupted "
                f"({len(report.covered)}/{len(MUTATIONS)} classes covered)"
            )
    return report
