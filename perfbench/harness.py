"""Pieces every workload shares: the pass loop, set-up timing, the outcome."""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from . import calibrate

#: set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 31

#: fewest passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 3

T = TypeVar("T")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


class NullTracer:
    """Stands in for a :class:`~perfbench.tracing.Tracer` in untraced passes."""

    def span(self, name: str, trace: Optional[str] = None):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


def timed_setups(bring_up: Callable[[int], T], tear_down: Callable[[T], None]) -> Tuple[float, T]:
    """Bring the system up :data:`SETUP_REPEATS` times; keep the last one.

    Returns ``(median set-up seconds, the live system)``.  Like pass
    times, set-up times are CPU seconds of every thread at reference
    speed (see :mod:`perfbench.calibrate`).
    """
    costs: List[float] = []
    speed = calibrate.samples(SETUP_REPEATS)
    system = None
    for index in range(SETUP_REPEATS):
        if system is not None:
            tear_down(system)
        started = time.process_time()
        system = bring_up(index)
        costs.append(time.process_time() - started)
    return statistics.median(costs) * calibrate.scale(speed), system


def run_passes(seconds: float, run_pass: Callable[[int], float]) -> None:
    """Call ``run_pass(index)`` (which returns its wall) for ``seconds``.

    A pass starts only if the previous pass's wall says it will end
    inside the window; at least :data:`MIN_PASSES` passes run.
    """
    started = time.perf_counter()
    index = 0
    last = 0.0
    while index < MIN_PASSES or time.perf_counter() - started + last <= seconds:
        last = run_pass(index)
        index += 1
