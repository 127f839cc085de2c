"""Deterministic fault injection for the compile service (chaos harness).

``repro chaos`` drives seeded campaigns of fault scenarios — worker kills
and stalls, injected disk read/write errors, truncated cache entries,
connections reset mid-frame, clients abandoning requests, a remote cache
peer resetting mid-frame or serving torn entries — against a real
in-process :class:`~repro.service.ServiceThread` backed by a real
:class:`~repro.service.CachePeerThread`, and checks the fault-tolerance
invariants after every scenario:

* no accepted request is ever lost: every request ends in a reply or a
  structured error frame with a stable code, never a hang or a raw
  connection drop;
* the server stays serving: a liveness probe must answer after every
  scenario;
* the cache is never observed poisoned: every successful reply's
  behavioural fingerprint matches the first one seen for its
  content-addressed job key (the server also replay-validates every
  response), and corrupt entries are quarantined, not served;
* chaos does not change results: after the campaign, the fast benchmark
  matrix is compiled through the battered server and compared against
  the ``default`` rows of ``BENCH.json``.

Determinism follows the fuzzing subsystem's splitmix64 seed scheme
(:mod:`repro.fuzz.rng`): scenario ``i`` of seed ``S`` is the same faults
against the same requests on every run and platform.
"""

from .injectors import (
    ScriptedDiskFaults,
    ScriptedPeerFaults,
    ScriptedWorkerFaults,
)
from .plan import CHAOS_MODES, ChaosScenario, plan_scenario
from .harness import ChaosReport, run_chaos

__all__ = [
    "CHAOS_MODES",
    "ChaosReport",
    "ChaosScenario",
    "ScriptedDiskFaults",
    "ScriptedPeerFaults",
    "ScriptedWorkerFaults",
    "plan_scenario",
    "run_chaos",
]
