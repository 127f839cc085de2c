"""Declarative compile jobs and their content-addressed identities.

A :class:`CompileJob` is one point of an experiment sweep: a circuit plus a
fully resolved :class:`~repro.compiler.config.CompilerConfig`.  Figures
declare grids of jobs; the planner dedupes them by :attr:`CompileJob.key`
(fig9/fig11/fig12 share many points) and the executor fans the survivors
out across processes.

The key is a content address: a SHA-256 over the circuit's canonical gate
stream and the full config.  Anything that can change a compilation's
output — gate list, register width, circuit name (it flows into result
tables), every config knob including the nested instruction set, factory
and synthesis models — feeds the hash, so a cache hit is only possible for
a byte-identical sweep point.  ``CACHE_SCHEMA`` is hashed in too: bump it
whenever the serialized :class:`~repro.compiler.result.CompilationResult`
layout changes, and every stale on-disk entry invalidates itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional

from .. import __version__
from ..compiler.config import CompilerConfig
from ..ir.circuit import Circuit

#: serialization-format version; part of every job key, and the only
#: version of the :mod:`repro.compiler.codec` layout: bump it on any
#: change to the encoded bytes.
#: 2: CompilationResult gained ``aux_stats``; older cached payloads would
#: deserialize with empty diagnostics, so re-address them.
#: 3: entries hold the binary encoding of :mod:`repro.compiler.codec`
#: instead of a JSON envelope; a schema-2 file would only ever be
#: quarantined as corrupt, so re-address rather than read it.
CACHE_SCHEMA = 3


@lru_cache(maxsize=1)
def compiler_revision() -> str:
    """SHA-256 over the ``repro`` package sources (computed once per process).

    Folding the code itself into every job key makes persistent-cache
    invalidation automatic: editing any compiler source re-addresses every
    entry, so a warm cache can never serve results produced by older code.
    Hashing the whole package is deliberately conservative (a docstring
    edit also invalidates) — a stale figure is far worse than a cold cache.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for source in sorted(package_root.rglob("*.py")):
        digest.update(str(source.relative_to(package_root)).encode())
        digest.update(b"\0")
        try:
            digest.update(source.read_bytes())
        except OSError:
            continue
        digest.update(b"\0")
    return digest.hexdigest()


def circuit_fingerprint(circuit: Circuit) -> str:
    """SHA-256 over the canonical gate stream (name, qubits, params)."""
    digest = hashlib.sha256()
    digest.update(f"{circuit.name}|{circuit.num_qubits}\n".encode())
    for gate in circuit:
        qubits = ",".join(map(str, gate.qubits))
        param = "" if gate.param is None else repr(gate.param)
        digest.update(f"{gate.name}|{qubits}|{param}\n".encode())
    return digest.hexdigest()


def config_fingerprint(config: CompilerConfig) -> str:
    """SHA-256 over the full config, nested models included."""
    canonical = json.dumps(asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CompileJob:
    """One (circuit, config) compile point of a sweep.

    Attributes:
        circuit: the program to compile.
        config: the fully resolved compiler configuration.
        tag: optional human-readable origin (e.g. ``"fig9"``), for logs
            only — it does not participate in the identity key.
    """

    circuit: Circuit
    config: CompilerConfig
    tag: Optional[str] = None

    @cached_property
    def key(self) -> str:
        """Content address used for dedupe, memoisation and the disk cache.

        Cached: the underlying hash walks the whole gate stream, and the
        planner/executor consult the key several times per job.
        """
        return job_key(self.circuit, self.config)


def job_key(circuit: Circuit, config: CompilerConfig) -> str:
    """The content address of one compile point.

    The compiler version *and* a hash of the package sources participate,
    so persisted results cannot outlive the code that produced them.
    """
    digest = hashlib.sha256()
    digest.update(
        f"schema={CACHE_SCHEMA}|compiler={__version__}"
        f"|rev={compiler_revision()}\n".encode()
    )
    digest.update(circuit_fingerprint(circuit).encode())
    digest.update(b"\n")
    digest.update(config_fingerprint(config).encode())
    return digest.hexdigest()
