#!/usr/bin/env python
"""CI smoke test for the compile service: cold request, warm request, counters.

Boots a real server (own thread, TCP socket, persistent worker pool and a
throwaway disk cache), performs one cold and one warm request for the same
job, and asserts the contract the service exists for:

* the second identical request is a **cache hit with zero compilations**;
* both responses carry the **same content-addressed key and behavioural
  fingerprint**, and the key equals what ``repro.sweep.job_key`` computes
  locally for the same job;
* a fresh server on the same cache directory serves the job from **disk**
  without compiling at all;
* hostile angles (an exponent tower, an overflowing literal) are answered
  ``bad-circuit`` within :data:`HOSTILE_BUDGET_S` seconds, and the same
  server still serves a warm request afterwards;
* a request line over ``protocol.MAX_LINE_BYTES`` is answered
  ``bad-request`` and counted in ``stats()["too_large"]``, and a fresh
  client still gets a warm hit from the same server.

Run from the repo root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import socket
import sys
import tempfile
import time

from repro.compiler.config import CompilerConfig
from repro.service import Client, ServiceError, ServiceThread, protocol
from repro.sweep import CompileCache, job_key
from repro.workloads import load_benchmark

WORKLOAD = "ising_2d_2x2"
ROUTING_PATHS = 3

#: angles that must be refused by the parser, not evaluated
HOSTILE_ANGLES = ("9**9**9", "1e999")
HOSTILE_BUDGET_S = 2.0


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"[service-smoke] FAIL: {message}")
        sys.exit(1)
    print(f"[service-smoke] ok: {message}")


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    local_key = job_key(
        load_benchmark(WORKLOAD), CompilerConfig(routing_paths=ROUTING_PATHS)
    )

    with ServiceThread(jobs=2, cache=CompileCache(cache_dir)) as service:
        host, port = service.address
        print(f"[service-smoke] server on {host}:{port} (cache {cache_dir})")
        with Client(host, port) as client:
            cold = client.compile(workload=WORKLOAD, routing_paths=ROUTING_PATHS)
            warm = client.compile(workload=WORKLOAD, routing_paths=ROUTING_PATHS)
            stats = client.stats()

        check(cold.source == "compiled", f"cold request compiled ({cold.wall:.3f}s)")
        check(warm.warm, f"warm request was a cache hit (source={warm.source})")
        check(
            stats["engine"]["compiled"] == 1,
            "exactly one compilation server-side",
        )
        check(
            stats["compile"]["cache_hits"] == 1,
            f"cache-hit counter incremented ({stats['compile']})",
        )
        check(warm.key == cold.key == local_key, "content-addressed key parity")
        check(warm.fingerprint == cold.fingerprint, "fingerprint parity")

    # a brand-new server process state over the same cache directory must
    # serve the job from disk without compiling anything
    with ServiceThread(jobs=1, cache=CompileCache(cache_dir)) as service:
        with Client(*service.address) as client:
            disk = client.compile(workload=WORKLOAD, routing_paths=ROUTING_PATHS)
            stats = client.stats()
        check(disk.source == "disk", "restarted server serves from disk")
        check(
            stats["engine"]["compiled"] == 0,
            "zero compilations after restart",
        )
        check(disk.fingerprint == cold.fingerprint, "fingerprint stable across restart")

        with Client(*service.address) as client:
            for angle in HOSTILE_ANGLES:
                source = f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n"
                started = time.perf_counter()
                try:
                    client.compile(qasm_source=source)
                    code = None
                except ServiceError as exc:
                    code = exc.code
                elapsed = time.perf_counter() - started
                check(
                    code == protocol.E_BAD_CIRCUIT and elapsed < HOSTILE_BUDGET_S,
                    f"rz({angle}) answered {code} in {elapsed:.3f}s",
                )
            after = client.compile(workload=WORKLOAD, routing_paths=ROUTING_PATHS)
        check(after.warm, f"warm request served after hostile angles (source={after.source})")

        with socket.create_connection(service.address, timeout=60) as sock:
            sock.sendall(b"x" * (protocol.MAX_LINE_BYTES + 1) + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        check(
            reply["error"]["code"] == protocol.E_BAD_REQUEST,
            f"over-long request line answered {reply['error']['code']}",
        )
        with Client(*service.address) as client:
            too_large = client.stats()["too_large"]
            fresh = client.compile(workload=WORKLOAD, routing_paths=ROUTING_PATHS)
        check(too_large == 1, f"over-long line counted (too_large={too_large})")
        check(fresh.warm, f"fresh client served warm after it (source={fresh.source})")

    print("[service-smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
