"""Metric names and the per-layer report of a traced run.

Every workload prints every metric.  A layer a workload never crosses
reads 0 there, which is itself the prediction: a codec change must leave
compile-matrix's codec rows at 0 and its ``pass_cpu_s`` unchanged.

Per-layer values are normalised per pass (one pass over the matrix for
the batch workloads, 100 requests for gateway-mixed), so runs of
different length compare.  Span times are self times; the tier rows are
read from ``SweepEngine.tier_stats()`` and include the codec work done
inside the tier.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple


#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("pass_cpu_s", "s", "lower", 0.25),
    ("overhead_geomean", "ratio", "lower", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

#: the compile-phase seams of ``repro.perf.profiler``.
PHASES = [
    "pipeline.mapping", "pipeline.schedule", "pipeline.optimize",
    "schedule.run", "schedule.cnot", "schedule.plan_cnot", "schedule.swap",
    "schedule.ancilla", "schedule.t",
    "route.magic", "route.path", "route.to_any", "route.to_all",
    "route.reachable", "route.space", "route.clear", "route.displace",
    "optimize.resim", "optimize.eliminate", "grid.clone",
]

#: span-timed layers: each reports ``<name>_s`` (self time per pass).
SPAN_LAYERS = (
    "codec.to_dict", "codec.from_dict", "codec.checksum",
    "codec.frame_encode", "codec.frame_decode", "sweep.job_key",
    "tier.peer.get", "tier.peer.put", "verify.validate",
    "pool.roundtrip", "pool.adopt", "service.resolve", "service.cached_result",
    "gateway.request", "gateway.resolve_key", "gateway.jobstore.read",
    "gateway.jobstore.write", "gateway.dispatch",
)

#: call-count metric of a span-timed layer, where its name is irregular.
_CALLS_NAME = {
    "gateway.jobstore.read": "gateway.jobstore.reads",
    "gateway.jobstore.write": "gateway.jobstore.writes",
}

TIERS = ("memo", "disk", "remote")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for phase in PHASES:
        rows.append((f"{phase}.self_s", "s/pass", "lower"))
        rows.append((f"{phase}.calls", "calls/pass", "lower"))
    rows += [
        ("schedule.ops", "count/pass", "lower"),
        ("schedule.moves", "count/pass", "lower"),
        ("schedule.evictions", "count/pass", "lower"),
    ]
    for name in ("to_dict", "from_dict", "checksum"):
        rows.append((f"codec.{name}_s", "s/pass", "lower"))
        rows.append((f"codec.{name}.calls", "calls/pass", "lower"))
    rows += [
        ("codec.frame_encode_s", "s/pass", "lower"),
        ("codec.frame_decode_s", "s/pass", "lower"),
        ("codec.entry_bytes", "bytes", "lower"),
        ("codec.checksum_per_job", "calls/op", "lower"),
        ("codec.to_dict_per_job", "calls/op", "lower"),
        ("sweep.job_key_s", "s/pass", "lower"),
    ]
    for tier in TIERS:
        rows += [
            (f"tier.{tier}.get_s", "s/pass", "lower"),
            (f"tier.{tier}.put_s", "s/pass", "lower"),
            (f"tier.{tier}.hits", "count/pass", "higher"),
            (f"tier.{tier}.misses", "count/pass", "lower"),
            (f"tier.{tier}.errors", "count/pass", "lower"),
            (f"tier.{tier}.hit_ratio", "ratio", "higher"),
        ]
    rows += [
        ("tier.remote.rejected", "count/pass", "lower"),
        ("tier.disk.evictions", "count/pass", "lower"),
        ("tier.peer.get_s", "s/pass", "lower"),
        ("tier.peer.put_s", "s/pass", "lower"),
        ("verify.validate_s", "s/pass", "lower"),
        ("verify.validate.calls", "calls/pass", "lower"),
        ("pool.roundtrip_s", "s/pass", "lower"),
        ("pool.adopt_s", "s/pass", "lower"),
        ("pool.jobs", "count/pass", "lower"),
        ("pool.restarts", "count/pass", "lower"),
        ("pool.retries", "count/pass", "lower"),
        ("service.resolve_s", "s/pass", "lower"),
        ("service.cached_result_s", "s/pass", "lower"),
        ("service.compile_p50_ms", "ms", "lower"),
        ("service.compiled", "count/pass", "lower"),
        ("service.coalesced", "count/pass", "higher"),
        ("service.overloaded", "count/pass", "lower"),
        ("gateway.request_s", "s/pass", "lower"),
        ("gateway.requests", "count/pass", "lower"),
        ("gateway.resolve_key_s", "s/pass", "lower"),
        ("gateway.jobstore.read_s", "s/pass", "lower"),
        ("gateway.jobstore.reads", "count/pass", "lower"),
        ("gateway.jobstore.write_s", "s/pass", "lower"),
        ("gateway.jobstore.writes", "count/pass", "lower"),
        ("gateway.dispatch_s", "s/pass", "lower"),
        ("gateway.warm_hits", "count/pass", "higher"),
        ("gateway.polls_per_cold_job", "polls/job", "lower"),
        ("gateway.req_per_s", "1/s", "higher"),
        ("gateway.warm_p50_ms", "ms", "lower"),
        ("gateway.warm_p99_ms", "ms", "lower"),
        ("gateway.cold_p50_ms", "ms", "lower"),
        ("gateway.cold_p90_ms", "ms", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.spans", "count/pass", "lower"),
    ]
    return rows


#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def entry_bytes(directory) -> float:
    """Mean size of the disk-cache entries under ``directory``."""
    sizes = [path.stat().st_size for path in directory.glob("[0-9a-f][0-9a-f]/*.json")]
    return sum(sizes) / len(sizes) if sizes else 0.0


class LayerCounters:
    """Program-side counters of one run, summed over every pass."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def add_tiers(self, tier_stats: Dict[str, dict], sign: int = 1) -> None:
        """Accumulate (or with ``sign=-1`` subtract) a tier_stats() snapshot."""
        for tier, stats in tier_stats.items():
            if tier not in TIERS:
                continue
            self.counts[f"tier.{tier}.get_s"] += sign * stats.get("get_ms", 0.0) / 1000.0
            self.counts[f"tier.{tier}.put_s"] += sign * stats.get("put_ms", 0.0) / 1000.0
            for field in ("hits", "misses", "errors", "rejected", "evictions"):
                self.counts[f"tier.{tier}.{field}"] += sign * stats.get(field, 0)

    def add_results(self, results) -> None:
        """Schedule sizes of freshly compiled results (fingerprint dicts)."""
        for fingerprint in results:
            self.counts["schedule.ops"] += fingerprint["num_ops"]
            self.counts["schedule.moves"] += fingerprint["num_moves"]
            self.counts["schedule.evictions"] += fingerprint["stats"].get("evictions", 0)


def per_layer_report(
    counters: LayerCounters,
    passes: float,
    tracer=None,
    traced_passes: float = 0.0,
    traced_ops: int = 0,
    phases: Optional[Dict[str, dict]] = None,
    traced_walls: Sequence[float] = (),
    untraced_walls: Sequence[float] = (),
    coverage: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric, normalised per pass (0 where unused)."""
    report = {name: 0.0 for name, _, _ in PER_LAYER}
    passes = max(passes, 1e-9)
    traced = max(traced_passes, 1e-9)
    for name, total in counters.counts.items():
        if name in report:
            report[name] = total / passes
    report.update({name: value for name, value in counters.values.items() if name in report})
    for tier in TIERS:
        lookups = counters.counts[f"tier.{tier}.hits"] + counters.counts[f"tier.{tier}.misses"]
        report[f"tier.{tier}.hit_ratio"] = (
            counters.counts[f"tier.{tier}.hits"] / lookups if lookups else 0.0
        )
    for phase, stats in (phases or {}).items():
        if f"{phase}.self_s" in report:
            report[f"{phase}.self_s"] = stats["self"] / traced
            report[f"{phase}.calls"] = stats["calls"] / traced
    if tracer is not None:
        totals = tracer.layer_totals()
        for name in SPAN_LAYERS:
            row = totals.get(name)
            if row is None:
                continue
            report[f"{name}_s"] = row["self_s"] / traced
            calls_name = _CALLS_NAME.get(name, f"{name}.calls")
            if calls_name in report:
                report[calls_name] = row["calls"] / traced
        ops = max(traced_ops, 1)
        report["codec.checksum_per_job"] = totals.get("codec.checksum", {}).get("calls", 0) / ops
        report["codec.to_dict_per_job"] = totals.get("codec.to_dict", {}).get("calls", 0) / ops
        report["trace.spans"] = len(tracer.spans) / traced
    if traced_walls:
        report["trace.pass_s"] = statistics.median(traced_walls)
    if untraced_walls:
        report["trace.untraced_pass_s"] = statistics.median(untraced_walls)
    if traced_walls and untraced_walls:
        report["trace.overhead_ratio"] = report["trace.pass_s"] / report["trace.untraced_pass_s"]
    report["trace.coverage"] = coverage
    return report


def batch_coverage(tracer, roots, phases: Optional[Dict[str, dict]]) -> float:
    """Share of the traced passes' wall that layer self times account for.

    The benchmark's own ``bench.*`` spans do not count; a ``compile``
    span counts through the profiler phases that break it down.
    """
    wall = sum(root.duration for root in roots)
    if wall <= 0:
        return 0.0
    inner = [span for root in roots for span in tracer.descendants(root)]
    totals = tracer.layer_totals(list(roots) + inner)
    covered = sum(
        row["self_s"]
        for name, row in totals.items()
        if not name.startswith("bench.") and name != "compile"
    )
    # verify.* phases run inside verify.validate spans, already counted
    covered += sum(
        stats["self"]
        for name, stats in (phases or {}).items()
        if not name.startswith("verify.")
    )
    return covered / wall
