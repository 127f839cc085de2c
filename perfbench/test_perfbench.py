"""Tests of the benchmark's own machinery: seeded inputs, the tracer, the spec.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
from pathlib import Path

from repro.compiler.config import CompilerConfig
from repro.ir import qasm
from repro.sweep.jobs import job_key
from repro.workloads import load_benchmark

from perfbench import inputs
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.tracing import Span, Tracer, install_probes, self_times


def _take(seed, count):
    sequence = inputs.gateway_sequence(seed)
    return [next(sequence) for _ in range(count)]


def test_same_seed_same_gateway_sequence():
    first, second = _take(7, 400), _take(7, 400)
    assert first == second
    assert [inputs.qaoa_program(r.qaoa_seed) for r in first if r.cold] == [
        inputs.qaoa_program(r.qaoa_seed) for r in second if r.cold
    ]
    assert first != _take(8, 400)


def test_every_block_of_ten_holds_one_fresh_program():
    requests = _take(3, 1000)
    for start in range(0, len(requests), inputs.COLD_EVERY):
        block = requests[start:start + inputs.COLD_EVERY]
        assert sum(r.cold for r in block) == 1
    assert {r.warm for r in requests if not r.cold} <= set(inputs.WORKING_SET)


def test_fresh_keys_never_repeat_inside_a_run():
    config = CompilerConfig()
    fresh = [
        job_key(qasm.loads(inputs.qaoa_program(r.qaoa_seed)), config)
        for r in _take(11, 3000)
        if r.cold
    ]
    warm = {
        job_key(load_benchmark(w), CompilerConfig(routing_paths=r, num_factories=f))
        for w, r, f in inputs.WORKING_SET
    }
    assert len(set(fresh)) == len(fresh) == 300
    assert not warm & set(fresh)


def test_matrix_order_is_a_seeded_permutation():
    assert inputs.matrix_order(5) == inputs.matrix_order(5)
    assert sorted(inputs.matrix_order(5)) == sorted(inputs.MATRIX)
    assert inputs.matrix_order(5) != inputs.matrix_order(6)


def test_self_time_subtracts_merged_child_intervals():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("child"):
            pass
    child = tracer.spans[0]
    # pin the timeline: root 0..10, two overlapping children 1..4 and 3..6,
    # and one child running past the root's end (clipped to 9..10)
    root.start, root.end = 0.0, 10.0
    child.start, child.end = 1.0, 4.0
    extra = [Span("x", None, root) for _ in range(2)]
    for span, (start, end) in zip(extra, [(3.0, 6.0), (9.0, 12.0)]):
        span.start, span.end = start, end
    spans = [root, child] + extra
    assert self_times(spans) == [4.0, 3.0, 3.0, 3.0]
    assert child.trace_id() is None


def test_probes_restore_every_original():
    from repro.compiler.result import CompilationResult
    from repro.gateway.server import Gateway
    from repro.service import remote_cache
    from repro.sweep import cache

    originals = (
        CompilationResult.__dict__["from_dict"],
        Gateway.__dict__["_resolve_key"],
        cache.payload_checksum,
    )
    tracer = Tracer()
    install_probes(tracer)
    try:
        assert cache.payload_checksum is not originals[2]
        assert "get_result" in remote_cache.RemoteCache.__dict__
        assert cache.payload_checksum({"a": 1}) == originals[2]({"a": 1})
        assert tracer.spans[-1].name == "codec.checksum"
    finally:
        tracer.uninstall()
    assert (
        CompilationResult.__dict__["from_dict"],
        Gateway.__dict__["_resolve_key"],
        cache.payload_checksum,
    ) == originals
    assert "get_result" not in remote_cache.RemoteCache.__dict__


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
