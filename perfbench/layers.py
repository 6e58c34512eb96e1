"""Metric definitions, and the per-layer metrics of a traced run.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints,
in the order ``BENCHMARK.json`` declares them; ``PER_LAYER`` also says
which end-to-end metric each layer metric should move, on which
workload (the table ``perfbench/README.md`` reproduces).
"""

from __future__ import annotations

from dataclasses import dataclass

#: name -> (unit, which way is better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "cpu_us_per_op": ("us", "lower"),
    "success_rate": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "load_factor": ("ratio", "lower"),
}

#: name -> (unit, which way is better, what it should move)
PER_LAYER = {
    "core.inverse_us_per_query": (
        "us", "lower", "scan p50_ms and cpu_us_per_op; nothing on batch or wire"),
    "core.buckets_per_query": (
        "count", "lower", "nothing: changes only with the query mix"),
    "storage.read_us_per_query": (
        "us", "lower", "scan most, wire slightly (CRC pages)"),
    "storage.buckets_read_per_record": (
        "count", "lower", "nothing: a property of the file and the mix"),
    "storage.cache_hit_rate": (
        "ratio", "higher", "wire p50_ms and cpu_us_per_op; 0 on scan and batch"),
    "storage.cache_invalidations_per_write": (
        "count", "lower", "wire p50_ms and cpu_us_per_op; 0 on scan and batch"),
    "engine.plan_us_per_query": ("us", "lower", "batch only"),
    "engine.fetch_us_per_query": ("us", "lower", "batch only"),
    "engine.sharing_factor": ("ratio", "higher", "batch only"),
    "service.self_us_per_op": (
        "us", "lower", "wire; under 2% of scan"),
    "service.handoff_wait_us": ("us", "lower", "wire p50_ms and p99_ms"),
    "service.queue_ms": ("ms", "lower", "wire p99_ms"),
    "service.coalesced_share": ("ratio", "higher", "wire p99_ms"),
    "gateway.codec_us_per_op": ("us", "lower", "wire only"),
    "gateway.server_us_per_op": ("us", "lower", "wire only"),
    "gateway.wire_us_per_op": ("us", "lower", "wire only"),
    "gateway.bytes_per_op": ("count", "lower", "wire only"),
    "durability.wal_append_us_per_write": (
        "us", "lower", "wire cpu_us_per_op"),
    "durability.wal_bytes_per_write": ("count", "lower", "wire only"),
    "obs.cost_us_per_op": ("us", "lower", "every workload, wire most"),
    "trace.overhead_pct": (
        "%", "lower", "nothing: the cost of the traced run itself"),
    "trace.unattributed_share": (
        "ratio", "lower", "nothing: op time outside every wrapped layer"),
}

#: What the per-layer metrics cannot see from outside the program.
CAVEATS = {
    "gateway.wire_us_per_op": (
        "also holds the client's JSON decode: recv_frame reads the socket "
        "and decodes in one public call"
    ),
    "gateway.server_us_per_op": (
        "ends when the response frame is encoded; the server's sendall "
        "is not a public entry point and counts as wire time"
    ),
    "zeros": (
        "a layer a workload does not reach reads 0: engine.* outside batch, "
        "gateway.* and durability.* outside wire, handoff outside wire"
    ),
}


@dataclass
class TracedRun:
    """What a traced run observed, besides its spans."""

    spans: dict  #: merged :meth:`SpanRecorder.snapshot` of every process
    devices: int
    ops: int
    queries: int
    writes: int
    cache_lookups: int
    cache_hits: int
    cache_write_invalidations: int
    bucket_reads: int
    records_returned: int
    wal_bytes: int
    untraced_ops_per_s: float
    traced_ops_per_s: float
    cpu_us_per_op_on: float
    cpu_us_per_op_off: float


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(run: TracedRun) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    spans = run.spans
    self_s = spans.get("self_seconds", {})
    calls = spans.get("calls", {})
    counts = spans.get("counts", {})
    op_s = spans.get("op_seconds", {})

    def self_us(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) * 1e6

    inverse_queries = calls.get("core.inverse", 0) / run.devices
    enumerated = counts.get("core.buckets", 0) + counts.get(
        "engine.naive_reads", 0
    )
    results = counts.get("service.results", 0)
    return {
        "core.inverse_us_per_query": _ratio(self_us("core.inverse"), run.queries),
        "core.buckets_per_query": _ratio(
            enumerated, inverse_queries + counts.get("engine.queries", 0)
        ),
        "storage.read_us_per_query": _ratio(
            self_us("storage.read_buckets", "storage.records_in"), run.queries
        ),
        "storage.buckets_read_per_record": _ratio(
            run.bucket_reads, run.records_returned
        ),
        "storage.cache_hit_rate": _ratio(run.cache_hits, run.cache_lookups),
        "storage.cache_invalidations_per_write": _ratio(
            run.cache_write_invalidations, run.writes
        ),
        "engine.plan_us_per_query": _ratio(self_us("engine.plan"), run.queries),
        "engine.fetch_us_per_query": _ratio(
            self_us("engine.fetch"), run.queries
        ),
        "engine.sharing_factor": _ratio(
            counts.get("engine.naive_reads", 0),
            counts.get("engine.unique_reads", 0),
        )
        or 1.0,
        "service.self_us_per_op": _ratio(self_us("service.call"), run.ops),
        "service.handoff_wait_us": _ratio(
            self_us("service.handoff"), calls.get("service.handoff", 0)
        ),
        "service.queue_ms": _ratio(counts.get("service.queue_ms", 0), results),
        "service.coalesced_share": _ratio(
            counts.get("service.coalesced", 0), results
        ),
        "gateway.codec_us_per_op": _ratio(self_us("gateway.codec"), run.ops),
        "gateway.server_us_per_op": _ratio(self_us("gateway.server"), run.ops),
        "gateway.wire_us_per_op": _ratio(
            self_us("wire.recv") - op_s.get("gateway.server", 0.0) * 1e6,
            run.ops,
        ),
        "gateway.bytes_per_op": _ratio(counts.get("gateway.bytes", 0), run.ops),
        "durability.wal_append_us_per_write": _ratio(
            self_us("durability.wal_append"), run.writes
        ),
        "durability.wal_bytes_per_write": _ratio(run.wal_bytes, run.writes),
        "obs.cost_us_per_op": run.cpu_us_per_op_on - run.cpu_us_per_op_off,
        "trace.overhead_pct": (
            1.0 - _ratio(run.traced_ops_per_s, run.untraced_ops_per_s)
        )
        * 100.0,
        "trace.unattributed_share": _ratio(
            self_s.get("op", 0.0), op_s.get("op", 0.0)
        ),
    }
