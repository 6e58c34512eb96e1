"""Partial match query execution over a partitioned file.

Execution follows the paper's parallel model: every device serves its
share of the qualified buckets locally; with a symmetric interconnect the
query completes when the most-loaded device finishes, so the modelled
response time is the maximum per-device service time.  The executor
reports both the retrieved records and the load/timing diagnostics the
paper's evaluation is built on.

The *inverse mapping* — which qualified buckets each device holds — is
solved for all devices at once: a query runs as a batch of one through
:meth:`repro.engine.batch.BatchEngine.read_one`, whose one call to
:func:`~repro.core.inverse.qualified_split` yields every device's share in
serial order, and each device reads only the shares it actually stores.
The per-device generator
(:meth:`~repro.distribution.base.DistributionMethod.qualified_on_device`)
is that split's plan for non-separable methods and the correctness oracle
the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.envelope import SCHEMA_VERSION
from repro.query.partial_match import PartialMatchQuery
from repro.storage.parallel_file import PartitionedFile

__all__ = ["ExecutionResult", "QueryExecutor"]


@dataclass
class ExecutionResult:
    """Outcome and diagnostics of one partial match execution."""

    query: PartialMatchQuery
    records: list[object] = field(default_factory=list)
    #: Qualified buckets assigned to each device (by inverse mapping).
    buckets_per_device: list[int] = field(default_factory=list)
    #: Max of buckets_per_device — the paper's largest response size.
    largest_response: int = 0
    #: Modelled wall time: max over devices of their service time.
    response_time_ms: float = 0.0
    #: Sum over devices (what a single-device system would pay).
    total_service_ms: float = 0.0
    strict_optimal: bool = False
    #: Execution provenance: ``"serial"`` (one query through
    #: :class:`QueryExecutor`) or ``"batched"`` (assembled by the array
    #: engine, :class:`repro.engine.BatchEngine`).  Results are
    #: byte-identical either way; the marker lets ``obs check`` and the
    #: CLI tell which path served a query.
    mode: str = "serial"

    @property
    def speedup(self) -> float:
        """Parallel speedup over serial execution of the same work.

        Degenerate cases are reported honestly: no work at all (both times
        zero) is a neutral 1.0, but non-zero serial work finished in zero
        modelled response time is unbounded speedup, not 1.0.
        """
        if self.response_time_ms == 0.0:
            return float("inf") if self.total_service_ms > 0.0 else 1.0
        return self.total_service_ms / self.response_time_ms

    def to_dict(self) -> dict:
        """JSON-ready summary: every diagnostic, records by count only.

        The single marshalling point shared by the CLI's ``--json`` output,
        the simulator and the fault runtime — subclasses extend it rather
        than re-listing fields.  The leading ``"v"`` is the process-wide
        envelope version (:mod:`repro.envelope`), shared with the gateway
        wire protocol and ``obs export``.
        """
        return {
            "v": SCHEMA_VERSION,
            "query": self.query.describe(),
            "records": len(self.records),
            "buckets_per_device": list(self.buckets_per_device),
            "largest_response": self.largest_response,
            "response_time_ms": round(self.response_time_ms, 6),
            "total_service_ms": round(self.total_service_ms, 6),
            "speedup": round(self.speedup, 6),
            "strict_optimal": self.strict_optimal,
            "mode": self.mode,
        }

    def summary(self) -> str:
        return (
            f"{self.query.describe()}: {len(self.records)} records, "
            f"largest response {self.largest_response}, "
            f"time {self.response_time_ms:.2f} ms "
            f"({'strict optimal' if self.strict_optimal else 'skewed'})"
        )


class QueryExecutor:
    """Executes partial match queries against a :class:`PartitionedFile`."""

    def __init__(self, partitioned_file: PartitionedFile):
        self.file = partitioned_file

    def execute(self, query: PartialMatchQuery) -> ExecutionResult:
        """Run one query through every device and assemble the result."""
        return self.file.execute(query)

    def execute_box(self, box) -> ExecutionResult:
        """Run a :class:`~repro.query.box.BoxQuery` (ranges / IN-lists).

        Requires a separable method (the algebraic box inverse mapping);
        the result's ``query`` field carries the box itself.
        """
        return self.file.execute(box)
