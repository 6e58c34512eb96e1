"""The array-native batch engine: many queries, one pass over the devices.

:class:`BatchEngine` executes a batch of partial match queries against a
:class:`~repro.storage.parallel_file.PartitionedFile` and returns, per
query, an :class:`~repro.storage.executor.ExecutionResult` **byte-identical**
to serial execution of that query — same records in the same order, same
per-device bucket counts, same modelled times — while touching each
(device, bucket) pair at most once for the whole batch:

1. *Plan.*  :class:`~repro.engine.plan.ArrayBatchPlanner` dedupes the batch
   by signature, groups it by pattern and takes each group's per-device
   split from one :func:`~repro.core.inverse.qualified_split` call,
   yielding flat int64 bucket addresses per (query, device) plus each
   device's deduplicated read set.
2. *Fetch.*  Under the file's mutation lock (one consistent snapshot) each
   device's read set is intersected with its *present* set — a sorted flat
   array cached until that device mutates — and only those buckets are
   pulled from the local store, once each.
3. *Assemble.*  Each query's slice is matched into the fetched arrays with
   ``searchsorted``; records concatenate in the serial order (device 0..M-1,
   buckets in enumeration order, store insertion order within a bucket).
   Service times are recomputed from the *planned* per-device counts with
   the device's own cost model, accumulated in device order, so the floats
   come out bit-equal to serial execution.

A single query takes the batch-of-one fast path, :meth:`BatchEngine.read_one`
(behind :meth:`~repro.storage.parallel_file.PartitionedFile.execute`, the
result cache's misses and the uncached service): one per-device split
(:func:`~repro.core.inverse.qualified_split`, the same call the planner
makes per pattern group), one present-set lookup per device, no planner,
dedupe or mask pool.

Failure semantics: a store that verifies reads (e.g.
:class:`~repro.durability.checksummed_store.ChecksummedBucketStore`) raises
on the first corrupt bucket any query in the batch needs — the batch is one
operation, so one bad page fails the batch, where serial execution would
fail only the queries touching it.  The present set uses
``tracked_buckets()`` when available so a dropped page (checksum left
behind) is still read — and still detected — rather than silently skipped.

Telemetry: one ``query.batch`` span per call carrying a ``per_query``
attribute (query, qualified count, per-device buckets) that
``ObservedOptimalityChecker`` can audit exactly like serial
``query.execute`` spans, plus ``engine.*`` counters and histograms.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.inverse import qualified_split
from repro.engine.plan import ArrayBatchPlan, ArrayBatchPlanner
from repro.hashing.fields import Bucket
from repro.obs import telemetry, trace_span
from repro.obs.clock import now as _now
from repro.query.partial_match import PartialMatchQuery
from repro.storage.executor import ExecutionResult
from repro.storage.parallel_file import PartitionedFile
from repro.util.numbers import ceil_div

__all__ = ["BatchEngine", "BatchExecutionReport"]


@dataclass
class BatchExecutionReport:
    """Per-query results plus batch-level read accounting."""

    #: One result per submitted query (duplicates get their own copies),
    #: each byte-identical to serial execution of that query.
    results: list[ExecutionResult] = field(default_factory=list)
    #: Bucket probes a query-at-a-time run of the batch would make.
    naive_reads: int = 0
    #: Probes after dropping duplicate queries (serial model, per query).
    planned_reads: int = 0
    #: Distinct (device, bucket) pairs the engine actually touched.
    unique_reads: int = 0
    #: Modelled batch wall time: max per-device service time over each
    #: device's deduplicated read set.
    response_time_ms: float = 0.0
    duplicates_removed: int = 0
    plan_ms: float = 0.0
    fetch_ms: float = 0.0

    @property
    def sharing_factor(self) -> float:
        """Naive probes over deduplicated reads (1.0 = no overlap)."""
        if self.unique_reads == 0:
            return 1.0
        return self.naive_reads / self.unique_reads

    @property
    def reads_saved(self) -> int:
        return self.naive_reads - self.unique_reads

    def to_dict(self) -> dict:
        return {
            "queries": len(self.results),
            "duplicates_removed": self.duplicates_removed,
            "naive_reads": self.naive_reads,
            "planned_reads": self.planned_reads,
            "unique_reads": self.unique_reads,
            "sharing_factor": round(self.sharing_factor, 6),
            "response_time_ms": round(self.response_time_ms, 6),
            "results": [result.to_dict() for result in self.results],
        }


@dataclass(slots=True)
class _PresentSet:
    """One device's stored buckets, flat-encoded and sorted.

    ``flats`` is the sorted int64 array of flat addresses; ``buckets[k]``
    is the tuple address of ``flats[k]`` (what the local store is keyed
    by).  Valid while the device still holds ``store`` and its mutation
    counter still reads ``mutations``.

    For stores that do *not* verify reads, ``records[k]`` (and
    ``pages[k]`` when the store is page-aware) snapshot the store's
    answers at build time, so a fetch is pure list gathers with no
    per-bucket store calls.  Left ``None`` for verifying stores — their
    per-read CRC check is part of the contract and must run every read.
    """

    store: object
    mutations: int
    flats: np.ndarray
    buckets: list[Bucket]
    records: list[tuple[object, ...]] | None = None
    pages: list[int] | None = None


def _find(flats: np.ndarray, needed: np.ndarray) -> np.ndarray:
    """Positions in sorted *flats* of the *needed* addresses it holds, in
    *needed*'s order."""
    if not needed.size or not flats.size:
        return needed[:0]
    positions = np.minimum(np.searchsorted(flats, needed), flats.size - 1)
    return positions[flats[positions] == needed]


class BatchEngine:
    """Batched, array-native query execution over a partitioned file.

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 4, m=4)
    >>> pf = PartitionedFile(FXDistribution(fs))
    >>> __ = pf.insert((1, 2))
    >>> engine = BatchEngine(pf)
    >>> q = pf.query({0: 1})
    >>> report = engine.execute([q, q])    # duplicate planned once
    >>> report.duplicates_removed, len(report.results)
    (1, 2)
    >>> report.results[0].records == report.results[1].records
    True
    """

    def __init__(self, partitioned_file: PartitionedFile):
        self.file = partitioned_file
        self.planner = ArrayBatchPlanner(partitioned_file.method)
        self._present: dict[int, _PresentSet] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, queries: Sequence[PartialMatchQuery]
    ) -> BatchExecutionReport:
        """Run the whole batch in one planning + one fetch pass."""
        report = BatchExecutionReport(naive_reads=0)
        if not queries:
            return report
        plan_started = _now()
        plan = self.planner.plan(queries)
        report.plan_ms = (_now() - plan_started) * 1000.0
        report.naive_reads = plan.naive_bucket_reads
        report.planned_reads = plan.planned_reads
        report.unique_reads = plan.unique_reads
        report.duplicates_removed = plan.duplicates_removed

        with trace_span(
            "query.batch",
            queries=len(queries),
            distinct=len(plan.distinct),
            planned_reads=plan.planned_reads,
            unique_reads=plan.unique_reads,
        ) as span:
            try:
                fetch_started = _now()
                with self.file.read_locked():
                    fetched = self._fetch_locked(plan, report)
                report.fetch_ms = (_now() - fetch_started) * 1000.0
                distinct_results = self._assemble(plan, fetched)
                report.results = self._fan_out(plan, distinct_results)
            finally:
                self.planner.recycle(plan)
            span.set_attr("response_ms", round(report.response_time_ms, 6))
            span.set_attr(
                "sharing_factor", round(report.sharing_factor, 6)
            )
            span.set_attr(
                "per_query",
                [
                    {
                        "query": result.query.describe(),
                        "qualified": result.query.qualified_count,
                        "buckets_per_device": list(result.buckets_per_device),
                    }
                    for result in report.results
                ],
            )
        metrics = telemetry().metrics
        metrics.add("engine.batches")
        metrics.add("engine.queries", len(queries))
        metrics.add("engine.unique_reads", report.unique_reads)
        metrics.add("engine.reads_saved", report.reads_saved)
        metrics.observe("engine.batch_size", len(queries))
        metrics.observe("engine.plan_ms", report.plan_ms)
        metrics.observe("engine.fetch_ms", report.fetch_ms)
        return report

    def fetch_buckets(
        self, queries: Sequence[PartialMatchQuery]
    ) -> tuple[list[dict[Bucket, tuple[object, ...]]], int]:
        """Bucket-grouped records per query, one batched device pass.

        The cache-fill primitive behind
        :meth:`repro.storage.cache.CachedExecutor.lookup_batch`: returns
        one ``{bucket: records}`` mapping per query — non-empty buckets
        only, which :class:`~repro.storage.cache.CachedLookup` treats the
        same as explicit empties — and the write version the snapshot
        reflects.  Duplicate queries share one planned fetch but get
        independent mappings.
        """
        if not queries:
            return [], self.file.write_version
        plan = self.planner.plan(queries)
        report = BatchExecutionReport()
        with trace_span(
            "query.batch",
            queries=len(queries),
            distinct=len(plan.distinct),
            planned_reads=plan.planned_reads,
            unique_reads=plan.unique_reads,
        ) as span:
            try:
                with self.file.read_locked():
                    version = self.file.write_version
                    fetched = self._fetch_locked(plan, report)
            finally:
                self.planner.recycle(plan)
            span.set_attr(
                "per_query",
                [
                    {
                        "query": query.describe(),
                        "qualified": query.qualified_count,
                        "buckets_per_device": plan.counts[
                            plan.slot_of[index]
                        ].tolist(),
                    }
                    for index, query in enumerate(queries)
                ],
            )
        distinct_maps: list[dict[Bucket, tuple[object, ...]]] = []
        for slot in range(len(plan.distinct)):
            buckets: dict[Bucket, tuple[object, ...]] = {}
            for device in range(self.file.filesystem.m):
                flats, device_buckets, records = fetched[device]
                needed = plan.slices[(slot, device)]
                for position in _find(flats, needed).tolist():
                    buckets[device_buckets[position]] = records[position]
            distinct_maps.append(buckets)
        return (
            [dict(distinct_maps[slot]) for slot in plan.slot_of],
            version,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _present_set(self, device) -> _PresentSet:
        """The device's stored buckets as a sorted flat array, cached until
        the device's store or its mutation counter changes — a write
        rebuilds only the device it landed on.

        Uses ``tracked_buckets()`` when the store offers it so buckets
        whose page was lost but whose checksum survives are still probed —
        and their corruption surfaced — exactly as a serial read would.
        Out-of-band store surgery that bypasses the device interface must
        be followed by :meth:`invalidate`, the same contract as the result
        cache.
        """
        cached = self._present.get(device.device_id)
        if (
            cached is not None
            and cached.store is device.store
            and cached.mutations == device.mutations
        ):
            return cached
        store = device.store
        tracked = getattr(store, "tracked_buckets", None)
        buckets = list(tracked() if tracked else store.buckets())
        if buckets:
            arr = np.asarray(buckets, dtype=np.int64)
            flats = arr @ self.planner.strides
            order = np.argsort(flats, kind="stable")
            flats = flats[order]
            buckets = [buckets[k] for k in order.tolist()]
        else:
            flats = np.empty(0, dtype=np.int64)
        records = pages = None
        if buckets and not getattr(store, "verifies_reads", False):
            # Snapshot the store's answers alongside the addresses: valid
            # until the next mutation, and only for stores whose reads are
            # side-effect free (no per-read CRC to preserve).
            records = [store.records_in(bucket) for bucket in buckets]
            if hasattr(store, "pages_in"):
                pages = [store.pages_in(bucket) for bucket in buckets]
        present = _PresentSet(
            store, device.mutations, flats, buckets, records, pages
        )
        self._present[device.device_id] = present
        return present

    def invalidate(self) -> None:
        """Drop the cached present sets (after out-of-band store surgery)."""
        self._present.clear()

    @staticmethod
    def _read_present(
        device, present: _PresentSet, positions: list[int], probes: int
    ) -> tuple[list[Bucket], list[tuple[object, ...]], float, int]:
        """Read the present buckets at *positions* once each, then account
        one device request of *probes* bucket reads (costed in pages on a
        page-aware store).  Returns the buckets, their records, the
        request's service time and the record count.
        """
        buckets = [present.buckets[p] for p in positions]
        store = device.store
        page_aware = hasattr(store, "pages_in")
        if present.records is not None:  # non-verifying: gather the snapshot
            records = [present.records[p] for p in positions]
            pages = [present.pages[p] for p in positions] if page_aware else ()
        else:
            records = [store.records_in(bucket) for bucket in buckets]
            pages = [store.pages_in(b) for b in buckets] if page_aware else ()
        returned = sum(map(len, records))
        device.stats.bucket_reads += probes
        device.stats.records_returned += returned
        service = device.cost_model.service_time(
            sum(pages) if page_aware else probes
        )
        device.stats.busy_time_ms += service
        return buckets, records, service, returned

    def _fetch_locked(self, plan: ArrayBatchPlan, report) -> dict:
        """Read each device's deduplicated bucket set once.

        Returns, per device: the sorted flat addresses actually present
        (needed ∩ stored) with their bucket tuples and fetched record
        tuples, all three aligned.  Device service time for the
        batch is modelled over the deduplicated read set, page-aware when
        the store is.
        """
        fetched: dict[int, tuple] = {}
        reads = returned = 0
        for device in self.file.devices:
            present = self._present_set(device)
            mask = plan.masks.get(device.device_id)
            if mask is not None:
                # Bitmap path: gather the (small, sorted) present set
                # through the request-membership mask — no search needed.
                hit_positions = np.flatnonzero(mask[present.flats])
            else:
                hit_positions = _find(
                    present.flats, plan.unique_per_device[device.device_id]
                )
            hit_flats = present.flats[hit_positions]
            positions = hit_positions.tolist()
            buckets, records, service, count = self._read_present(
                device, present, positions, len(positions)
            )
            reads += len(positions)
            returned += count
            report.response_time_ms = max(report.response_time_ms, service)
            fetched[device.device_id] = (hit_flats, buckets, records)
        _count_reads(reads, returned)
        return fetched

    def read_one(
        self, query
    ) -> tuple[ExecutionResult, dict[Bucket, tuple[object, ...]], int]:
        """Execute one partial match or box query: the batch of one,
        without planner or pools.

        One :func:`~repro.core.inverse.qualified_split` call yields every
        device's qualified flat addresses in serial order; each device's
        slice is matched against its present set, so only non-empty
        buckets reach the store, once each, while every planned probe is
        charged as in the serial model.  Returns the result, the
        non-empty buckets with their records in serial order, and the
        snapshot's write version.
        """
        devices = self.file.devices
        flat, counts = qualified_split(
            self.file.method, [query], self.planner.strides
        )
        counts = counts[0].tolist()
        result = ExecutionResult(query=query)
        buckets: dict[Bucket, tuple[object, ...]] = {}
        with trace_span(
            "query.execute",
            query=query.describe(),
            qualified=query.qualified_count,
        ) as span:
            with self.file.read_locked():
                version = self.file.write_version
                start = returned = 0
                for device, planned in zip(devices, counts):
                    present = self._present_set(device)
                    needed = flat[start:start + planned]
                    positions = _find(present.flats, needed).tolist()
                    start += planned
                    hit_buckets, hit_records, __, count = self._read_present(
                        device, present, positions, planned
                    )
                    returned += count
                    for bucket, records in zip(hit_buckets, hit_records):
                        buckets[bucket] = records
                        result.records.extend(records)
                    service = device.cost_model.service_time(planned)
                    result.total_service_ms += service
                    result.response_time_ms = max(
                        result.response_time_ms, service
                    )
            _count_reads(start, returned)
            result.buckets_per_device = counts
            result.largest_response = max(counts, default=0)
            bound = ceil_div(query.qualified_count, len(devices))
            result.strict_optimal = result.largest_response <= bound
            # The paper's metric, observed: per-device qualified buckets
            # and the modelled response, straight into the telemetry store.
            span.set_attr("buckets_per_device", list(counts))
            span.set_attr("largest_response", result.largest_response)
            span.set_attr("strict_optimal", result.strict_optimal)
            span.set_attr("response_ms", round(result.response_time_ms, 6))
        return result, buckets, version

    def _assemble(
        self, plan: ArrayBatchPlan, fetched: dict
    ) -> list[ExecutionResult]:
        """Rebuild each distinct query's serial-identical result.

        Matching is batched per *device*: every slot's slice is matched
        against the fetched flats in one ``searchsorted``, and each hit is
        routed back to its slot by its offset in the concatenation.  Hits
        stay in slice order within a slot, so the records still
        concatenate in serial enumeration order.
        """
        m = self.file.filesystem.m
        n_slots = len(plan.distinct)
        hits: dict[tuple[int, int], list] = {}
        for device in self.file.devices:
            device_id = device.device_id
            flats, __, records = fetched[device_id]
            if not flats.size:
                continue
            requested, boundaries = plan.requests[device_id]
            if not requested.size:
                continue
            positions = np.minimum(
                np.searchsorted(flats, requested), flats.size - 1
            )
            valid_at = np.flatnonzero(flats[positions] == requested)
            if not valid_at.size:
                continue
            slot_of_hit = np.searchsorted(boundaries, valid_at, side="right")
            for slot, position in zip(
                slot_of_hit.tolist(), positions[valid_at].tolist()
            ):
                hits.setdefault((int(slot), device_id), []).append(
                    records[position]
                )
        results: list[ExecutionResult] = []
        # Service times are a pure function of (device, planned count) and
        # counts repeat heavily across slots — memoise, floats stay
        # bit-equal to per-call computation.
        service_memo: dict[tuple[int, int], float] = {}
        for slot in range(n_slots):
            query = plan.queries[plan.distinct[slot]]
            result = ExecutionResult(query=query, mode="batched")
            planned_row = plan.counts[slot].tolist()
            total = 0.0
            response = 0.0
            for device in self.file.devices:
                device_id = device.device_id
                bucket_records = hits.get((slot, device_id))
                if bucket_records:
                    result.records.extend(
                        chain.from_iterable(bucket_records)
                    )
                # The serial model charges every planned probe, present or
                # not — identical floats come from identical counts.
                key = (device_id, planned_row[device_id])
                service = service_memo.get(key)
                if service is None:
                    service = device.cost_model.service_time(key[1])
                    service_memo[key] = service
                total += service
                if service > response:
                    response = service
            result.buckets_per_device = planned_row
            result.total_service_ms = total
            result.response_time_ms = response
            result.largest_response = max(planned_row, default=0)
            bound = ceil_div(query.qualified_count, m)
            result.strict_optimal = result.largest_response <= bound
            results.append(result)
        return results

    def _fan_out(
        self, plan: ArrayBatchPlan, distinct_results: list[ExecutionResult]
    ) -> list[ExecutionResult]:
        """One independent result per submitted query (duplicates cloned)."""
        used: set[int] = set()
        results: list[ExecutionResult] = []
        for slot in plan.slot_of:
            template = distinct_results[slot]
            if slot not in used:
                used.add(slot)
                results.append(template)
            else:
                results.append(
                    ExecutionResult(
                        query=template.query,
                        records=list(template.records),
                        buckets_per_device=list(template.buckets_per_device),
                        largest_response=template.largest_response,
                        response_time_ms=template.response_time_ms,
                        total_service_ms=template.total_service_ms,
                        strict_optimal=template.strict_optimal,
                        mode="batched",
                    )
                )
        return results


def _count_reads(probes: int, returned: int) -> None:
    """One read's device totals into the ``storage.*`` counters."""
    if probes:
        metrics = telemetry().metrics
        metrics.add("storage.bucket_reads", probes)
        metrics.add("storage.records_returned", returned)
