"""The in-process workloads, ``scan`` and ``batch``.

Both serve the paper's Table 7 file (six fields of size 8, M=32, FX with
the ``make_method("fx")`` default transforms) with 16,384 preloaded
records behind ``make_service`` defaults, from one caller in a closed
loop.  ``scan`` sends single queries through ``QueryService.execute``;
``batch`` sends 16-query batches through ``QueryService.execute_many``.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import deque

from perfbench import inputs
from perfbench.instrument import (
    Instrumentation,
    instrument_engine,
    instrument_service,
    layer_counters,
)
from perfbench.measure import Phase, closed_loop, peak_rss_mb
from perfbench.oracle import (
    OracleMismatch,
    RecordOracle,
    check_placement,
    fingerprint,
    load_factor,
)
from perfbench.tracing import SpanRecorder

#: Set-ups per run; the median is ``setup_s``.
SETUPS = 7
#: Queries of the stream the post-run load-factor pass executes.
LOAD_FACTOR_QUERIES = 128
#: Inputs drawn ahead per second of a phase: above either workload's op
#: rate on a 2-core machine, so phases rarely generate inputs while timed.
PREFETCH_QUERIES_PER_S = 90
PREFETCH_BATCHES_PER_S = 110
#: Ops run before timing starts, so lazy set-up (the batch engine, its
#: present sets) is not timed.
WARMUP_OPS = 8


def build_service(records):
    """The served file: ``make_service`` defaults over the scan grid."""
    from repro import make_service

    service = make_service(
        "fx", fields=inputs.SCAN_FIELDS, devices=inputs.SCAN_DEVICES
    )
    service.file.insert_all(records)
    return service


class InProcessWorkload:
    """Set-up, timed phases and verification of ``scan`` or ``batch``."""

    def __init__(self, name: str, seed: int):
        from repro.query.partial_match import PartialMatchQuery

        self.name = name
        self.batched = name == "batch"
        self.records = inputs.records(
            seed, inputs.SCAN_RECORDS, len(inputs.SCAN_FIELDS)
        )
        setups = []
        for _ in range(SETUPS):
            self.service = None  # let the previous build go first
            started = time.perf_counter()
            self.service = build_service(self.records)
            setups.append(time.perf_counter() - started)
        self.setup_s = statistics.median(setups)
        file = self.service.file
        self.filesystem = file.filesystem
        self.oracle = RecordOracle(
            len(inputs.SCAN_FIELDS), file.multikey_hash.bucket_of
        )
        self.oracle.extend(self.records)
        # A batch's hits are probed before any of its misses are filled,
        # so the cache still holds up to a batch more than its capacity's
        # worth of earlier queries.
        window = self.service.cache.capacity + (
            inputs.BATCH_SIZE if self.batched else 0
        )
        unspecified = (
            inputs.BATCH_UNSPECIFIED if self.batched else inputs.SCAN_UNSPECIFIED
        )

        def stream():
            return inputs.QueryStream(
                seed, inputs.SCAN_FIELDS, unspecified, window
            )

        self.first_queries = list(
            itertools.islice(stream(), LOAD_FACTOR_QUERIES)
        )
        self._inputs = (
            inputs.batches(stream(), seed) if self.batched else stream()
        )
        self._query = PartialMatchQuery
        self._pending = deque()
        self._served: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------------
    def prefetch(self, seconds: float) -> None:
        """Draw the inputs of a *seconds*-long phase now, so the phase does
        not pay for generating them."""
        rate = PREFETCH_BATCHES_PER_S if self.batched else PREFETCH_QUERIES_PER_S
        count = int(seconds * rate) - len(self._pending)
        for item in itertools.islice(self._inputs, max(0, count)):
            self._pending.append(self._request(item))

    def _request(self, item):
        """``(query values, request)`` for one op: fresh query objects, so
        no pass reuses what another computed and cached on them."""
        make = self._query
        if self.batched:
            return item, [make(self.filesystem, values) for values in item]
        return [item], make(self.filesystem, item)

    def _next(self):
        if not self._pending:
            self.prefetch(1.0)
        return self._pending.popleft()

    def _call(self, item):
        __, request = item
        if self.batched:
            return self.service.execute_many(request)
        return [self.service.execute(request)]

    def _settle(self, item, results) -> int:
        """Keep each result's fingerprint for :meth:`verify`; returns 1 when
        the op failed."""
        values_list, __ = item
        failed = 0
        for values, result in zip(values_list, results):
            if result.ok:
                self._served.append(
                    (values, fingerprint(result.records), result.write_version)
                )
            else:
                failed = 1
        self.attempted += 1
        self.failed += failed
        return failed

    def phase(
        self, seconds: float, min_ops: int = 0, recorder=None, items=None
    ) -> Phase:
        """A closed-loop phase over *items*, by default the stream."""
        if items is None:
            self.prefetch(seconds)
            items = iter(self._next, None)
        return closed_loop(
            items, self._call, self._settle, seconds, min_ops, recorder
        )

    def warm_up(self) -> None:
        self.phase(0.0, WARMUP_OPS)

    # ------------------------------------------------------------------
    def verify(self) -> float:
        """Check every served result against the oracle, then execute the
        stream's first queries through ``QueryExecutor``, check their
        records and per-device counts, and return the load factor."""
        from repro.storage.executor import QueryExecutor

        # Nothing is written after the preload: every read must see it all.
        for values, served, version in self._served:
            self.oracle.check(values, served, version, self.oracle.version)
        self._served.clear()
        executor = QueryExecutor(self.service.file)
        method = self.service.file.method
        counts = []
        for values in self.first_queries:
            result = executor.execute(self._query(self.filesystem, values))
            self.oracle.check(
                values,
                fingerprint(result.records),
                self.oracle.version,
                self.oracle.version,
            )
            check_placement(method, values, result.buckets_per_device)
            counts.append(result.buckets_per_device)
        stats = self.service.cache.stats
        if stats.exact_hits or stats.subsumption_hits:
            raise OracleMismatch(
                f"{self.name}: the cache answered {stats.exact_hits} exact "
                f"and {stats.subsumption_hits} subsumed queries; this "
                "workload must miss on every query"
            )
        return load_factor(counts, self.filesystem.m)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def traced_run(self, seconds: float):
        """Five passes over one block of inputs: telemetry on, off, off, on,
        then traced.  The block is what the first pass completes in a fifth
        of *seconds*; the cache is emptied before every pass, so each pass
        does the same work from the same state."""
        from repro.obs import configure

        block = []

        def recorded():
            while True:
                request = self._next()
                block.append(request[0] if self.batched else request[0][0])
                yield request

        self.prefetch(seconds / 5.0)
        self.service.cache.invalidate()
        on = self.phase(seconds / 5.0, items=recorded())
        off = Phase()
        for enabled in (False, False, True):
            configure(enabled=enabled)
            self.service.cache.invalidate()
            requests = [self._request(item) for item in block]
            phase = self.phase(0.0, len(block), items=iter(requests))
            if enabled:
                on = on.add(phase)
            else:
                off = off.add(phase)
        recorder = SpanRecorder()
        inst = Instrumentation(recorder)
        instrument_service(inst, self.service)
        instrument_engine(inst)
        self.service.cache.invalidate()
        before = layer_counters(self.service)
        try:
            requests = [self._request(item) for item in block]
            traced = self.phase(0.0, len(block), recorder, iter(requests))
        finally:
            inst.remove()
        after = layer_counters(self.service)
        facts = {key: after[key] - before[key] for key in after}
        facts.update(
            spans=recorder.snapshot(),
            devices=self.filesystem.m,
            ops=traced.ops,
            queries=traced.ops * (inputs.BATCH_SIZE if self.batched else 1),
            writes=0,
        )
        return on, off, traced, facts

    def close(self) -> None:
        self.service.shutdown()
