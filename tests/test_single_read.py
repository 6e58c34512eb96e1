"""The batch-of-one read path against the per-device generator oracle.

Single-query reads (``QueryExecutor.execute``, a result-cache miss, the
uncached service) run as one kernel call over every device plus one
present-set lookup per device
(:meth:`repro.engine.batch.BatchEngine.read_one`).  These tests pin that
path to the oracle it replaced — one ``qualified_on_device`` generator
solve and one ``read_buckets`` request per device — in records and their
order, per-device counts, ``to_dict()`` and ``DeviceStats`` deltas; then
cover the single-read bugfix (one ``records_in`` per present bucket, no
empty buckets cached), the shared collect helper and the per-device
mutation counter the present sets key on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_method
from repro.durability.checksummed_store import (
    ChecksummedBucketStore,
    PackedChecksummedStore,
)
from repro.engine.batch import BatchEngine
from repro.errors import CorruptPageError
from repro.query.partial_match import PartialMatchQuery
from repro.service.frontend import QueryService, ServiceConfig
from repro.storage.bucket_store import BucketStore
from repro.storage.cache import CachedExecutor
from repro.storage.costs import DiskCostModel
from repro.storage.executor import ExecutionResult, QueryExecutor
from repro.storage.paged_store import PagedBucketStore
from repro.storage.parallel_file import PartitionedFile
from repro.util.numbers import ceil_div

_STORES = {
    "plain": None,
    "paged": lambda: PagedBucketStore(page_capacity=2),
    "checksummed": ChecksummedBucketStore,
    "packed-checksummed": lambda: PackedChecksummedStore(page_capacity=2),
}


def generator_oracle(pf, query) -> ExecutionResult:
    """Per-device generator execution: M ``qualified_on_device`` solves,
    one ``read_buckets`` request each (the serial model, verbatim)."""
    result = ExecutionResult(query=query)
    for device in pf.devices:
        assigned = list(pf.method.qualified_on_device(device.device_id, query))
        result.records.extend(device.read_buckets(assigned))
        service = device.cost_model.service_time(len(assigned))
        result.buckets_per_device.append(len(assigned))
        result.total_service_ms += service
        result.response_time_ms = max(result.response_time_ms, service)
    result.largest_response = max(result.buckets_per_device, default=0)
    bound = ceil_div(query.qualified_count, pf.filesystem.m)
    result.strict_optimal = result.largest_response <= bound
    return result


def device_stats(pf) -> list[tuple]:
    return [
        (
            d.stats.inserts,
            d.stats.deletes,
            d.stats.bucket_reads,
            d.stats.records_returned,
            d.stats.busy_time_ms,
        )
        for d in pf.devices
    ]


@st.composite
def twin_files(draw):
    """Two identically loaded files (one per path) plus a query mix."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([2, 4, 8]))
    # Sizes above M make FX/GDM/Modulo transforms non-injective.
    sizes = tuple(draw(st.sampled_from([2, 4, 8, 16])) for __ in range(n))
    name = draw(st.sampled_from(["fx", "modulo", "gdm", "random", "spanning"]))
    store = draw(st.sampled_from(sorted(_STORES)))
    seed = draw(st.integers(0, 2**20))
    rng = random.Random(seed)
    records = [
        tuple(rng.randrange(s) for s in sizes)
        for __ in range(draw(st.integers(0, 80)))
    ]
    files = []
    for __ in range(2):
        method = make_method(name, fields=sizes, devices=m)
        pf = PartitionedFile(
            method,
            cost_model=DiskCostModel(),
            store_factory=_STORES[store],
        )
        pf.insert_all(records)
        files.append(pf)
    queries = [PartialMatchQuery.full_scan(files[0].filesystem)]
    if records:
        queries.append(
            PartialMatchQuery.exact(
                files[0].filesystem,
                files[0].multikey_hash.bucket_of(records[0]),
            )
        )
    for __ in range(draw(st.integers(1, 6))):
        spec = {i: rng.randrange(sizes[i]) for i in range(n) if rng.random() < 0.5}
        queries.append(files[0].query(spec))
    return files[0], files[1], queries


class TestAgainstGeneratorOracle:
    @given(twin_files())
    @settings(max_examples=60, deadline=None)
    def test_executor_matches_oracle(self, case):
        oracle_file, fast_file, queries = case
        executor = QueryExecutor(fast_file)
        for query in queries:
            want = generator_oracle(oracle_file, query)
            got = executor.execute(query)
            assert got.records == want.records
            assert got.buckets_per_device == want.buckets_per_device
            assert got.to_dict() == want.to_dict()
            assert device_stats(fast_file) == device_stats(oracle_file)

    @given(twin_files())
    @settings(max_examples=30, deadline=None)
    def test_cached_and_uncached_service_miss_match_oracle(self, case):
        oracle_file, fast_file, queries = case
        cached = CachedExecutor(fast_file, capacity=1)
        service = QueryService(fast_file, ServiceConfig(cache_capacity=None))
        for query in queries:
            for read in (cached.execute, lambda q: service.execute(q).records):
                cached.invalidate()
                want = generator_oracle(oracle_file, query)
                assert read(query) == want.records
                assert device_stats(fast_file) == device_stats(oracle_file)

    @given(twin_files())
    @settings(max_examples=20, deadline=None)
    def test_box_queries_match_their_generator(self, case):
        from repro.analysis.box import box_qualified_on_device
        from repro.distribution.base import SeparableMethod
        from repro.query.box import BoxQuery

        oracle_file, fast_file, queries = case
        if not isinstance(fast_file.method, SeparableMethod):
            return
        fs = fast_file.filesystem
        box = BoxQuery(fs, tuple(range(0, size, 2) for size in fs.field_sizes))
        got = QueryExecutor(fast_file).execute_box(box)
        records = []
        for device in oracle_file.devices:
            assigned = list(
                box_qualified_on_device(oracle_file.method, device.device_id, box)
            )
            assert got.buckets_per_device[device.device_id] == len(assigned)
            records.extend(device.read_buckets(assigned))
        assert got.records == records
        assert device_stats(fast_file) == device_stats(oracle_file)

    @pytest.mark.parametrize("store", ["checksummed", "packed-checksummed"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_dropped_page_still_raises(self, store, warm):
        method = make_method("fx", fields=(4, 4), devices=4)
        pf = PartitionedFile(method, store_factory=_STORES[store])
        bucket = pf.insert((1, 2))
        pf.insert((3, 3))
        executor = QueryExecutor(pf)
        query = pf.query({0: 1})
        if warm:
            executor.execute(query)  # present sets built before the damage
        device = next(d for d in pf.devices if d.store.has_bucket(bucket))
        device.store.corrupt_bucket(bucket, kind="drop")
        with pytest.raises(CorruptPageError):
            executor.execute(query)


# ----------------------------------------------------------------------
# One records_in per present bucket; no empty buckets cached
# ----------------------------------------------------------------------
class CountingStore(ChecksummedBucketStore):
    """A verifying store that counts its reads per bucket."""

    def __init__(self):
        super().__init__()
        self.reads: dict = {}

    def records_in(self, bucket):
        self.reads[tuple(bucket)] = self.reads.get(tuple(bucket), 0) + 1
        return super().records_in(bucket)


class CountingPlainStore(BucketStore):
    """A non-verifying store that counts its reads."""

    reads = 0

    def records_in(self, bucket):
        CountingPlainStore.reads += 1
        return super().records_in(bucket)


def _loaded(store_factory=None, records=200):
    method = make_method("fx", fields=(8, 8, 8), devices=8)
    pf = PartitionedFile(method, store_factory=store_factory)
    rng = random.Random(3)
    pf.insert_all(
        [tuple(rng.randrange(8) for __ in range(3)) for __ in range(records)]
    )
    return pf


class TestOneReadPerPresentBucket:
    @pytest.mark.parametrize("path", ["cache", "service", "executor"])
    def test_each_present_bucket_read_once_per_miss(self, path):
        pf = _loaded(CountingStore)
        query = pf.query({0: 3})
        present = {
            bucket
            for device in pf.devices
            for bucket in device.store.buckets()
            if query.matches(bucket)
        }
        assert present  # the test needs some non-empty qualified buckets
        cache = CachedExecutor(pf)
        service = QueryService(pf, ServiceConfig(cache_capacity=None))
        read = {
            "cache": cache.execute,
            "service": service.execute,
            "executor": QueryExecutor(pf).execute,
        }[path]
        for __ in range(2):
            cache.invalidate()
            for device in pf.devices:
                device.store.reads.clear()
            read(query)
            reads = {}
            for device in pf.devices:
                reads.update(device.store.reads)
            assert reads == {bucket: 1 for bucket in present}

    def test_cache_entries_hold_only_non_empty_buckets(self):
        pf = _loaded(CountingStore)
        cache = CachedExecutor(pf)
        query = pf.query({0: 3})
        lookup = cache.lookup(query)
        assert lookup.hit == "miss"
        assert lookup.buckets and all(lookup.buckets.values())
        assert len(lookup.buckets) < query.qualified_count

    def test_plain_store_reads_come_from_the_snapshot(self):
        pf = _loaded(CountingPlainStore)
        stored = sum(d.store.bucket_count for d in pf.devices)
        executor = QueryExecutor(pf)
        CountingPlainStore.reads = 0
        executor.execute(pf.query({0: 3}))
        # Building the present sets snapshots every stored bucket once ...
        assert CountingPlainStore.reads == stored
        executor.execute(pf.query({0: 5}))
        executor.execute(pf.query({}))
        # ... and reads without writes in between touch no store.
        assert CountingPlainStore.reads == stored


# ----------------------------------------------------------------------
# The collect helper
# ----------------------------------------------------------------------
class TestCollect:
    def test_miss_and_exact_hit_skip_the_bucket_recheck(self, monkeypatch):
        pf = _loaded()
        cache = CachedExecutor(pf)
        query = pf.query({0: 3})
        want = generator_oracle(_loaded(), query).records

        def refuse(self, bucket):
            raise AssertionError("matches() re-check on an exact entry")

        monkeypatch.setattr(PartialMatchQuery, "matches", refuse)
        assert cache.execute(query) == want  # miss
        assert cache.execute(query) == want  # exact hit
        assert cache.stats.exact_hits == 1

    def test_subsumption_hit_is_still_filtered(self):
        pf = _loaded()
        cache = CachedExecutor(pf)
        broad = PartialMatchQuery.full_scan(pf.filesystem)
        narrow = pf.query({0: 3})
        assert len(cache.execute(broad)) == pf.record_count
        got = cache.execute(narrow)
        assert cache.stats.subsumption_hits == 1
        assert sorted(got) == sorted(generator_oracle(_loaded(), narrow).records)
        assert len(got) < pf.record_count

    def test_coalesced_follower_filters_the_leader_buckets(self):
        from repro.storage.cache import CachedLookup

        pf = _loaded()
        broad = PartialMatchQuery.full_scan(pf.filesystem)
        narrow = pf.query({0: 3})
        __, buckets, version = BatchEngine(pf).read_one(broad)
        lookup = CachedLookup(broad, buckets, version, "")
        want = generator_oracle(_loaded(), narrow).records
        assert sorted(lookup.collect(narrow)) == sorted(want)
        assert len(lookup.collect()) == pf.record_count


# ----------------------------------------------------------------------
# Present sets key on the per-device mutation counter
# ----------------------------------------------------------------------
def _record_on(pf, device_id, rng):
    """A fresh record whose bucket lives on *device_id*."""
    while True:
        record = tuple(rng.randrange(8) for __ in range(3))
        if pf.method.device_of(pf.multikey_hash.bucket_of(record)) == device_id:
            return record


class TestMutationCounter:
    def test_insert_rebuilds_only_its_device_set(self):
        pf = _loaded()
        engine = BatchEngine(pf)
        query = PartialMatchQuery.full_scan(pf.filesystem)
        engine.read_one(query)
        before = dict(engine._present)
        pf.insert(_record_on(pf, 5, random.Random(1)))
        result = engine.read_one(query)[0]
        rebuilt = [d for d in before if engine._present[d] is not before[d]]
        assert rebuilt == [5]
        assert len(result.records) == pf.record_count

    def test_delete_and_repair_bump_the_counter(self):
        pf = _loaded()
        device = pf.devices[2]
        bucket = next(iter(device.store.buckets()))
        record = device.store.records_in(bucket)[0]
        start = device.mutations
        assert not device.delete(bucket, ("absent",))
        assert device.mutations == start
        assert device.delete(bucket, record)
        device.replace_bucket(bucket, [record])
        device.clear()
        assert device.mutations == start + 3

    def test_stats_reset_cannot_make_a_stale_set_current(self):
        pf = _loaded()
        executor = QueryExecutor(pf)
        query = PartialMatchQuery.full_scan(pf.filesystem)
        executor.execute(query)
        device = pf.devices[3]
        inserts, mutations = device.stats.inserts, device.mutations
        device.stats.reset()
        assert device.mutations == mutations
        rng = random.Random(2)
        for __ in range(inserts):  # stats.inserts climbs back to its old value
            pf.insert(_record_on(pf, 3, rng))
        assert device.stats.inserts == inserts
        result = executor.execute(query)
        assert sorted(result.records) == sorted(
            generator_oracle(pf, query).records
        )
        assert len(result.records) == pf.record_count

    def test_invalidate_drops_every_set(self):
        pf = _loaded()
        cache = CachedExecutor(pf)
        cache.execute(pf.query({0: 1}))
        engine = pf.engine
        assert len(engine._present) == pf.filesystem.m
        cache.invalidate()
        assert engine._present == {}
        engine.read_one(pf.query({0: 1}))
        assert len(engine._present) == pf.filesystem.m
        engine.invalidate()
        assert engine._present == {}

    def test_readers_of_one_file_share_its_engine(self):
        pf = _loaded()
        query = pf.query({0: 1})
        QueryExecutor(pf).execute(query)
        engine = pf.engine
        sets = dict(engine._present)
        CachedExecutor(pf).execute(query)
        QueryService(pf, ServiceConfig(cache_capacity=None)).execute(query)
        assert pf.engine is engine
        assert all(engine._present[d] is sets[d] for d in sets)

    def test_replaced_store_is_not_served_from_the_old_set(self):
        pf = _loaded()
        executor = QueryExecutor(pf)
        query = PartialMatchQuery.full_scan(pf.filesystem)
        executor.execute(query)
        lost = pf.devices[4].record_count
        pf.devices[4].store = BucketStore()  # wholesale swap, no mutation
        result = executor.execute(query)
        assert len(result.records) == pf.record_count
        assert lost > 0 and result.buckets_per_device[4] > 0


class TestConcurrentReads:
    def test_misses_racing_writes_see_their_snapshot(self):
        import sys
        import threading

        method = make_method("fx", fields=(8, 8), devices=4)
        pf = PartitionedFile(method)
        rng = random.Random(5)
        records = [(rng.randrange(8), i) for i in range(400)]
        cache = CachedExecutor(pf, capacity=2)
        queries = [pf.query({0: v}) for v in range(8)]
        failures = []
        done = threading.Event()

        def reader(seed):
            local = random.Random(seed)
            while not done.is_set():
                query = local.choice(queries)
                lookup = cache.lookup(query)
                got = sorted(lookup.collect())
                want = sorted(
                    r for r in records[: lookup.version]
                    if query.matches(pf.multikey_hash.bucket_of(r))
                )
                if got != want:
                    failures.append((query.describe(), lookup.version))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        try:
            for thread in threads:
                thread.start()
            for record in records:
                pf.insert(record)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# ----------------------------------------------------------------------
# Every reader takes the same per-device split
# ----------------------------------------------------------------------
def oracle_shares(method, query) -> list[list]:
    """Each device's qualified buckets from its generator, device order."""
    from repro.analysis.box import box_qualified_on_device
    from repro.query.box import BoxQuery

    devices = range(method.filesystem.m)
    if isinstance(query, BoxQuery):
        return [list(box_qualified_on_device(method, d, query)) for d in devices]
    return [list(method.qualified_on_device(d, query)) for d in devices]


def oracle_records(stores, shares) -> list:
    """The records of each share's buckets, read from *stores* (one per
    share) without touching device accounting."""
    return [
        record
        for store, share in zip(stores, shares)
        for bucket in share
        for record in store.records_in(bucket)
    ]


def multiset(records, hasher, query) -> list:
    """The trivial oracle: filter the stored record multiset."""
    return sorted(r for r in records if query.matches(hasher.bucket_of(r)))


@st.composite
def loaded_records(draw, names=("fx", "modulo", "gdm", "random", "spanning")):
    """A method shape, its records and a partial match query mix."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([2, 4, 8]))
    sizes = tuple(draw(st.sampled_from([2, 4, 8, 16])) for __ in range(n))
    name = draw(st.sampled_from(names))
    rng = random.Random(draw(st.integers(0, 2**20)))
    records = [
        tuple(rng.randrange(s) for s in sizes)
        for __ in range(draw(st.integers(0, 80)))
    ]
    specs = [{}] + [
        {i: rng.randrange(sizes[i]) for i in range(n) if rng.random() < 0.5}
        for __ in range(draw(st.integers(1, 5)))
    ]
    return name, sizes, m, records, specs, draw(st.integers(0, m - 1))


def _box(fs):
    from repro.query.box import BoxQuery

    return BoxQuery(fs, tuple(range(0, size, 2) for size in fs.field_sizes))


class TestEveryReaderTakesTheSplit:
    @given(loaded_records())
    @settings(max_examples=30, deadline=None)
    def test_degraded_executor_on_a_plain_file(self, case):
        from repro.distribution.base import SeparableMethod
        from repro.runtime.degraded import DegradedExecutor
        from repro.runtime.faults import FaultPlan

        name, sizes, m, records, specs, failed = case
        pf = PartitionedFile(make_method(name, fields=sizes, devices=m))
        pf.insert_all(records)
        oracle_file = PartitionedFile(make_method(name, fields=sizes, devices=m))
        oracle_file.insert_all(records)
        queries = [pf.query(spec) for spec in specs]
        if isinstance(pf.method, SeparableMethod):
            queries.append(_box(pf.filesystem))
        stores = [d.store for d in pf.devices]
        fault_free = DegradedExecutor(pf)
        degraded = DegradedExecutor(
            pf, FaultPlan(failed_devices=frozenset({failed}))
        )
        for query in queries:
            shares = oracle_shares(pf.method, query)
            run = (
                fault_free.execute
                if isinstance(query, PartialMatchQuery)
                else fault_free.execute_box
            )
            got = run(query)
            assert got.records == oracle_records(stores, shares)
            assert got.buckets_per_device == [len(s) for s in shares]
            assert sorted(got.records) == multiset(
                records, pf.multikey_hash, query
            )
            # The same read requests as the per-device generator oracle.
            for device, share in zip(oracle_file.devices, shares):
                device.read_buckets(share)
            assert device_stats(pf) == device_stats(oracle_file)

            run = (
                degraded.execute
                if isinstance(query, PartialMatchQuery)
                else degraded.execute_box
            )
            got = run(query)
            lost = list(shares)
            lost[failed] = []
            assert got.records == oracle_records(stores, lost)
            assert got.lost_buckets == len(shares[failed])
            assert sorted(got.records) == sorted(
                r
                for r in multiset(records, pf.multikey_hash, query)
                if pf.method.device_of(pf.multikey_hash.bucket_of(r)) != failed
            )
            for device, share in zip(oracle_file.devices, lost):
                if share:
                    device.read_buckets(share)
            assert device_stats(pf) == device_stats(oracle_file)

    @given(loaded_records())
    @settings(max_examples=30, deadline=None)
    def test_replicated_readers(self, case):
        from repro.distribution.base import SeparableMethod
        from repro.distribution.replicated import ChainedReplicaScheme
        from repro.runtime.degraded import DegradedExecutor
        from repro.runtime.faults import FaultPlan
        from repro.storage.replicated_file import ReplicatedFile

        name, sizes, m, records, specs, failed = case
        scheme = ChainedReplicaScheme(make_method(name, fields=sizes, devices=m))
        rf = ReplicatedFile(scheme)
        rf.insert_all(records)
        queries = [rf.query(spec) for spec in specs]
        boxes = [_box(rf.filesystem)]
        if not isinstance(scheme.base, SeparableMethod):
            boxes = []
        stores = [d.store for d in rf.devices]
        backup = (failed + scheme.offset) % m
        for failures in ((), (failed,)):
            for device in failures:
                rf.fail_device(device)
            runtime = DegradedExecutor(
                rf, FaultPlan(failed_devices=frozenset(failures))
            )
            for query in queries + boxes:
                shares = oracle_shares(scheme.base, query)
                served = [len(s) for s in shares]
                if failures:
                    served[backup] += served[failed]
                    served[failed] = 0
                want = oracle_records(stores, shares)
                filtered = multiset(records, rf.multikey_hash, query)
                got = (
                    runtime.execute(query)
                    if isinstance(query, PartialMatchQuery)
                    else runtime.execute_box(query)
                )
                assert got.records == want
                assert sorted(got.records) == filtered
                assert got.buckets_per_device == served
                assert got.lost_buckets == 0
                if isinstance(query, PartialMatchQuery):
                    got = rf.execute(query)
                    assert got.records == want
                    assert sorted(got.records) == filtered
                    assert got.buckets_per_device == served
                    assert rf.degraded_histogram(query) == served
                    assert got.served_by_backup == (
                        len(shares[failed]) if failures else 0
                    )

    @given(loaded_records(names=("random", "spanning")))
    @settings(max_examples=30, deadline=None)
    def test_non_separable_planner_and_read_one(self, case):
        from repro.core.inverse import bucket_strides
        from repro.engine.plan import ArrayBatchPlanner

        name, sizes, m, records, specs, __ = case
        pf = PartitionedFile(make_method(name, fields=sizes, devices=m))
        pf.insert_all(records)
        queries = [pf.query(spec) for spec in specs]
        stores = [d.store for d in pf.devices]
        strides = bucket_strides(pf.filesystem).tolist()
        plan = ArrayBatchPlanner(pf.method).plan(queries)
        report = BatchEngine(pf).execute(queries)
        for index, query in enumerate(queries):
            shares = oracle_shares(pf.method, query)
            slot = plan.slot_of[index]
            for device, share in enumerate(shares):
                flats = [
                    sum(v * s for v, s in zip(bucket, strides))
                    for bucket in share
                ]
                assert plan.slices[(slot, device)].tolist() == flats
            want = oracle_records(stores, shares)
            filtered = multiset(records, pf.multikey_hash, query)
            for got in (report.results[index], BatchEngine(pf).read_one(query)[0]):
                assert got.records == want
                assert sorted(got.records) == filtered
                assert got.buckets_per_device == [len(s) for s in shares]


class TestDynamicFileSearch:
    @given(st.integers(0, 2**20), st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_search_across_doublings(self, seed, m):
        from repro.hashing.fields import FileSystem
        from repro.storage.dynamic_file import DynamicPartitionedFile

        rng = random.Random(seed)
        dyn = DynamicPartitionedFile(FileSystem.of(2, 2, m=m), max_occupancy=2.0)
        records = []
        for __ in range(4):
            for __ in range(24):
                record = (rng.randrange(40), rng.randrange(40))
                dyn.insert(record)
                records.append(record)
            for __ in range(4):
                spec = {
                    i: rng.randrange(40) for i in range(2) if rng.random() < 0.6
                }
                query = dyn.query(spec)
                shares = oracle_shares(dyn.method, query)
                want = [
                    record
                    for record in oracle_records(
                        [d.store for d in dyn.devices], shares
                    )
                    if all(record[i] == v for i, v in spec.items())
                ]
                got = dyn.search(spec)
                assert got == want
                assert sorted(got) == sorted(
                    r for r in records
                    if all(r[i] == v for i, v in spec.items())
                )
        assert dyn.doublings
