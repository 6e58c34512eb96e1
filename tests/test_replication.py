"""Tests for chained replica placement and failure masking."""

import pytest

from repro.core.fx import FXDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import ConfigurationError, StorageError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.storage.replicated_file import (
    DataUnavailableError,
    ReplicatedFile,
)

FS = FileSystem.of(4, 8, m=4)


def _scheme(offset=1):
    return ChainedReplicaScheme(FXDistribution(FS), offset=offset)


class TestChainedReplicaScheme:
    def test_backup_is_offset_primary(self):
        scheme = _scheme()
        for bucket in FS.buckets():
            primary, backup = scheme.replicas_of(bucket)
            assert backup == (primary + 1) % 4
            assert primary == scheme.primary_of(bucket)
            assert backup == scheme.backup_of(bucket)

    def test_replicas_always_distinct(self):
        scheme = _scheme(offset=3)
        assert all(
            len(set(scheme.replicas_of(b))) == 2 for b in FS.buckets()
        )

    def test_zero_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            _scheme(offset=0)

    def test_offset_multiple_of_m_rejected(self):
        with pytest.raises(ConfigurationError):
            _scheme(offset=8)

    def test_single_device_rejected(self):
        fs = FileSystem.of(4, m=1)
        with pytest.raises(ConfigurationError):
            ChainedReplicaScheme(ModuloDistribution(fs))

    def test_describe(self):
        assert "chained(+1)" in _scheme().describe()


class TestDualWrites:
    def test_each_record_stored_twice(self):
        rf = ReplicatedFile(_scheme())
        rf.insert_all([(i, f"r{i}") for i in range(40)])
        assert rf.record_count == 40
        physical = sum(device.record_count for device in rf.devices)
        assert physical == 80
        rf.check_invariants()

    def test_invariant_detects_misplacement(self):
        rf = ReplicatedFile(_scheme())
        bucket = (0, 0)
        wrong = next(
            d
            for d in range(4)
            if d not in rf.scheme.replicas_of(bucket)
        )
        rf.devices[wrong].insert(bucket, ("rogue",))
        with pytest.raises(StorageError):
            rf.check_invariants()


class TestHealthyReads:
    def test_search_equals_unreplicated_results(self):
        rf = ReplicatedFile(_scheme())
        records = [(i, f"name-{i % 6}") for i in range(100)]
        rf.insert_all(records)
        result = rf.search({1: "name-3"})
        expected = [r for r in records if r[1] == "name-3"]
        # hashing may co-locate other records in qualified buckets, but all
        # true matches must be present exactly once
        for record in expected:
            assert result.records.count(record) == 1

    def test_no_backup_reads_when_healthy(self):
        rf = ReplicatedFile(_scheme())
        rf.insert_all([(i, "x") for i in range(20)])
        result = rf.execute(PartialMatchQuery.full_scan(FS))
        assert result.served_by_backup == 0

    def test_no_duplicate_records_from_replicas(self):
        rf = ReplicatedFile(_scheme())
        rf.insert((5, "only-once"))
        result = rf.execute(PartialMatchQuery.full_scan(FS))
        assert result.records.count((5, "only-once")) == 1


class TestFailureMasking:
    def _loaded(self):
        rf = ReplicatedFile(_scheme())
        rf.insert_all([(i, f"n{i}") for i in range(120)])
        return rf

    def test_single_failure_masks(self):
        rf = self._loaded()
        rf.fail_device(2)
        result = rf.execute(PartialMatchQuery.full_scan(FS))
        assert result.served_by_backup > 0
        assert result.buckets_per_device[2] == 0
        assert sum(result.buckets_per_device) == FS.bucket_count
        # every logical record still retrievable exactly once
        assert len(result.records) == 120

    def test_failed_load_lands_on_neighbour(self):
        rf = self._loaded()
        query = PartialMatchQuery.full_scan(FS)
        healthy = rf.degraded_histogram(query)
        rf.fail_device(1)
        degraded = rf.degraded_histogram(query)
        assert degraded[1] == 0
        assert degraded[2] == healthy[2] + healthy[1]
        assert degraded[0] == healthy[0]

    def test_adjacent_pair_failure_loses_data(self):
        rf = self._loaded()
        rf.fail_device(1)
        rf.fail_device(2)  # backups of device 1's primaries
        with pytest.raises(DataUnavailableError):
            rf.execute(PartialMatchQuery.full_scan(FS))

    def test_non_adjacent_pair_failure_survives(self):
        rf = self._loaded()
        rf.fail_device(0)
        rf.fail_device(2)
        result = rf.execute(PartialMatchQuery.full_scan(FS))
        assert len(result.records) == 120

    def test_restore_clears_masking(self):
        rf = self._loaded()
        rf.fail_device(3)
        rf.restore_device(3)
        result = rf.execute(PartialMatchQuery.full_scan(FS))
        assert result.served_by_backup == 0
        assert rf.failed_devices == frozenset()

    def test_fail_unknown_device(self):
        rf = self._loaded()
        with pytest.raises(StorageError):
            rf.fail_device(9)

    def test_degraded_strict_optimality_lost(self):
        """Degraded mode roughly doubles one device's share, so a strict
        optimal query generally stops being strict optimal."""
        rf = self._loaded()
        query = PartialMatchQuery.full_scan(FS)
        assert rf.execute(query).strict_optimal
        rf.fail_device(0)
        assert not rf.execute(query).strict_optimal


class TestRecordOrder:
    """``ReplicatedFile.execute`` lists records in primary-device order —
    the plain executor's order, and the degraded runtime's."""

    FS = FileSystem.of(8, 4, 2, m=8)

    def _files(self):
        import random

        from repro.storage.parallel_file import PartitionedFile

        rng = random.Random(11)
        records = [
            tuple(rng.randrange(64) for __ in range(3)) for __ in range(400)
        ]
        rf = ReplicatedFile(ChainedReplicaScheme(FXDistribution(self.FS)))
        pf = PartitionedFile(FXDistribution(self.FS))
        rf.insert_all(records)
        pf.insert_all(records)
        return rf, pf

    def _queries(self, rf):
        import random

        rng = random.Random(3)
        return [
            rf.query(
                {i: rng.randrange(64) for i in range(3) if rng.random() < 0.5}
            )
            for __ in range(50)
        ]

    def test_fault_free_lists_equal_the_plain_executor(self):
        from repro.runtime.degraded import DegradedExecutor
        from repro.storage.executor import QueryExecutor

        rf, pf = self._files()
        plain = QueryExecutor(pf)
        runtime = DegradedExecutor(rf)
        for query in self._queries(rf):
            got = rf.execute(query).records
            assert got == plain.execute(query).records
            assert got == runtime.execute(query).records

    @pytest.mark.parametrize("failed", [0, 5, 7])
    def test_one_failed_device_matches_the_degraded_runtime(self, failed):
        from repro.runtime.degraded import DegradedExecutor
        from repro.runtime.faults import FaultPlan

        rf, __ = self._files()
        want = [rf.execute(query).records for query in self._queries(rf)]
        rf.fail_device(failed)
        runtime = DegradedExecutor(
            rf, FaultPlan(failed_devices=frozenset({failed}))
        )
        for query, fault_free in zip(self._queries(rf), want):
            got = rf.execute(query)
            degraded = runtime.execute(query)
            assert got.records == degraded.records == fault_free
            assert got.buckets_per_device == degraded.buckets_per_device
            assert got.buckets_per_device[failed] == 0
