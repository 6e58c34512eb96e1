"""Tests for online migration between distribution methods."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fx import FXDistribution
from repro.distribution.gdm import GDMDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.distribution.random_alloc import RandomDistribution
from repro.errors import AnalysisError, StorageError
from repro.hashing.fields import FileSystem
from repro.storage.migration import Migration, moved_fraction
from repro.storage.parallel_file import PartitionedFile

FS = FileSystem.of(4, 8, m=8)


class TestMovedFraction:
    def test_identical_methods_move_nothing(self):
        assert moved_fraction(FXDistribution(FS), FXDistribution(FS)) == 0.0

    def test_filesystem_mismatch(self):
        other = FileSystem.of(4, 8, m=4)
        with pytest.raises(AnalysisError):
            moved_fraction(FXDistribution(FS), FXDistribution(other))

    @given(
        st.sampled_from(
            [
                ("fx-fx", lambda fs: FXDistribution(fs, policy="paper"),
                 lambda fs: FXDistribution(fs, policy="theorem9")),
                ("mod-gdm", ModuloDistribution,
                 lambda fs: GDMDistribution(fs, multipliers=(3, 5))),
            ]
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_separable_fast_path_matches_enumeration(self, case):
        __, build_a, build_b = case
        a, b = build_a(FS), build_b(FS)
        fast = moved_fraction(a, b)
        brute = sum(
            1 for bucket in FS.buckets()
            if a.device_of(bucket) != b.device_of(bucket)
        ) / FS.bucket_count
        assert fast == pytest.approx(brute)

    def test_cross_group_fallback_matches_enumeration(self):
        # FX (xor) vs Modulo (add): no shared group, so enumeration runs.
        a, b = FXDistribution(FS), ModuloDistribution(FS)
        brute = sum(
            1 for bucket in FS.buckets()
            if a.device_of(bucket) != b.device_of(bucket)
        ) / FS.bucket_count
        assert moved_fraction(a, b) == pytest.approx(brute)

    def test_non_separable_fallback(self):
        value = moved_fraction(FXDistribution(FS), RandomDistribution(FS, seed=1))
        assert 0.0 < value <= 1.0

    def test_enumeration_limit(self):
        big = FileSystem.of(2048, 1024, m=4)
        with pytest.raises(AnalysisError):
            moved_fraction(FXDistribution(big), RandomDistribution(big))


class TestMigrationApply:
    def _loaded(self, method):
        pf = PartitionedFile(method)
        pf.insert_all([(i, f"n{i % 5}") for i in range(150)])
        return pf

    def test_apply_switches_method_and_preserves_records(self):
        pf = self._loaded(ModuloDistribution(FS))
        target = FXDistribution(FS)
        report = Migration(pf, target).apply()
        assert pf.method is target
        assert pf.record_count == 150
        pf.check_invariants()
        assert report.buckets_moved + report.buckets_in_place > 0

    def test_search_still_works_after_migration(self):
        pf = self._loaded(ModuloDistribution(FS))
        before = sorted(map(str, pf.search({0: 7}).records))
        Migration(pf, FXDistribution(FS)).apply()
        after = sorted(map(str, pf.search({0: 7}).records))
        assert before == after

    def test_moves_count_as_device_deletes_and_inserts(self):
        pf = self._loaded(ModuloDistribution(FS))
        engine = pf.engine
        for device in pf.devices:
            device.stats.reset()
        target = FXDistribution(FS)
        report = Migration(pf, target).apply()
        assert report.records_moved > 0
        assert sum(d.stats.deletes for d in pf.devices) == report.records_moved
        assert sum(d.stats.inserts for d in pf.devices) == report.records_moved
        # The file's shared engine follows the method swap.
        assert pf.engine is not engine
        assert pf.engine.planner.method is target

    def test_noop_migration_moves_nothing(self):
        method = FXDistribution(FS)
        pf = self._loaded(method)
        report = Migration(pf, FXDistribution(FS)).apply()
        assert report.buckets_moved == 0
        assert report.records_moved == 0
        assert report.moved_record_fraction == 0.0

    def test_planned_fraction_consistent_with_applied(self):
        pf = PartitionedFile(ModuloDistribution(FS))
        # diverse attributes so every grid bucket ends up occupied
        pf.insert_all([(i, f"n{i}") for i in range(600)])
        migration = Migration(pf, FXDistribution(FS))
        planned = migration.planned_fraction()
        report = migration.apply()
        occupied = report.buckets_moved + report.buckets_in_place
        # applied fraction is over *occupied* buckets; with the full grid
        # occupied the two fractions coincide exactly
        assert occupied == FS.bucket_count
        assert report.buckets_moved / occupied == pytest.approx(planned)

    def test_filesystem_mismatch_rejected(self):
        pf = self._loaded(FXDistribution(FS))
        other = FileSystem.of(4, 8, m=4)
        with pytest.raises(StorageError):
            Migration(pf, FXDistribution(other))

    def test_corrupted_file_detected(self):
        pf = self._loaded(FXDistribution(FS))
        # plant a bucket on the wrong device
        rogue_bucket = (0, 0)
        wrong = (pf.method.device_of(rogue_bucket) + 1) % FS.m
        pf.devices[wrong].insert(rogue_bucket, ("rogue",))
        with pytest.raises(StorageError):
            Migration(pf, ModuloDistribution(FS)).apply()

    def test_moves_listed(self):
        pf = self._loaded(ModuloDistribution(FS))
        report = Migration(pf, FXDistribution(FS)).apply()
        for bucket, origin, destination in report.moves:
            assert origin != destination
            assert pf.method.device_of(bucket) == destination


class TestRedeclusterAnalysis:
    def test_worthwhile_upgrade(self):
        from repro.storage.migration import redecluster_analysis

        fs = FileSystem.of(4, 4, m=16)
        analysis = redecluster_analysis(
            ModuloDistribution(fs), FXDistribution(fs, transforms=["I", "U"])
        )
        assert analysis.worthwhile
        assert analysis.expected_largest_after < analysis.expected_largest_before
        assert 0.0 < analysis.moved_fraction <= 1.0
        assert 0.0 < analysis.break_even_queries < float("inf")

    def test_pointless_migration_never_breaks_even(self):
        from repro.storage.migration import redecluster_analysis

        fs = FileSystem.of(4, 4, m=16)
        good = FXDistribution(fs, transforms=["I", "U"])
        bad = ModuloDistribution(fs)
        analysis = redecluster_analysis(good, bad)
        assert not analysis.worthwhile
        assert analysis.break_even_queries == float("inf")

    def test_identity_migration_breaks_even_immediately_or_never(self):
        from repro.storage.migration import redecluster_analysis

        fs = FileSystem.of(4, 4, m=16)
        fx = FXDistribution(fs, transforms=["I", "U"])
        analysis = redecluster_analysis(fx, FXDistribution(fs, transforms=["I", "U"]))
        assert analysis.moved_fraction == 0.0
        # same expected response, zero cost: nothing to break even on
        assert analysis.break_even_queries == float("inf")


class TestZOrderMigrationMath:
    def test_zorder_fx_share_xor_group_fast_path(self):
        from repro.distribution.zorder import ZOrderDistribution

        a = ZOrderDistribution(FS)
        b = FXDistribution(FS)
        fast = moved_fraction(a, b)
        brute = sum(
            1 for bucket in FS.buckets()
            if a.device_of(bucket) != b.device_of(bucket)
        ) / FS.bucket_count
        assert fast == pytest.approx(brute)
