"""Dynamic file growth: directory doubling with FX redistribution.

The paper assumes field sizes are powers of two because that is "common for
hash directory files for partitioned or dynamic hashing schemes" [FJNH79,
Lars78, Litw80] — directories that *double* as the file grows.  This module
supplies that missing dynamic: a partitioned file that starts with small
per-field directories and doubles the busiest field's size whenever average
bucket occupancy crosses a threshold, rebuilding the distribution method and
moving only the records whose device assignment changed.

Doubling a field is cheap at the hashing layer (one more bit of the field's
hash value) but reshuffles the bucket-to-device map; the class accounts the
records moved per doubling so experiments can weigh distribution quality
against reorganisation cost.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.fx import FXDistribution
from repro.core.inverse import qualified_by_device
from repro.distribution.base import DistributionMethod
from repro.errors import ConfigurationError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.storage.costs import DeviceCostModel
from repro.storage.device import SimulatedDevice
from repro.util.numbers import mix64

__all__ = ["DoublingEvent", "DynamicPartitionedFile"]

#: Builds a distribution method for the current file-system shape.
MethodFactory = Callable[[FileSystem], DistributionMethod]


@dataclass(frozen=True)
class DoublingEvent:
    """Record of one directory doubling."""

    field_index: int
    old_size: int
    new_size: int
    records_total: int
    records_moved: int

    @property
    def moved_fraction(self) -> float:
        if self.records_total == 0:
            return 0.0
        return self.records_moved / self.records_total


class DynamicPartitionedFile:
    """A partitioned file whose per-field directories double under load.

    Records are raw attribute tuples of non-negative integers; field ``i``'s
    hash uses the low ``log2 F_i`` bits of a seeded splitmix64, so when a
    directory doubles, a bucket ``b`` splits into ``b`` and ``b + F_old``
    (the classic extendible-hashing split) without rehashing from scratch.

    >>> fs = FileSystem.of(2, 2, m=4)
    >>> dyn = DynamicPartitionedFile(fs, max_occupancy=2.0)
    >>> for i in range(64):
    ...     dyn.insert((i, i * 3))
    >>> dyn.filesystem.bucket_count > 4   # directories grew
    True
    """

    def __init__(
        self,
        initial: FileSystem,
        method_factory: MethodFactory | None = None,
        max_occupancy: float = 4.0,
        max_field_size: int = 1 << 20,
        cost_model: DeviceCostModel | None = None,
        seed: int = 0,
    ):
        if max_occupancy <= 0:
            raise ConfigurationError("max_occupancy must be positive")
        self.filesystem = initial
        self.method_factory = method_factory or (
            lambda fs: FXDistribution(fs, policy="theorem9")
        )
        self.max_occupancy = max_occupancy
        self.max_field_size = max_field_size
        self.seed = seed
        self._cost_model = cost_model
        self.method = self.method_factory(initial)
        self.devices = [
            SimulatedDevice(d, cost_model=cost_model)
            for d in range(initial.m)
        ]
        #: Raw records kept for redistribution (the "directory" of the file).
        self._records: list[tuple[int, ...]] = []
        self.doublings: list[DoublingEvent] = []

    # ------------------------------------------------------------------
    # Hashing: low log2(F_i) bits of a seeded 64-bit mix, so growing a
    # field refines the existing partition instead of reshuffling it.
    # ------------------------------------------------------------------
    def bucket_of(self, record: Sequence[int]) -> tuple[int, ...]:
        if len(record) != self.filesystem.n_fields:
            raise ConfigurationError(
                f"record has {len(record)} attributes, file has "
                f"{self.filesystem.n_fields} fields"
            )
        bucket = []
        for i, (value, size) in enumerate(
            zip(record, self.filesystem.field_sizes)
        ):
            bucket.append(self._field_hash(i, value) % size)
        return tuple(bucket)

    def _field_hash(self, field_index: int, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigurationError(
                f"dynamic file hashes non-negative ints, got {value!r}"
            )
        # Full-width mix once; truncation to the current directory size
        # happens in bucket_of, which is what makes splits refinements.
        # splitmix64 rather than Fibonacci folding: directory growth
        # consumes hash bits from the low end, so the low bits must
        # avalanche too.
        return mix64(value ^ (self.seed * 7919 + field_index))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, record: Sequence[int]) -> None:
        record = tuple(record)
        bucket = self.bucket_of(record)
        self.devices[self.method.device_of(bucket)].insert(bucket, record)
        self._records.append(record)
        self._maybe_grow()

    def insert_all(self, records: Sequence[Sequence[int]]) -> None:
        for record in records:
            self.insert(record)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def occupancy(self) -> float:
        """Average records per bucket slot of the current directory."""
        return len(self._records) / self.filesystem.bucket_count

    def _maybe_grow(self) -> None:
        while self.occupancy() > self.max_occupancy:
            field_index = self._pick_field_to_double()
            if field_index is None:
                return
            self._double_field(field_index)

    def _pick_field_to_double(self) -> int | None:
        """Double the smallest growable directory (keeps sizes balanced,
        which maximises the transform toolkit's optimality reach)."""
        candidates = [
            i
            for i, size in enumerate(self.filesystem.field_sizes)
            if size * 2 <= self.max_field_size
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda i: (self.filesystem.field_sizes[i], i))

    def _double_field(self, field_index: int) -> None:
        old_fs = self.filesystem
        sizes = list(old_fs.field_sizes)
        old_size = sizes[field_index]
        sizes[field_index] = old_size * 2
        new_fs = FileSystem.of(*sizes, m=old_fs.m)
        new_method = self.method_factory(new_fs)

        # Re-place every record; count only those whose device changed.
        moved = 0
        new_devices = [
            SimulatedDevice(d, cost_model=self._cost_model)
            for d in range(new_fs.m)
        ]
        self.filesystem = new_fs
        for record in self._records:
            bucket = self.bucket_of(record)
            device = new_method.device_of(bucket)
            new_devices[device].insert(bucket, record)
        for old_device, new_device in zip(self.devices, new_devices):
            # moved = records that left this device (set difference by count
            # is enough because records are immutable tuples)
            old_records = set()
            for bucket in old_device.store.buckets():
                old_records.update(old_device.store.records_in(bucket))
            new_records = set()
            for bucket in new_device.store.buckets():
                new_records.update(new_device.store.records_in(bucket))
            moved += len(old_records - new_records)
        self.method = new_method
        self.devices = new_devices
        self.doublings.append(
            DoublingEvent(
                field_index=field_index,
                old_size=old_size,
                new_size=old_size * 2,
                records_total=len(self._records),
                records_moved=moved,
            )
        )

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def query(self, specified: Mapping[int, int]) -> PartialMatchQuery:
        hashed = {
            i: self._field_hash(i, value) % self.filesystem.field_sizes[i]
            for i, value in specified.items()
        }
        return PartialMatchQuery.from_dict(self.filesystem, hashed)

    def search(self, specified: Mapping[int, int]) -> list[tuple[int, ...]]:
        """All stored records whose hashed attributes match *specified*.

        Uses the per-device split of the current method, then exact-value
        postfiltering.
        """
        query = self.query(specified)
        results: list[tuple[int, ...]] = []
        shares = qualified_by_device(self.method, query)
        for device, assigned in zip(self.devices, shares):
            for record in device.read_buckets(assigned):
                if all(record[i] == v for i, v in specified.items()):
                    results.append(record)  # type: ignore[arg-type]
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return len(self._records)

    def device_loads(self) -> list[int]:
        return [device.record_count for device in self.devices]

    def total_moved(self) -> int:
        """Records moved across devices over all doublings."""
        return sum(event.records_moved for event in self.doublings)
