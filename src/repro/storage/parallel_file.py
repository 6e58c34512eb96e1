"""A multi-key hashed file partitioned over M simulated devices.

:class:`PartitionedFile` ties the substrate together: records are hashed to
bucket addresses by a :class:`~repro.hashing.multikey.MultiKeyHash`, bucket
addresses are mapped to devices by a
:class:`~repro.distribution.base.DistributionMethod`, and each device stores
its share locally.  Partial match search runs through the file's shared
:class:`~repro.engine.batch.BatchEngine` (:meth:`PartitionedFile.execute`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence

from repro.distribution.base import DistributionMethod
from repro.errors import ConfigurationError, StorageError
from repro.hashing.fields import Bucket
from repro.hashing.multikey import MultiKeyHash
from repro.query.partial_match import PartialMatchQuery
from repro.storage.costs import DeviceCostModel
from repro.storage.device import SimulatedDevice

__all__ = ["PartitionedFile", "WriteNotifier"]


class WriteNotifier:
    """Write-versioned listener registry shared by the file classes.

    Every mutation (one record inserted or deleted) advances a monotonically
    increasing *write version* and is announced, with its bucket, to every
    registered listener — the hook result caches use to invalidate exactly
    the entries a write could have changed (see
    :class:`~repro.storage.cache.CachedExecutor`).  The mutation lock makes
    a record-level mutation plus its version bump atomic with respect to
    readers that acquire the same lock (:meth:`read_locked`), which is what
    the serving layer's zero-stale-reads guarantee is built on.

    Ordering is the load-bearing part: :meth:`_publish` notifies listeners
    *before* the new version becomes visible in :attr:`write_version`, all
    under the mutation lock.  Any request that observes version ``v`` is
    therefore guaranteed that ``v``'s cache invalidations already ran — a
    cache hit can never serve data that predates a write the caller has
    already seen.  (Publishing first and notifying late reopens exactly
    that window; the concurrency soak in ``tests/test_service.py`` caught
    it.)  Listeners must not acquire locks that readers hold while waiting
    for the mutation lock; the result cache keeps that rule by never
    fetching under its own lock.
    """

    def __init__(self) -> None:
        self._mutation_lock = threading.RLock()
        self._listeners: list[Callable[[Bucket, int], None]] = []
        self._write_version = 0

    @property
    def write_version(self) -> int:
        """Count of completed record-level mutations (monotonic)."""
        return self._write_version

    def read_locked(self):
        """Context manager serialising a read against mutations."""
        return self._mutation_lock

    def subscribe(self, listener: Callable[[Bucket, int], None]) -> Callable[[], None]:
        """Register ``listener(bucket, version)``; returns an unsubscriber.

        Listeners run under the file's mutation lock, after the mutation is
        applied but before its version is published.
        """
        with self._mutation_lock:
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._mutation_lock:
                if listener in self._listeners:
                    self._listeners.remove(listener)

        return unsubscribe

    def _publish(self, bucket: Bucket) -> int:
        """Announce one applied mutation, then make its version visible.

        Call while holding the mutation lock, after the device-level write.
        Notify-then-publish ensures no reader can observe the new version
        while a cache still holds an entry the write invalidated.
        """
        version = self._write_version + 1
        for listener in list(self._listeners):
            listener(bucket, version)
        self._write_version = version
        return version


class PartitionedFile(WriteNotifier):
    """Records distributed over parallel devices for partial match retrieval.

    >>> from repro import FileSystem, FXDistribution
    >>> fs = FileSystem.of(4, 8, m=4)
    >>> pf = PartitionedFile(FXDistribution(fs))
    >>> bucket = pf.insert((17, "widget"))
    >>> pf.record_count
    1
    """

    def __init__(
        self,
        method: DistributionMethod,
        multikey_hash: MultiKeyHash | None = None,
        cost_model: DeviceCostModel | None = None,
        device_capacity: int | None = None,
        store_factory: "Callable[[], object] | None" = None,
    ):
        super().__init__()
        self.method = method
        self.filesystem = method.filesystem
        self.multikey_hash = multikey_hash or MultiKeyHash.default(self.filesystem)
        if self.multikey_hash.filesystem != self.filesystem:
            raise ConfigurationError(
                "multi-key hash and distribution method target different "
                "file systems"
            )
        self.devices = [
            SimulatedDevice(
                d,
                cost_model=cost_model,
                capacity=device_capacity,
                store=store_factory() if store_factory else None,
            )
            for d in range(self.filesystem.m)
        ]
        self._engine = None

    @property
    def engine(self):
        """The :class:`~repro.engine.batch.BatchEngine` every reader of the
        file shares (executor, result cache, service), so each device's
        present set is built once; rebuilt when :attr:`method` is swapped.
        """
        engine = self._engine
        if engine is None or engine.planner.method is not self.method:
            from repro.engine.batch import BatchEngine

            engine = self._engine = BatchEngine(self)
        return engine

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, record: Sequence[object]) -> Bucket:
        """Hash *record*, route its bucket to a device, store it there.

        The write advances :attr:`write_version` and notifies registered
        caches (see :class:`WriteNotifier`).  Returns the bucket address for
        callers that want to track placement.
        """
        return self.insert_versioned(record)[0]

    def insert_versioned(self, record: Sequence[object]) -> tuple[Bucket, int]:
        """:meth:`insert`, also returning the write version this mutation
        was assigned — its position in the global write order.  Reading
        :attr:`write_version` after :meth:`insert` returns is racy under
        concurrent writers; this is the atomic form.
        """
        bucket = self.multikey_hash.bucket_of(record)
        device = self.method.device_of(bucket)
        with self.read_locked():
            self.devices[device].insert(bucket, tuple(record))
            version = self._publish(bucket)
        return bucket, version

    def insert_all(self, records: Sequence[Sequence[object]]) -> None:
        from repro.obs import telemetry, trace_span

        with trace_span("storage.insert_all", records=len(records)):
            for record in records:
                self.insert(record)
        telemetry().metrics.add("storage.inserts", len(records))

    def delete(self, record: Sequence[object]) -> bool:
        """Remove one stored copy of *record*; ``True`` when found."""
        bucket = self.multikey_hash.bucket_of(record)
        device = self.method.device_of(bucket)
        with self.read_locked():
            removed = self.devices[device].delete(bucket, tuple(record))
            if removed:
                self._publish(bucket)
        return removed

    # ------------------------------------------------------------------
    # Query construction
    # ------------------------------------------------------------------
    def query(self, specified: Mapping[int, object]) -> PartialMatchQuery:
        """Build a partial match query from raw attribute values.

        The specified attributes are hashed with the file's own per-field
        hash functions, exactly as at insert time.
        """
        hashed = self.multikey_hash.partial_bucket(specified)
        return PartialMatchQuery.from_dict(self.filesystem, hashed)

    def execute(self, query):
        """Run one partial match (or box) query: the engine's batch of one.

        Returns an :class:`~repro.storage.executor.ExecutionResult`.
        """
        from repro.obs import telemetry

        result = self.engine.read_one(query)[0]
        metrics = telemetry().metrics
        metrics.add("query.executed")
        metrics.add("query.buckets_read", sum(result.buckets_per_device))
        metrics.observe("query.response_ms", result.response_time_ms)
        metrics.observe("query.largest_response", result.largest_response)
        return result

    def search(self, specified: Mapping[int, object]):
        """Convenience: build the query and execute it.

        Note that, as with any hashed partial match scheme, the devices
        return every record in the qualified buckets; exact attribute
        comparison against false hash matches is the caller's (cheap)
        postfilter.
        """
        return self.execute(self.query(specified))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return sum(device.record_count for device in self.devices)

    def device_loads(self) -> list[int]:
        """Record count per device (static storage balance)."""
        return [device.record_count for device in self.devices]

    def state_digest(self) -> str:
        """Canonical digest of the whole file: per-device store digests in
        device order.  Two files digest equal exactly when every device
        holds the same records in the same buckets — the crash-recovery
        byte-identity criterion."""
        import hashlib

        digest = hashlib.sha256()
        for device in self.devices:
            digest.update(device.state_digest().encode("ascii"))
        return digest.hexdigest()

    def check_invariants(self) -> None:
        """Verify placement: every stored bucket maps back to its device."""
        for device in self.devices:
            device.store.check_invariants()
            for bucket in device.store.buckets():
                expected = self.method.device_of(bucket)
                if expected != device.device_id:
                    raise StorageError(
                        f"bucket {bucket} stored on device "
                        f"{device.device_id}, method says {expected}"
                    )
