"""The trivial oracle: filter the record multiset.

:class:`RecordOracle` holds every record the file received, in write
order; the multiset at write version ``v`` is the first ``v`` of them.
A served result is compared with that multiset by count and by an
order-free fingerprint (the sum of the records' hashes modulo 2**64), so
the load loops keep one fingerprint per result instead of its records.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

MASK64 = (1 << 64) - 1


class OracleMismatch(AssertionError):
    """A served result disagrees with the oracle."""


def fingerprint(records) -> tuple[int, int]:
    """``(count, sum of hashes mod 2**64)`` of a record multiset."""
    records = list(records)
    return len(records), sum(hash(tuple(r)) & MASK64 for r in records) & MASK64


class RecordOracle:
    """The record multiset by write version.

    *bucket_of* maps each record to its bucket address (the program's
    multi-key hash); the oracle filters on those addresses exactly as a
    partial match query defines its answer.
    """

    def __init__(self, n_fields: int, bucket_of):
        self._bucket_of = bucket_of
        self._buckets = np.empty((0, n_fields), dtype=np.int64)
        self._hashes = np.empty(0, dtype=np.uint64)
        self._memo: dict[tuple, tuple[int, int]] = {}

    @property
    def version(self) -> int:
        """Write version after the last record added."""
        return len(self._hashes)

    def extend(self, records: Sequence[Sequence[int]]) -> None:
        """Append *records* at the next write versions, in order."""
        if not records:
            return
        self._buckets = np.concatenate(
            [
                self._buckets,
                np.asarray(
                    [self._bucket_of(r) for r in records], dtype=np.int64
                ),
            ]
        )
        self._hashes = np.concatenate(
            [
                self._hashes,
                np.asarray(
                    [hash(tuple(r)) & MASK64 for r in records],
                    dtype=np.uint64,
                ),
            ]
        )
        self._memo.clear()

    def expected(self, query: Sequence, version: int) -> tuple[int, int]:
        """Fingerprint of the records of *query* at write *version*."""
        key = (tuple(query), version)
        found = self._memo.get(key)
        if found is None:
            mask = np.ones(version, dtype=bool)
            for field, value in enumerate(query):
                if value is not None:
                    mask &= self._buckets[:version, field] == value
            found = (
                int(mask.sum()),
                int(self._hashes[:version][mask].sum(dtype=np.uint64)),
            )
            self._memo[key] = found
        return found

    def check(
        self,
        query: Sequence,
        served: tuple[int, int],
        write_version: int,
        floor_version: int,
    ) -> None:
        """Raise :class:`OracleMismatch` unless *served* (a fingerprint)
        is the answer to *query* at *write_version*, and no write between
        that version and *floor_version* (the newest write acknowledged
        before the query was sent) changed the answer.

        A cached result may carry an older version than the floor: it is
        still current when none of the writes since then matched."""
        if write_version > self.version:
            raise OracleMismatch(
                f"{query} read version {write_version}, but only "
                f"{self.version} writes exist"
            )
        expected = self.expected(query, write_version)
        if served != expected:
            raise OracleMismatch(
                f"{query} at version {write_version}: served "
                f"{served[0]} records (fingerprint {served[1]:#x}), oracle "
                f"has {expected[0]} (fingerprint {expected[1]:#x})"
            )
        if floor_version > write_version and (
            self.expected(query, floor_version) != expected
        ):
            raise OracleMismatch(
                f"stale read of {query}: version {write_version} misses "
                f"writes up to acknowledged version {floor_version}"
            )


def qualified_buckets(field_sizes: Sequence[int], query: Sequence) -> np.ndarray:
    """R(q) as an ``(|R(q)|, n)`` array."""
    axes = [
        np.arange(size) if value is None else np.array([value])
        for size, value in zip(field_sizes, query)
    ]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([axis.ravel() for axis in grid], axis=1)


def check_placement(method, query: Sequence, buckets_per_device) -> None:
    """Raise :class:`OracleMismatch` unless *buckets_per_device* counts the
    qualified buckets the method places on each device."""
    fs = method.filesystem
    devices = method.devices_of_array(qualified_buckets(fs.field_sizes, query))
    expected = np.bincount(devices, minlength=fs.m).tolist()
    if list(buckets_per_device) != expected:
        raise OracleMismatch(
            f"{query}: executor read {list(buckets_per_device)} buckets per "
            f"device, placement gives {expected}"
        )


def load_factor(buckets_per_device_list, m: int) -> float:
    """Mean over queries of the largest per-device bucket count divided by
    the optimum ceil(|R(q)|/M)."""
    ratios = [
        max(counts) / -(-sum(counts) // m) for counts in buckets_per_device_list
    ]
    return sum(ratios) / len(ratios)
