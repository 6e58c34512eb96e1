"""Seeded inputs of the benchmark workloads.

Every input is a pure function of the workload seed, so the same seed
gives the same records, query streams and wire op sequences.  A query is
a tuple of per-field hashed values with ``None`` for an unspecified
field, the shape :class:`repro.query.partial_match.PartialMatchQuery`
takes.  This module imports nothing from the program, so the generators
can be checked without it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from collections.abc import Iterator, Sequence

#: The paper's Table 7 file system: six fields of size 8 over M=32.
SCAN_FIELDS = (8, 8, 8, 8, 8, 8)
SCAN_DEVICES = 32
SCAN_RECORDS = 16384
#: ``scan`` leaves 2-4 fields unspecified (64-4096 qualified buckets).
SCAN_UNSPECIFIED = (2, 3, 4)
#: ``batch`` draws the lighter 2-3 unspecified mix.
BATCH_UNSPECIFIED = (2, 3)
BATCH_SIZE = 16
#: Share of batch slots that repeat an earlier query of the same batch.
BATCH_DUPLICATE_SHARE = 0.10

#: The durable ``wire`` tenant: 8x8 over M=8, so a one-field query
#: qualifies 8 buckets.
WIRE_FIELDS = (8, 8)
WIRE_DEVICES = 8
WIRE_RECORDS = 1024
WIRE_HOT_QUERIES = 4

#: Raw attribute values are drawn below this bound.
VALUE_RANGE = 1 << 16


def _rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, input stream)."""
    return random.Random(f"{seed}:{stream}")


def records(seed: int, count: int, n_fields: int) -> list[tuple[int, ...]]:
    """*count* records of *n_fields* integer attributes."""
    rng = _rng(seed, f"records{n_fields}")
    return [
        tuple(rng.randrange(VALUE_RANGE) for _ in range(n_fields))
        for _ in range(count)
    ]


def subsumes(general: Sequence, specific: Sequence) -> bool:
    """Does every bucket of *specific* qualify for *general*?"""
    return all(g is None or g == s for g, s in zip(general, specific))


def generalizations(query: Sequence) -> Iterator[tuple]:
    """Every query that subsumes *query*, *query* itself included."""
    return itertools.product(
        *((None,) if value is None else (value, None) for value in query)
    )


class QueryStream:
    """An endless seeded stream of partial match queries.

    No query repeats, or is answered by, any of the previous *window*
    queries (``subsumes(earlier, later)`` is false for each).  With the
    window set to the result cache's capacity, a stream whose queries all
    miss fills the cache only with entries that cannot answer the next
    query, so the cache never hits.

    The number of unspecified fields cycles through *unspecified*, and
    for each number the set of unspecified fields cycles through every
    possible set, in a seeded order that is reshuffled each cycle.  So
    every stretch of the stream has the same mix of query shapes, and
    runs of different seeds or lengths do comparable work; the seed
    picks the order and the specified values.
    """

    def __init__(
        self,
        seed: int,
        field_sizes: Sequence[int],
        unspecified: Sequence[int],
        window: int,
    ):
        self._rng = _rng(seed, f"queries{tuple(unspecified)}")
        self._sizes = tuple(field_sizes)
        self._window = window
        self._free_counts = itertools.cycle(unspecified)
        self._shapes = {
            count: itertools.chain.from_iterable(
                self._shuffled(
                    list(itertools.combinations(range(len(field_sizes)), count))
                )
            )
            for count in unspecified
        }
        self._recent: deque[tuple] = deque()
        self._in_window: Counter[tuple] = Counter()

    def _shuffled(self, shapes: list) -> Iterator[list]:
        while True:
            self._rng.shuffle(shapes)
            yield list(shapes)

    def __iter__(self) -> Iterator[tuple]:
        return self

    def __next__(self) -> tuple:
        rng = self._rng
        free = set(next(self._shapes[next(self._free_counts)]))
        while True:
            query = tuple(
                None if field in free else rng.randrange(size)
                for field, size in enumerate(self._sizes)
            )
            if any(g in self._in_window for g in generalizations(query)):
                continue
            self._recent.append(query)
            self._in_window[query] += 1
            if len(self._recent) > self._window:
                oldest = self._recent.popleft()
                self._in_window[oldest] -= 1
                if not self._in_window[oldest]:
                    del self._in_window[oldest]
            return query


def batches(stream: QueryStream, seed: int) -> Iterator[list[tuple]]:
    """Endless batches of :data:`BATCH_SIZE` queries from *stream*, about
    :data:`BATCH_DUPLICATE_SHARE` of them repeats of an earlier query in
    the same batch."""
    rng = _rng(seed, "batch-duplicates")
    while True:
        batch = [next(stream)]
        while len(batch) < BATCH_SIZE:
            if rng.random() < BATCH_DUPLICATE_SHARE:
                batch.append(rng.choice(batch))
            else:
                batch.append(next(stream))
        yield batch


def wire_query_sets(seed: int) -> tuple[list[tuple], list[tuple]]:
    """The ``wire`` queries: every one-field query of the 8x8 grid, split
    into a seeded hot set shared by all connections and the cold rest."""
    everything = [
        tuple(value if field == pinned else None for field in range(2))
        for pinned in range(2)
        for value in range(WIRE_FIELDS[pinned])
    ]
    hot = _rng(seed, "hot").sample(everything, WIRE_HOT_QUERIES)
    cold = [query for query in everything if query not in hot]
    return hot, cold


def wire_ops(seed: int, connection: int) -> Iterator[tuple[str, tuple]]:
    """One connection's endless op sequence: ``("insert", record)`` or
    ``("query", query)``.  Every five ops hold one insert, two hot reads
    and two cold reads in a seeded order, so the mix (20/40/40) and the
    file's growth are the same for every seed."""
    rng = _rng(seed, f"wire-ops{connection}")
    hot, cold = wire_query_sets(seed)
    block = ["insert", "hot", "hot", "cold", "cold"]
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "insert":
                yield "insert", tuple(
                    rng.randrange(VALUE_RANGE) for _ in WIRE_FIELDS
                )
            else:
                yield "query", rng.choice(hot if kind == "hot" else cold)
