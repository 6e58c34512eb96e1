"""In-memory spans for the traced run, and the self-time arithmetic.

A span is ``[name, start, end, parent]``: *parent* is the index of the
span that caused it within the same op's list, or ``None`` for the op's
root.  Spans of one op share the op's list (its identifier); the list is
folded into per-name totals as soon as the root closes, so memory stays
bounded however long the run.

Spans nest per thread.  Work handed to another thread (the service's
futures pool) finds its parent through :meth:`SpanRecorder.hand_off` and
:meth:`SpanRecorder.adopted`, keyed by an object both sides see.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from collections.abc import Sequence
from contextlib import contextmanager


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once, so a parent whose children run in parallel on
    other threads never gets a negative self time.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, start)
            child_end = min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        result.append(end - start - covered)
    return result


class SpanRecorder:
    """Records spans per op and folds each finished op into totals.

    ``self_seconds[name]`` sums the self time of every span of that name,
    ``calls[name]`` counts them, ``counts[key]`` sums what wrappers
    :meth:`count`; ``ops[name]`` and ``op_seconds[name]`` count and time
    the root spans.  ``fold_seconds`` is the time spent folding, which the
    traced run subtracts from its wall time.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_ops: dict[int, list[list]] = {}
        self._next_op = 0
        self._handoffs: dict[object, tuple[int, int]] = {}
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.ops: Counter[str] = Counter()
        self.op_seconds: defaultdict[str, float] = defaultdict(float)
        self.fold_seconds = 0.0

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_op(self) -> bool:
        """Is a span open on the calling thread?"""
        return bool(self._stack())

    def open(self, name: str) -> None:
        """Open a span on this thread; with none open, it roots a new op."""
        stack = self._stack()
        start = self._clock()
        with self._lock:
            if stack:
                op, parent = stack[-1]
                spans = self._open_ops[op]
            else:
                op, parent = self._next_op, None
                self._next_op += 1
                spans = self._open_ops[op] = []
            spans.append([name, start, None, parent])
            index = len(spans) - 1
        stack.append((op, index))

    def close(self) -> None:
        """Close this thread's innermost span; closing a root folds its op."""
        end = self._clock()
        op, index = self._stack().pop()
        with self._lock:
            spans = self._open_ops.get(op)
            if spans is None:  # its op was already folded
                return
            spans[index][2] = end
            if spans[index][3] is not None:
                return
            del self._open_ops[op]
        self._fold(spans)

    def _fold(self, spans: list[list]) -> None:
        started = time.perf_counter()
        root = spans[0]
        for span in spans:
            if span[2] is None:  # a child left open is cut at its root's end
                span[2] = root[2]
        totals = self_times(spans)
        with self._lock:
            for span, seconds in zip(spans, totals):
                self.self_seconds[span[0]] += seconds
                self.calls[span[0]] += 1
            self.ops[root[0]] += 1
            self.op_seconds[root[0]] += root[2] - root[1]
            self.fold_seconds += time.perf_counter() - started

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, function):
        """*function* with every call recorded as a span named *name*."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close()

        return traced

    def hand_off(self, key: object) -> None:
        """Make this thread's innermost span the parent of the work that
        :meth:`adopted` picks up under *key* on another thread."""
        context = self._stack()[-1]
        with self._lock:
            self._handoffs[key] = context

    @contextmanager
    def adopted(self, key: object):
        """Parent the spans opened inside under the span handed off with
        *key*; without a hand-off, spans nest as usual."""
        with self._lock:
            context = self._handoffs.pop(key, None)
        if context is None:
            yield
            return
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()

    def snapshot(self) -> dict:
        """The folded totals as plain dicts (picklable)."""
        with self._lock:
            return {
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "ops": dict(self.ops),
                "op_seconds": dict(self.op_seconds),
            }


def merge(*snapshots: dict) -> dict:
    """Sum :meth:`SpanRecorder.snapshot` results key by key."""
    merged: dict[str, defaultdict] = {}
    for snapshot in snapshots:
        for field, values in snapshot.items():
            target = merged.setdefault(field, defaultdict(float))
            for key, value in values.items():
                target[key] += value
    return merged
