"""Structured event log: every finished span and metrics sample, in order.

The :class:`EventLog` is an append-only bounded ring of records, read back
as plain dicts.  Each record is one JSON object; :meth:`EventLog.to_jsonl`
serialises the log to JSON Lines with sorted keys and compact separators,
so two runs that record the same telemetry (e.g. under a
:class:`~repro.obs.clock.ManualClock`) export byte-identical files.

JSONL schema (documented in ``docs/usage.md`` and enforced by
:func:`validate_record` / the ``obs export --validate`` CLI path):

``{"v": 1, "type": "span", "id": int, "trace": int, "parent": int | null,
"name": str, "start_ms": float, "end_ms": float, "duration_ms": float,
"attrs": {str: scalar}, "events": [{"name": str, "at_ms": float,
"attrs": {...}}]}`` — plus an optional ``"remote": true`` marker on spans
whose parent context arrived over the wire (``trace`` is the 64-bit trace
id shared by a whole cross-process request tree).

``{"v": 1, "type": "metrics", "counters": {...}, "gauges": {...},
"histograms": {name: {count, sum, min, max, p50, p95, p99}},
"perf": {name: {hits, misses, events, seconds}}}``

The leading ``"v"`` is the process-wide envelope version from
:mod:`repro.envelope` — the same marker the gateway wire protocol and the
``--json`` result serialisations carry.
"""

from __future__ import annotations

import json
import pickle
import threading
from collections import deque
from collections.abc import Iterable
from pathlib import Path

from repro.envelope import SCHEMA_VERSION
from repro.errors import ReproError

__all__ = [
    "EventLog",
    "jsonl_line",
    "validate_record",
    "validate_jsonl",
    "WELL_KNOWN_SPAN_EVENTS",
]

#: Default ring capacity: enough for every span of a sizeable replay while
#: bounding memory for long-lived processes.
DEFAULT_CAPACITY = 65_536

#: Records per packed block of the ring (see :class:`EventLog`).
PACK_BLOCK = 64

#: The span-event vocabulary the instrumented subsystems emit.  Names are
#: not enforced by the schema (spans may carry ad-hoc events), but dashboards
#: and tests key off these: the degraded runtime emits ``retry`` /
#: ``timeout`` / ``failover`` / ``data_loss`` / ``degraded``, and the
#: durability layer emits ``corruption.detected`` / ``page.repaired`` /
#: ``repair.failed`` / ``wal.torn_tail`` / ``device.rebuilt``.
WELL_KNOWN_SPAN_EVENTS = frozenset(
    {
        "retry",
        "timeout",
        "failover",
        "data_loss",
        "degraded",
        "corruption.detected",
        "page.repaired",
        "repair.failed",
        "wal.torn_tail",
        "device.rebuilt",
    }
)


class EventLog:
    """Bounded, thread-safe, append-only log of telemetry records.

    The ring keeps exactly the last *capacity* records, packed so that a
    full ring stays small: every :data:`PACK_BLOCK` appends are pickled
    into one bytes block (keys and names stored once per block), and a
    finished span is kept as its bare fields, its record dict built only
    when read.  Readers get fresh dicts equal to the appended records.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._block = min(PACK_BLOCK, capacity)
        #: Full blocks, oldest first; ``_skip`` leading entries of the
        #: oldest one are already evicted.
        self._packed: deque[bytes | list] = deque()
        self._skip = 0
        #: The newest entries, not yet a full block.
        self._staged: list = []
        #: Total appends ever, including records the ring has evicted.
        self.appended = 0

    def append(self, record: dict) -> None:
        self._add(record)

    def append_span(self, span, origin: float) -> None:
        """Log a finished span; its record is built from *origin* on read."""
        self._add(
            (
                span.name,
                span.span_id,
                span.parent_id,
                span.start,
                span.attrs,
                span.events,
                span.end,
                span.trace_id,
                span.remote,
                origin,
            )
        )

    def _add(self, entry) -> None:
        with self._lock:
            self._staged.append(entry)
            self.appended += 1
            if len(self._staged) == self._block:
                try:
                    block = pickle.dumps(self._staged, pickle.HIGHEST_PROTOCOL)
                except Exception:  # an unpicklable attribute: keep as is
                    block = self._staged
                self._packed.append(block)
                self._staged = []
            if self._length() > self.capacity:
                self._skip += 1
                if self._skip == self._block:
                    self._packed.popleft()
                    self._skip = 0

    def _length(self) -> int:
        return len(self._packed) * self._block - self._skip + len(self._staged)

    def records(self) -> list[dict]:
        """Snapshot of the retained records, oldest first."""
        return self.tail(self.capacity)

    def tail(self, count: int) -> list[dict]:
        """The most recent *count* records, oldest of them first."""
        if count <= 0:
            return []
        with self._lock:
            entries = list(self._staged)
            packed = list(self._packed)
            skip = self._skip
        chunks = [entries]
        held = len(entries)
        for index in range(len(packed) - 1, -1, -1):
            if held >= count:
                break
            block = packed[index]
            block = pickle.loads(block) if isinstance(block, bytes) else block
            chunks.append(block[skip:] if index == 0 else block)
            held += len(chunks[-1])
        ordered = [entry for chunk in reversed(chunks) for entry in chunk]
        return [_as_record(entry) for entry in ordered[-count:]]

    def clear(self) -> None:
        with self._lock:
            self._packed.clear()
            self._staged = []
            self._skip = 0
            self.appended = 0

    def __len__(self) -> int:
        with self._lock:
            return self._length()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self, extra: Iterable[dict] = ()) -> str:
        """The whole log (plus *extra* records) as canonical JSON Lines."""
        lines = [jsonl_line(record) for record in self.records()]
        lines.extend(jsonl_line(record) for record in extra)
        return "".join(lines)

    def write_jsonl(self, path: str | Path, extra: Iterable[dict] = ()) -> int:
        """Write the log to *path*; returns the number of lines written."""
        text = self.to_jsonl(extra)
        Path(path).write_text(text, encoding="utf-8")
        return text.count("\n")


def _as_record(entry) -> dict:
    """A logged entry as its record dict (spans are kept as bare fields)."""
    if isinstance(entry, dict):
        return entry
    from repro.obs.spans import Span

    *fields, origin = entry
    return Span(*fields).to_record(origin)


def jsonl_line(record: dict) -> str:
    """One canonical JSONL line: sorted keys, compact separators."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# Schema validation (used by ``obs export --validate`` and CI obs-smoke)
# ----------------------------------------------------------------------
_SPAN_REQUIRED = {
    "v": int,
    "type": str,
    "id": int,
    "trace": int,
    "name": str,
    "start_ms": (int, float),
    "end_ms": (int, float),
    "duration_ms": (int, float),
    "attrs": dict,
    "events": list,
}
_METRICS_REQUIRED = {
    "v": int,
    "type": str,
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
    "perf": dict,
}
_HISTOGRAM_KEYS = {"count", "sum", "min", "max", "p50", "p95", "p99"}
_PERF_KEYS = {"hits", "misses", "events", "seconds"}


def validate_record(record: dict) -> None:
    """Raise :class:`~repro.errors.ReproError` unless *record* fits the schema."""
    if not isinstance(record, dict):
        raise ReproError(f"telemetry record is not an object: {record!r}")
    if record.get("v") != SCHEMA_VERSION:
        raise ReproError(
            f"telemetry record envelope version {record.get('v')!r} is not "
            f"the supported v{SCHEMA_VERSION}"
        )
    kind = record.get("type")
    if kind == "span":
        _require(record, _SPAN_REQUIRED)
        if record["duration_ms"] < 0:
            raise ReproError(f"span {record['name']!r} has negative duration")
        parent = record.get("parent")
        if parent is not None and not isinstance(parent, int):
            raise ReproError(f"span parent must be int or null: {parent!r}")
        if "remote" in record and record["remote"] is not True:
            raise ReproError(
                f"span remote marker must be true when present: "
                f"{record['remote']!r}"
            )
        for event in record["events"]:
            if not isinstance(event, dict) or not isinstance(
                event.get("name"), str
            ) or not isinstance(event.get("at_ms"), (int, float)) or not isinstance(
                event.get("attrs"), dict
            ):
                raise ReproError(f"malformed span event: {event!r}")
    elif kind == "metrics":
        _require(record, _METRICS_REQUIRED)
        for name, summary in record["histograms"].items():
            if not isinstance(summary, dict) or set(summary) != _HISTOGRAM_KEYS:
                raise ReproError(f"malformed histogram summary {name!r}: {summary!r}")
        for name, perf in record["perf"].items():
            if not isinstance(perf, dict) or set(perf) != _PERF_KEYS:
                raise ReproError(f"malformed perf entry {name!r}: {perf!r}")
    else:
        raise ReproError(f"unknown telemetry record type: {kind!r}")


def _require(record: dict, spec: dict) -> None:
    for key, types in spec.items():
        if key not in record:
            raise ReproError(
                f"telemetry record missing {key!r}: {sorted(record)}"
            )
        if not isinstance(record[key], types) or isinstance(record[key], bool):
            raise ReproError(
                f"telemetry record field {key!r} has wrong type: "
                f"{record[key]!r}"
            )


def validate_jsonl(text: str) -> int:
    """Validate a whole JSONL document; returns the record count."""
    count = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"line {line_number} is not valid JSON: {error}"
            ) from None
        try:
            validate_record(record)
        except ReproError as error:
            raise ReproError(f"line {line_number}: {error}") from None
        count += 1
    return count
