"""Spans around the program's public entry points, for the traced run.

Each ``instrument_*`` function replaces entry points of one layer with
recording wrappers and registers the originals with an
:class:`Instrumentation`, whose :meth:`~Instrumentation.remove` puts them
back.  Instance attributes shadow methods on the one object the run
uses; module and class attributes cover objects the program builds
itself (the batch engine, the wire codec).  Span names:

==========================  ==============================================
``core.inverse``            ``method.qualified_on_device`` (its generator
                            is drained inside the span)
``storage.read_buckets``    ``Device.read_buckets``
``storage.records_in``      the device store's ``records_in``
``engine.plan``             ``ArrayBatchPlanner.plan``
``engine.fetch``            ``BatchEngine.fetch_buckets``
``service.call``            ``QueryService.execute``/``execute_many``/
                            ``insert``
``service.handoff``         ``submit``/``submit_many``/``submit_insert``
                            until ``result()`` returns
``durability.wal_append``   ``WriteAheadLog.append_insert``
``gateway.codec``           ``encode_frame``, ``FrameDecoder.feed``,
                            ``parse_query``, ``result_payload``,
                            ``result_from_payload``
``gateway.server``          server side: from ``FrameDecoder.feed`` to
                            the end of the response's ``encode_frame``
``wire.recv``               client side: ``recv_frame``, which blocks
                            until the response arrives
==========================  ==============================================
"""

from __future__ import annotations

import threading

from perfbench.tracing import SpanRecorder


def layer_counters(service) -> dict:
    """The program's own counters the per-layer metrics read: result
    cache stats, device read accounting and WAL size."""
    stats = service.cache.stats
    devices = service.file.devices
    return {
        "cache_lookups": stats.lookups,
        "cache_hits": stats.exact_hits + stats.subsumption_hits,
        "cache_write_invalidations": stats.write_invalidations,
        "bucket_reads": sum(d.stats.bucket_reads for d in devices),
        "records_returned": sum(d.stats.records_returned for d in devices),
        "wal_bytes": 0 if service.wal is None else service.wal.byte_size,
    }


class Instrumentation:
    """The entry points replaced so far, and how to restore them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, bool, object]] = []

    def patch(self, owner: object, name: str, replacement) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, name, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


class _TimedFuture:
    """A service future whose ``result()`` closes the hand-off span."""

    def __init__(self, future, close):
        self._future = future
        self._close = close

    def result(self, timeout=None):
        try:
            return self._future.result(timeout)
        finally:
            close, self._close = self._close, None
            if close is not None:
                close()

    def __getattr__(self, name):
        return getattr(self._future, name)


def instrument_service(inst: Instrumentation, service) -> None:
    """Wrap the service, its method, devices, stores and WAL."""
    rec = inst.recorder
    method = service.file.method
    qualified_on_device = method.qualified_on_device

    def inverse(device_id, query):
        rec.open("core.inverse")
        try:
            buckets = list(qualified_on_device(device_id, query))
        finally:
            rec.close()
        rec.count("core.buckets", len(buckets))
        return buckets

    inst.patch(method, "qualified_on_device", inverse)
    for device in service.file.devices:
        inst.patch(
            device,
            "read_buckets",
            rec.wrap("storage.read_buckets", device.read_buckets),
        )
        inst.patch(
            device.store,
            "records_in",
            rec.wrap("storage.records_in", device.store.records_in),
        )

    def call(original, note_results):
        def traced(first, *args, **kwargs):
            with rec.adopted(id(first)):
                rec.open("service.call")
                try:
                    result = original(first, *args, **kwargs)
                finally:
                    rec.close()
            if note_results:
                for served in result if isinstance(result, list) else [result]:
                    rec.count("service.results")
                    rec.count("service.queue_ms", served.queue_ms)
                    rec.count("service.coalesced", served.coalesced)
            return result

        return traced

    def handoff(original):
        def traced(first, *args, **kwargs):
            rec.open("service.handoff")
            rec.hand_off(id(first))
            try:
                future = original(first, *args, **kwargs)
            except BaseException:
                rec.close()
                raise
            return _TimedFuture(future, rec.close)

        return traced

    inst.patch(service, "execute", call(service.execute, True))
    inst.patch(service, "execute_many", call(service.execute_many, True))
    inst.patch(service, "insert", call(service.insert, False))
    for name in ("submit", "submit_many", "submit_insert"):
        inst.patch(service, name, handoff(getattr(service, name)))
    if service.wal is not None:
        inst.patch(
            service.wal,
            "append_insert",
            rec.wrap("durability.wal_append", service.wal.append_insert),
        )


def instrument_engine(inst: Instrumentation) -> None:
    """Wrap the batch planner and the engine's fetch (class-wide)."""
    from repro.engine.batch import BatchEngine
    from repro.engine.plan import ArrayBatchPlanner

    rec = inst.recorder
    plan = ArrayBatchPlanner.plan

    def traced_plan(self, queries):
        rec.open("engine.plan")
        try:
            result = plan(self, queries)
        finally:
            rec.close()
        rec.count("engine.queries", len(queries))
        rec.count("engine.naive_reads", result.naive_bucket_reads)
        rec.count("engine.unique_reads", result.unique_reads)
        return result

    inst.patch(ArrayBatchPlanner, "plan", traced_plan)
    inst.patch(
        BatchEngine,
        "fetch_buckets",
        rec.wrap("engine.fetch", BatchEngine.fetch_buckets),
    )


def instrument_codec(inst: Instrumentation, server: bool) -> None:
    """Wrap the wire codec of one side of the connection.

    On the server a request's root span opens when ``FrameDecoder.feed``
    starts and closes when its response's ``encode_frame`` returns; every
    connection has one request in flight, since clients wait for each
    reply.  On the client, ``recv_frame`` is timed as ``wire.recv``.
    """
    from repro.gateway import protocol

    rec = inst.recorder
    local = threading.local()
    encode_frame = protocol.encode_frame
    feed = protocol.FrameDecoder.feed

    def traced_encode(payload):
        rec.open("gateway.codec")
        try:
            frame = encode_frame(payload)
        finally:
            rec.close()
        rec.count("gateway.bytes", len(frame))
        if server and getattr(local, "root", False):
            local.root = False
            rec.close()
        return frame

    def traced_feed(self, data):
        if server and not rec.in_op():
            rec.open("gateway.server")
            local.root = True
        rec.open("gateway.codec")
        try:
            return feed(self, data)
        finally:
            rec.close()

    inst.patch(protocol, "encode_frame", traced_encode)
    inst.patch(protocol.FrameDecoder, "feed", traced_feed)
    for name in ("parse_query", "result_payload", "result_from_payload"):
        inst.patch(
            protocol, name, rec.wrap("gateway.codec", getattr(protocol, name))
        )
    if not server:
        inst.patch(
            protocol, "recv_frame", rec.wrap("wire.recv", protocol.recv_frame)
        )
