"""The ``wire`` workload: a loopback gateway in its own process.

The gateway runs in a child process (``python3 -m perfbench.wire SEED``),
so the load generator never shares its interpreter lock.  It serves one
durable tenant (8x8, M=8): a ``WriteAheadLog`` attached through
``Gateway(tenant_factory=...)``, checksummed pages, and
:data:`~perfbench.inputs.WIRE_RECORDS` preloaded records.  Two
``GatewayClient`` connections, one thread each, run a closed loop, since
callers block on each reply.

On a machine with two or more CPUs the gateway process is pinned to the
last CPU and the load generator to the others while the workload runs,
so the two sides never queue for the same core.

The parent drives the child with one JSON line per command on the
child's stdin and reads one JSON line back: CPU and peak-RSS readings,
the telemetry switch, the traced run's instrumentation, and the post-run
``QueryExecutor`` pass all happen on request, between timed phases.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from perfbench import inputs
from perfbench.instrument import (
    Instrumentation,
    instrument_codec,
    instrument_service,
    layer_counters,
)
from perfbench.measure import Marker, Phase, peak_rss_mb, process_cpu
from perfbench.oracle import (
    OracleMismatch,
    RecordOracle,
    check_placement,
    fingerprint,
    load_factor,
)
from perfbench.tracing import SpanRecorder, merge

ROOT = Path(__file__).resolve().parent.parent
TENANT = "bench"
#: Set-ups per run; the median is ``setup_s``.
SETUPS = 7
CONNECTIONS = 2
#: Ops per second of requested phase time.  Every fifth op inserts, so the
#: file, and each read's answer, grows as a phase runs: a phase therefore
#: runs a fixed number of ops rather than for a fixed time, so that every
#: run (and every version of the program) does the same work from the
#: same states.  The rate is about what the gateway sustains on a 2-core
#: machine, so a phase takes roughly the time asked for.
OPS_PER_S = 600
WARMUP_S = 0.5
#: Seconds a request to the gateway process may take before the run
#: gives up on it.
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 10.0


def _cpu_split() -> tuple[set[int], set[int]] | None:
    """(load generator CPUs, gateway CPUs), or ``None`` with one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


def serve(seed: int, commands, replies) -> None:
    """The gateway process: build, preload, then answer each JSON command
    line read from *commands* with one JSON line on *replies*, until
    ``stop``."""

    def reply(status: str, value=None) -> None:
        replies.write(json.dumps([status, value]) + "\n")
        replies.flush()

    try:
        from repro.durability import WriteAheadLog
        from repro.gateway import Gateway, GatewayConfig, Tenant, TenantSpec
        from repro.obs import configure
        from repro.query.partial_match import PartialMatchQuery
        from repro.storage.executor import QueryExecutor

        wal = WriteAheadLog()
        spec = TenantSpec.of(
            TENANT,
            fields=inputs.WIRE_FIELDS,
            devices=inputs.WIRE_DEVICES,
            service={"checksummed": True},
        )
        gateway = Gateway(
            [spec], GatewayConfig(), tenant_factory=lambda s: Tenant(s, wal=wal)
        )
    except BaseException:
        reply("error", traceback.format_exc())
        raise
    try:
        host, port = gateway.start()
        service = gateway.tenants[TENANT].service
        for record in inputs.records(
            seed, inputs.WIRE_RECORDS, len(inputs.WIRE_FIELDS)
        ):
            service.insert(record)
        reply("ok", [host, port])
        inst = None
        for line in commands:
            command, argument = json.loads(line)
            if command == "stop":
                break
            if command == "cpu":
                value = [process_cpu(), peak_rss_mb()]
            elif command == "telemetry":
                configure(enabled=argument)
                value = None
            elif command == "trace":
                inst = Instrumentation(SpanRecorder())
                instrument_service(inst, service)
                instrument_codec(inst, server=True)
                baseline = layer_counters(service)
                value = None
            elif command == "collect":
                inst.remove()
                after = layer_counters(service)
                value = [
                    inst.recorder.snapshot(),
                    {key: after[key] - baseline[key] for key in after},
                ]
            elif command == "check":
                executor = QueryExecutor(service.file)
                value = [service.file.write_version, []]
                for values in argument:
                    result = executor.execute(
                        PartialMatchQuery(service.file.filesystem, tuple(values))
                    )
                    value[1].append(
                        [result.buckets_per_device, fingerprint(result.records)]
                    )
            else:
                raise ValueError(f"unknown command {command!r}")
            reply("ok", value)
    except BaseException:
        reply("error", traceback.format_exc())
        raise
    finally:
        gateway.drain(timeout_s=5.0)
    reply("ok")


class GatewayProcess:
    """The gateway child process and the pipes that drive it."""

    def __init__(self, seed: int):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.wire", str(seed)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.address = tuple(self._reply(START_TIMEOUT_S))
        except BaseException:
            self.stop()
            raise

    def request(self, command: str, argument=None):
        self.process.stdin.write(json.dumps([command, argument]) + "\n")
        self.process.stdin.flush()
        return self._reply(REPLY_TIMEOUT_S)

    def _reply(self, timeout_s: float):
        ready, __, __ = select.select([self.process.stdout], [], [], timeout_s)
        if not ready:
            raise TimeoutError(f"gateway process silent for {timeout_s}s")
        line = self.process.stdout.readline()
        if not line:
            raise EOFError("gateway process exited")
        status, value = json.loads(line)
        if status != "ok":
            raise RuntimeError(f"gateway process failed:\n{value}")
        return value

    def stop(self) -> None:
        """Drain and wait for the process; kill it if it does not end."""
        if self.process.poll() is None:
            try:
                self.request("stop")
            except (OSError, EOFError, TimeoutError, RuntimeError, ValueError):
                pass
        try:
            self.process.wait(15.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(5.0)
        self.process.stdin.close()
        self.process.stdout.close()


class WireWorkload:
    """Set-up, timed phases and verification of ``wire``."""

    def __init__(self, seed: int):
        from repro import make_method
        from repro.gateway import GatewayClient
        from repro.hashing.multikey import MultiKeyHash

        self.seed = seed
        self.method = make_method(
            "fx", fields=inputs.WIRE_FIELDS, devices=inputs.WIRE_DEVICES
        )
        self._affinity = os.sched_getaffinity(0)
        split = _cpu_split()
        if split is not None:
            os.sched_setaffinity(0, split[0])
        setups = []
        self.server = None
        for _ in range(SETUPS):
            if self.server is not None:
                self.server.stop()
            started = time.perf_counter()
            self.server = GatewayProcess(seed)
            setups.append(time.perf_counter() - started)
        self.setup_s = statistics.median(setups)
        host, port = self.server.address
        self.clients = [
            GatewayClient(
                host,
                port,
                tenant=TENANT,
                fields=inputs.WIRE_FIELDS,
                devices=inputs.WIRE_DEVICES,
                timeout_s=CLIENT_TIMEOUT_S,
                trace_seed=seed * CONNECTIONS + connection,
            )
            for connection in range(CONNECTIONS)
        ]
        self.oracle = RecordOracle(
            len(inputs.WIRE_FIELDS),
            MultiKeyHash.default(self.method.filesystem).bucket_of,
        )
        self.oracle.extend(
            inputs.records(seed, inputs.WIRE_RECORDS, len(inputs.WIRE_FIELDS))
        )
        self._ops = [
            inputs.wire_ops(seed, connection)
            for connection in range(CONNECTIONS)
        ]
        self._lock = threading.Lock()
        #: Newest acknowledged write version: the floor a later read must
        #: reach.
        self._acked = self.oracle.version
        self._writes: dict[int, tuple] = {}
        self._reads: list[tuple] = []
        self._kinds = {"insert": 0, "query": 0}
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------------
    def _loop(self, connection, count, phase, recorder, errors):
        from repro.errors import GatewayError, ProtocolError
        from repro.gateway import GatewayClient, GatewayRequestError

        clock = time.perf_counter
        ops = self._ops[connection]
        try:
            for _ in range(count):
                kind, item = next(ops)
                with self._lock:
                    floor = self._acked
                client = self.clients[connection]
                if recorder:
                    recorder.open("op")
                began = clock()
                try:
                    if kind == "insert":
                        output = client.insert(item)
                    else:
                        output = client.query(
                            {f: v for f, v in enumerate(item) if v is not None}
                        )
                    failure = None
                    lost = False
                except GatewayRequestError as error:
                    failure, lost = error.code, False
                except (GatewayError, ProtocolError) as error:
                    failure, lost = type(error).__name__, True
                ended = clock()
                if recorder:
                    recorder.close()
                if lost:  # the connection is unusable after a transport error
                    client.close()
                    self.clients[connection] = GatewayClient(
                        *self.server.address,
                        tenant=TENANT,
                        fields=inputs.WIRE_FIELDS,
                        devices=inputs.WIRE_DEVICES,
                        timeout_s=CLIENT_TIMEOUT_S,
                    )
                phase.latencies.append((ended, ended - began))
                phase.ops += 1
                with self._lock:
                    self._kinds[kind] += 1
                    if failure is None and kind == "insert":
                        self._writes[output[1]] = item
                        self._acked = max(self._acked, output[1])
                if failure is None and kind == "query" and not output.ok:
                    failure = output.status
                if failure is not None:
                    phase.failed += 1
                elif kind == "query":
                    self._reads.append(
                        (
                            item,
                            fingerprint(output.records),
                            output.write_version,
                            floor,
                        )
                    )
        except BaseException as error:  # re-raised by phase()
            errors.append(error)

    def phase(self, seconds: float, min_ops: int = 0, recorder=None) -> Phase:
        """``seconds * OPS_PER_S`` ops (at least *min_ops*), split over
        the connections."""
        total = max(min_ops, round(seconds * OPS_PER_S))
        self._kinds = {"insert": 0, "query": 0}
        folded = recorder.fold_seconds if recorder else 0.0
        parts = [Phase() for _ in range(CONNECTIONS)]
        errors: list[BaseException] = []
        threads = [
            threading.Thread(
                target=self._loop,
                args=(
                    c,
                    total // CONNECTIONS + (c < total % CONNECTIONS),
                    parts[c],
                    recorder,
                    errors,
                ),
                name=f"perfbench-connection-{c}",
            )
            for c in range(CONNECTIONS)
        ]
        marker = Marker(
            seconds, lambda: process_cpu() + self.server.request("cpu")[0]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(max(0.0, marker.next - time.perf_counter()))
                marker.tick(sum(p.ops for p in parts))
        marks = marker.finish(sum(p.ops for p in parts))
        if errors:
            raise errors[0]
        # Each connection's (completion time, latency) pairs, merged into
        # completion order.
        completed = sorted(pair for p in parts for pair in p.latencies)
        phase = Phase(
            ops=sum(p.ops for p in parts),
            failed=sum(p.failed for p in parts),
            seconds=marks[-1][0] - marks[0][0],
            cpu_seconds=marks[-1][2] - marks[0][2],
            latencies=[latency for __, latency in completed],
            marks=marks,
        )
        if recorder:
            phase.seconds -= recorder.fold_seconds - folded
        self.attempted += phase.ops
        self.failed += phase.failed
        return phase

    def warm_up(self) -> None:
        self.phase(WARMUP_S)

    def traced_run(self, seconds: float):
        """Telemetry on, off, off, on for a sixth of *seconds* each, then a
        traced third.  Inserts grow the file as the run goes; the on/off
        order cancels that steady drift."""
        on = off = Phase()
        for enabled in (True, False, False, True):
            self._set_telemetry(enabled)
            phase = self.phase(seconds / 6.0)
            if enabled:
                on = on.add(phase)
            else:
                off = off.add(phase)
        self._set_telemetry(True)
        recorder = SpanRecorder()
        inst = Instrumentation(recorder)
        instrument_codec(inst, server=False)
        self.server.request("trace")
        try:
            traced = self.phase(seconds / 3.0, recorder=recorder)
        finally:
            inst.remove()
            server_spans, facts = self.server.request("collect")
        facts.update(
            spans=merge(recorder.snapshot(), server_spans),
            devices=inputs.WIRE_DEVICES,
            ops=traced.ops,
            queries=self._kinds["query"],
            writes=self._kinds["insert"],
        )
        return on, off, traced, facts

    def _set_telemetry(self, enabled: bool) -> None:
        from repro.obs import configure

        configure(enabled=enabled)
        self.server.request("telemetry", enabled)

    # ------------------------------------------------------------------
    def verify(self) -> float:
        """Check every read against the oracle at its version, then run
        every wire query through ``QueryExecutor`` in the gateway process
        and check records and per-device counts; returns the load factor."""
        first = self.oracle.version + 1
        versions = sorted(self._writes)
        if versions != list(range(first, first + len(versions))):
            raise OracleMismatch(
                f"acknowledged write versions are not {first}.."
                f"{first + len(versions) - 1}: {versions[:8]}..."
            )
        self.oracle.extend([self._writes[v] for v in versions])
        self._writes.clear()
        for read in self._reads:
            self.oracle.check(*read)
        self._reads.clear()
        hot, cold = inputs.wire_query_sets(self.seed)
        queries = hot + cold
        version, results = self.server.request("check", queries)
        if version != self.oracle.version:
            raise OracleMismatch(
                f"gateway holds {version} writes, clients acknowledged "
                f"{self.oracle.version}"
            )
        for values, (counts, served) in zip(queries, results):
            self.oracle.check(values, tuple(served), version, version)
            check_placement(self.method, values, counts)
        return load_factor([counts for counts, __ in results], self.method.filesystem.m)

    def peak_rss_mb(self) -> float:
        return self.server.request("cpu")[1]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()
        os.sched_setaffinity(0, self._affinity)


if __name__ == "__main__":
    split = _cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[1])
    # Replies own this process's stdout; anything else printed goes to
    # stderr.
    protocol_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    serve(int(sys.argv[1]), sys.stdin, protocol_out)
