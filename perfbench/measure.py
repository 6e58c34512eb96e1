"""Timing, percentiles, CPU and memory readings, environment stamp."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10
#: Ops a timed phase needs so that ten samples lie beyond p99.
MIN_OPS = 1000


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the *p* percentile among *n* samples (the
    epsilon keeps ``99.9 * 10000 / 100`` from rounding up a rank)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *p*
    percent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the nearest-rank *p* percentile."""
    return n - _rank(n, p)


def windowed_percentile(samples, p: float, window: int = MIN_OPS) -> float:
    """Median over consecutive *window*-sample stretches of each one's
    *p* percentile; a remainder shorter than *window* joins the last
    stretch.  A burst of machine noise then moves one stretch's value,
    not the reported one.  With fewer than two stretches this is the
    plain percentile."""
    count = max(1, len(samples) // window)
    bounds = [k * window for k in range(count)] + [len(samples)]
    return statistics.median(
        percentile(samples[start:end], p)
        for start, end in zip(bounds, bounds[1:])
    )


def gauge_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine runs
    right now, printed beside the metrics so that a slow run can be told
    apart from a slow program."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1000.0


def steal_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the whole machine from
    ``/proc/stat``: time the hypervisor ran something else on the
    machine's CPUs.  ``None`` where the file does not exist."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def process_cpu() -> float:
    """User plus system CPU seconds of this process, all threads."""
    return time.process_time()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A timed phase is cut into this many stretches of its requested time;
#: end-to-end rates are medians over them, so a burst of machine noise
#: moves one stretch, not the reported value.
STRETCHES = 10


@dataclass
class Phase:
    """One timed stretch of a closed loop."""

    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Op latencies in seconds, in completion order.
    latencies: list[float] = field(default_factory=list)
    #: ``(perf_counter, ops completed, CPU seconds)`` at the start, at the
    #: end of each stretch, and at the end.
    marks: list[tuple[float, int, float]] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds

    @property
    def cpu_us_per_op(self) -> float:
        return self.cpu_seconds / self.ops * 1e6

    def add(self, other: "Phase") -> "Phase":
        """Totals of two phases (their stretches are not kept)."""
        return Phase(
            self.ops + other.ops,
            self.failed + other.failed,
            self.seconds + other.seconds,
            self.cpu_seconds + other.cpu_seconds,
            self.latencies + other.latencies,
        )

    def stretch_medians(self) -> tuple[float, float]:
        """Median over the stretches of ops per second and of CPU
        microseconds per op."""
        rates, costs = [], []
        for (t0, n0, c0), (t1, n1, c1) in zip(self.marks, self.marks[1:]):
            if n1 > n0:
                rates.append((n1 - n0) / (t1 - t0))
                costs.append((c1 - c0) / (n1 - n0) * 1e6)
        return statistics.median(rates), statistics.median(costs)


class Marker:
    """Takes a phase's marks: one per :data:`STRETCHES`-th of *seconds*.

    *cpu* reads the CPU seconds of every process the phase runs in.  A
    last stretch shorter than half the others joins the one before it.
    """

    def __init__(self, seconds: float, cpu):
        self._cpu = cpu
        self._step = seconds / STRETCHES
        now = time.perf_counter()
        self.marks = [(now, 0, cpu())]
        self.next = now + self._step if self._step > 0 else math.inf

    def tick(self, ops: int) -> None:
        now = time.perf_counter()
        if now >= self.next:
            self.marks.append((now, ops, self._cpu()))
            while self.next <= now:
                self.next += self._step

    def finish(self, ops: int) -> list[tuple[float, int, float]]:
        now = time.perf_counter()
        if len(self.marks) > 1 and now - self.marks[-1][0] < self._step / 2:
            self.marks.pop()
        self.marks.append((now, ops, self._cpu()))
        return self.marks


def closed_loop(inputs, call, settle, seconds, min_ops=0, recorder=None):
    """One caller sends the next op only after the previous one returned.

    ``call(item)`` is the timed op; ``settle(item, output)`` runs after
    the clock stops and returns 1 when the op failed.  The phase lasts
    *seconds*, and longer until *min_ops* ops completed.  With a
    *recorder*, each op runs under a root span ``op``; the time the
    recorder spends folding spans is taken off the phase.
    """
    phase = Phase()
    folded = recorder.fold_seconds if recorder else 0.0
    marker = Marker(seconds, process_cpu)
    start, __, cpu = marker.marks[0]
    deadline = start + seconds
    clock = time.perf_counter
    while phase.ops < min_ops or clock() < deadline:
        item = next(inputs)
        if recorder:
            recorder.open("op")
        began = clock()
        output = call(item)
        ended = clock()
        if recorder:
            recorder.close()
        phase.latencies.append(ended - began)
        phase.ops += 1
        phase.failed += settle(item, output)
        marker.tick(phase.ops)
    phase.marks = marker.finish(phase.ops)
    end, __, end_cpu = phase.marks[-1]
    phase.seconds = end - start
    phase.cpu_seconds = end_cpu - cpu
    if recorder:
        phase.seconds -= recorder.fold_seconds - folded
    return phase


def git_commit(root: Path) -> str:
    """``git rev-parse HEAD`` of *root*, or ``"unknown"`` outside a
    repository (the search stops at *root*)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, workload: str, seed: int, trace: int) -> dict:
    """The stamp every run prints before its metrics."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "telemetry": (
            "on; off in the paired telemetry-off passes" if trace else "on"
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(root),
    }
