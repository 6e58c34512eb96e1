"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times the program as shipped (telemetry on) and prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a run
that first times paired telemetry-on and telemetry-off phases, then a
phase with every layer's public entry points wrapped in spans.  Every
result is checked against the record-multiset oracle; any mismatch
exits with status 1.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import layers  # noqa: E402
from perfbench.measure import (  # noqa: E402
    MIN_OPS,
    environment,
    gauge_ms,
    samples_beyond,
    steal_ticks,
    windowed_percentile,
)

WORKLOADS = ("scan", "batch", "wire")


def open_workload(name: str, seed: int):
    if name == "wire":
        from perfbench.wire import WireWorkload

        return WireWorkload(seed)
    from perfbench.inproc import InProcessWorkload

    return InProcessWorkload(name, seed)


def end_to_end(workload, seconds: float) -> tuple[dict, list[str]]:
    """An untraced run of the shipped configuration."""
    gauge_before = gauge_ms()
    workload.warm_up()
    steal_before = steal_ticks()
    phase = workload.phase(seconds, MIN_OPS)
    steal_after = steal_ticks()
    gauge_after = gauge_ms()
    # Before the oracle pass, whose bookkeeping is the benchmark's own.
    peak_rss = workload.peak_rss_mb()
    factor = workload.verify()
    latencies_ms = [s * 1000.0 for s in phase.latencies]
    ops_per_s, cpu_us_per_op = phase.stretch_medians()
    values = {
        "ops_per_s": ops_per_s,
        "p50_ms": windowed_percentile(latencies_ms, 50),
        "p99_ms": windowed_percentile(latencies_ms, 99),
        "cpu_us_per_op": cpu_us_per_op,
        "success_rate": 1.0 - phase.failed / phase.ops,
        "setup_s": workload.setup_s,
        "peak_rss_mb": peak_rss,
        "load_factor": factor,
    }
    notes = [
        f"samples {phase.ops} ops in {phase.seconds:.1f} s; ops_per_s and "
        f"cpu_us_per_op are medians over {len(phase.marks) - 1} stretches "
        f"(totals {phase.ops_per_s:.2f} 1/s, {phase.cpu_us_per_op:.1f} us)",
        f"p50 and p99 are medians over {max(1, phase.ops // MIN_OPS)} stretches "
        f"of at least {MIN_OPS} ops, each with at least "
        f"{samples_beyond(MIN_OPS, 99)} samples beyond its p99",
        f"machine gauge: a fixed loop took {gauge_before:.1f} ms before "
        f"and {gauge_after:.1f} ms after the timed phase",
        f"machine steal: {steal_share(steal_before, steal_after)} of all "
        "CPU time in the timed phase went to other guests",
        f"error_rate {phase.failed / phase.ops:.6f} "
        f"({phase.failed} of {phase.ops} ops shed, timed out or failed)",
    ]
    return values, notes


def steal_share(before, after) -> str:
    if before is None or after is None or after[1] == before[1]:
        return "unknown"
    return f"{(after[0] - before[0]) / (after[1] - before[1]):.1%}"


def per_layer(workload, seconds: float) -> tuple[dict, list[str]]:
    """Paired telemetry on/off passes, then a traced pass."""
    workload.warm_up()
    on, off, traced, facts = workload.traced_run(seconds)
    workload.verify()
    values = layers.per_layer_metrics(
        layers.TracedRun(
            untraced_ops_per_s=on.ops_per_s,
            traced_ops_per_s=traced.ops_per_s,
            cpu_us_per_op_on=on.cpu_us_per_op,
            cpu_us_per_op_off=off.cpu_us_per_op,
            **facts,
        )
    )
    notes = [
        f"telemetry on {on.ops} ops, off {off.ops} ops, traced {traced.ops} ops",
        f"cpu_us_per_op telemetry on {on.cpu_us_per_op:.1f}, "
        f"off {off.cpu_us_per_op:.1f}",
    ]
    notes += [f"{name}: {why}" for name, why in layers.CAVEATS.items()]
    return values, notes


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns its result object."""
    from perfbench.oracle import OracleMismatch

    print("env " + json.dumps(environment(ROOT, name, seed, trace)), flush=True)
    workload = open_workload(name, seed)
    try:
        measure = per_layer if trace else end_to_end
        values, notes = measure(workload, seconds)
        correct = True
    except OracleMismatch as mismatch:
        print(f"ORACLE MISMATCH: {mismatch}", file=sys.stderr)
        values, notes, correct = {}, [], False
    finally:
        workload.close()
    units = layers.PER_LAYER if trace else layers.END_TO_END
    metrics = {
        metric: {"value": values[metric], "unit": units[metric][0]}
        for metric in units
        if metric in values
    }
    for metric, entry in metrics.items():
        print(f"{name:5} {metric:38} {entry['value']:14.6f} {entry['unit']}")
    for note in notes:
        print(f"{name:5} note: {note}")
    return {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"refusing to measure {repro.__file__}: not the program in "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
