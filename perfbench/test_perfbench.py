"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs, layers  # noqa: E402
from perfbench.measure import (  # noqa: E402
    MIN_OPS,
    TAIL_SAMPLES,
    percentile,
    samples_beyond,
    windowed_percentile,
)
from perfbench.oracle import (  # noqa: E402
    OracleMismatch,
    RecordOracle,
    check_placement,
    fingerprint,
    load_factor,
)
from perfbench.tracing import SpanRecorder, self_times  # noqa: E402


def bucket_of(record):
    """A stand-in multi-key hash: each attribute modulo 4."""
    return tuple(value % 4 for value in record)


@pytest.fixture
def oracle():
    oracle = RecordOracle(2, bucket_of)
    oracle.extend([(1, 2), (5, 3), (1, 6), (2, 2)])
    return oracle


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_oracle_accepts_the_filtered_multiset(oracle):
    served = fingerprint([(1, 6), (1, 2), (5, 3)])  # any order
    oracle.check((1, None), served, write_version=4, floor_version=4)


def test_oracle_rejects_an_injected_wrong_record(oracle):
    served = fingerprint([(1, 2), (5, 3), (1, 7)])
    with pytest.raises(OracleMismatch, match="served 3 records"):
        oracle.check((1, None), served, write_version=4, floor_version=4)


def test_oracle_rejects_a_missing_or_duplicated_record(oracle):
    with pytest.raises(OracleMismatch):
        oracle.check((1, None), fingerprint([(1, 2), (5, 3)]), 4, 4)
    with pytest.raises(OracleMismatch):
        oracle.check(
            (1, None), fingerprint([(1, 2), (5, 3), (1, 6), (1, 6)]), 4, 4
        )


def test_oracle_judges_a_result_at_its_own_version(oracle):
    # At version 2 only the first two records exist.
    oracle.check((1, None), fingerprint([(1, 2), (5, 3)]), 2, 2)


def test_oracle_rejects_a_stale_version(oracle):
    # Write 3 matched (1, *): a result at version 2 misses it.
    with pytest.raises(OracleMismatch, match="stale read"):
        oracle.check((1, None), fingerprint([(1, 2), (5, 3)]), 2, 3)


def test_oracle_accepts_an_older_version_no_later_write_changed(oracle):
    # Writes 3 and 4 land in (1, 2) and (2, 2): neither matches (None, 3).
    oracle.check((None, 3), fingerprint([(5, 3)]), 2, 4)


def test_oracle_rejects_a_version_from_the_future(oracle):
    with pytest.raises(OracleMismatch, match="only 4 writes"):
        oracle.check((1, None), fingerprint([]), 5, 5)


def test_placement_check_and_load_factor():
    from repro import make_method

    method = make_method("fx", fields=(4, 4), devices=4)
    query = (None, 1)
    counts = [0] * 4
    for value in range(4):
        counts[method.device_of((value, 1))] += 1
    check_placement(method, query, counts)
    with pytest.raises(OracleMismatch, match="placement gives"):
        check_placement(method, query, [4, 0, 0, 0])
    # 2 buckets on the busiest device against an optimum of ceil(4/4)=1,
    # and a perfectly spread query: mean (2 + 1) / 2.
    assert load_factor([[2, 1, 1, 0], [1, 1, 1, 1]], 4) == 1.5


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),  # overlaps b: together they cover 1..6
        ("b", 3.0, 6.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 8.0, 12.0, 0),  # runs past its parent: clipped to 8..10
        ("e", 8.5, 9.0, 4),
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 1.0, 3.5, 0.5]


def test_recorder_folds_nested_and_handed_off_spans():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.open("op")  # t=0
    recorder.open("submit")  # t=1
    recorder.hand_off("job")

    def pooled():
        with recorder.adopted("job"):
            recorder.open("work")  # t=2
            recorder.close()  # t=3

    worker = threading.Thread(target=pooled)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    recorder.close()  # submit ends, t=4
    recorder.close()  # op ends, t=5
    snapshot = recorder.snapshot()
    assert snapshot["self_seconds"] == {"op": 2.0, "submit": 2.0, "work": 1.0}
    assert snapshot["ops"] == {"op": 1}
    assert snapshot["op_seconds"] == {"op": 5.0}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_windowed_percentile_is_the_median_over_stretches():
    # Three stretches of 100; the middle one is slow throughout.
    samples = list(range(100)) + [1000 + v for v in range(100)] + list(range(100))
    assert windowed_percentile(samples, 99, window=100) == 98
    # A short remainder joins the last stretch; one stretch is plain p99.
    assert windowed_percentile(samples[:150], 99, window=100) == percentile(
        samples[:150], 99
    )


def test_p99_has_ten_samples_beyond_it_from_the_minimum_run_on():
    assert samples_beyond(MIN_OPS, 99) == TAIL_SAMPLES
    assert samples_beyond(MIN_OPS - 1, 99) < TAIL_SAMPLES
    assert samples_beyond(10_000, 99.9) == TAIL_SAMPLES
    assert samples_beyond(100, 50) == 50


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_query_stream_never_repeats_within_its_window():
    window = 64
    queries = list(
        itertools.islice(
            inputs.QueryStream(7, inputs.SCAN_FIELDS, (2, 3, 4), window), 3000
        )
    )
    for index, query in enumerate(queries):
        assert 2 <= query.count(None) <= 4
        for earlier in queries[max(0, index - window):index]:
            assert not inputs.subsumes(earlier, query)


def test_inputs_depend_only_on_the_seed():
    def draw(seed):
        stream = inputs.QueryStream(seed, inputs.SCAN_FIELDS, (2, 3), 80)
        return (
            inputs.records(seed, 5, 6),
            list(itertools.islice(inputs.batches(stream, seed), 3)),
            list(itertools.islice(inputs.wire_ops(seed, 1), 20)),
        )

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_batches_repeat_about_a_tenth_of_their_queries():
    stream = inputs.QueryStream(1, inputs.SCAN_FIELDS, (2, 3), 80)
    batches = list(itertools.islice(inputs.batches(stream, 1), 400))
    assert all(len(batch) == inputs.BATCH_SIZE for batch in batches)
    repeats = sum(len(batch) - len(set(batch)) for batch in batches)
    assert 0.07 < repeats / (400 * inputs.BATCH_SIZE) < 0.13


# ----------------------------------------------------------------------
# Instrumentation and metric definitions
# ----------------------------------------------------------------------
def test_instrumented_service_serves_the_same_results_and_restores():
    from repro import make_service

    from perfbench.instrument import Instrumentation, instrument_service

    service = make_service("fx", fields=(4, 4, 4), devices=4)
    service.file.insert_all(inputs.records(1, 200, 3))
    query = service.file.query({0: 1})
    plain = sorted(service.execute(query).records)
    service.cache.invalidate()
    recorder = SpanRecorder()
    inst = Instrumentation(recorder)
    instrument_service(inst, service)
    recorder.open("op")
    traced = sorted(service.submit(query).result().records)
    recorder.close()
    inst.remove()
    assert traced == plain
    calls = recorder.snapshot()["calls"]
    assert calls["core.inverse"] == 4  # one inverse mapping per device
    assert calls["service.handoff"] == calls["service.call"] == 1
    assert "execute" not in vars(service)
    assert "qualified_on_device" not in vars(service.file.method)


def test_benchmark_json_declares_every_printed_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(layers.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(layers.PER_LAYER)
    for entry in declared["end_to_end"]:
        assert (entry["unit"], entry["better"]) == layers.END_TO_END[entry["name"]]
    for entry in declared["per_layer"]:
        assert (entry["unit"], entry["better"]) == layers.PER_LAYER[entry["name"]][:2]
    assert [w["name"] for w in declared["workloads"]] == ["scan", "batch", "wire"]
