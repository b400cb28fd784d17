"""Tests of the benchmark's own arithmetic and of its catalogue bookkeeping."""

import json
import math
from pathlib import Path

import pytest

import bench_stats
import bench_workloads
import run

HERE = Path(__file__).resolve().parent


def test_p90_keeps_ten_samples_beyond_it():
    assert bench_stats.beyond(100, 90.0) == 10
    assert bench_stats.percentile(list(range(1, 101)), 90.0) == 90
    assert bench_stats.beyond(99, 90.0) == 9
    assert bench_stats.tail_percentile(99) is None
    assert bench_stats.tail_percentile(100) == 90.0
    assert bench_stats.tail_percentile(999) == 90.0
    assert bench_stats.tail_percentile(1000) == 99.0
    assert bench_stats.tail_percentile(10_000) == 99.9


def test_percentile_is_a_sample_not_an_interpolation():
    assert bench_stats.percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert bench_stats.percentile([1.0, 2.0], 50.0) == 1.0
    with pytest.raises(ValueError):
        bench_stats.percentile([], 50.0)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),  # overlaps a: covered once
        ("grandchild", 2.5, 4.0, 2, 0),  # counts against b only
        ("c", 7.0, 8.0, 0, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert bench_stats.self_times(spans) == pytest.approx([5.0, 2.0, 1.5, 1.5, 1.0, 1.0])


def test_covered_length_clips_to_the_parent():
    assert bench_stats.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert bench_stats.covered_length([], 0.0, 10.0) == 0.0


def test_correct_digits_is_capped_and_floored():
    assert bench_stats.correct_digits(0.25, 0.25) == bench_stats.DIGITS_CAP
    assert bench_stats.correct_digits(1.0 + 2.0**-52, 1.0) == bench_stats.DIGITS_CAP
    assert bench_stats.correct_digits(1.001, 1.0) == pytest.approx(3.0)
    assert bench_stats.correct_digits(0.0067409, math.exp(-5)) == pytest.approx(3.35, abs=0.01)
    assert bench_stats.correct_digits(3.0, 1.0) == 0.0
    assert bench_stats.correct_digits(1e-7, 0.0) == pytest.approx(7.0)
    assert bench_stats.correct_digits(math.nan, 1.0) == 0.0


def test_z_band_is_strict_for_exact_probabilities():
    assert bench_stats.z_band_ok(0, 1000, 0.0, 6.0)
    assert not bench_stats.z_band_ok(1, 1000, 0.0, 6.0)
    assert bench_stats.z_band_ok(500, 1000, 0.5, 6.0)
    assert not bench_stats.z_band_ok(600, 1000, 0.5, 6.0)


def test_poisson_tail_matches_its_complement():
    head = sum(math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(4))
    assert bench_stats.poisson_upper_tail(2.0, 3) == pytest.approx(1.0 - head, rel=1e-12)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["better"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_every_query_has_a_stored_reference(workload):
    import bench_worker

    pkg = bench_worker.import_package(HERE.parent)
    refs = bench_workloads.load_refs()
    for seed in (0, 1, 2):
        queries = bench_workloads.build(workload, seed, pkg, refs)
        assert len(queries) >= 100
        again = bench_workloads.build(workload, seed, pkg, refs)
        assert [q.label for q in queries] == [q.label for q in again]
        for q in queries:
            if q.check in ("exact", "cli"):
                assert all(ref is not None for _, ref in q.calls)


def test_a_query_counts_once_per_run_however_many_passes():
    passes = [{"failed_qids": [1, 3]}, {"failed_qids": [1, 3]}, {"failed_qids": [1, 3]}]
    assert run.failed_queries(passes) == {1, 3}
    assert run.failed_queries(passes[:1]) == {1, 3}


def test_probe_samples_after_each_interval_and_keeps_its_own_time():
    import bench_probe

    now = [0.0]

    def clock():
        now[0] += 0.001  # every reading takes a millisecond
        return now[0]

    probe = bench_probe.Probe(clock)
    probe.sample()
    assert probe.samples == [pytest.approx(0.001)] * bench_probe.RUNS_PER_SAMPLE
    spent = probe.spent_s
    now[0] += bench_probe.INTERVAL_S / 2
    probe.maybe_sample()  # too soon
    assert len(probe.samples) == bench_probe.RUNS_PER_SAMPLE
    now[0] += bench_probe.INTERVAL_S
    probe.maybe_sample()
    assert len(probe.samples) == 2 * bench_probe.RUNS_PER_SAMPLE
    # began, two readings per run, end: the probe's own time, kept apart
    assert probe.spent_s == pytest.approx(spent + 0.002 * bench_probe.RUNS_PER_SAMPLE + 0.001)
    assert probe.median_s() == pytest.approx(0.001)
