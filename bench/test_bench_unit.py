"""Unit tests of the benchmark's own helpers (no workload runs here)."""

import json
import re
import statistics
from pathlib import Path

import pytest

from bench import stats
from bench.compare import verdict
from bench.host import CPU_REFERENCE_S, WALK_REFERENCE_S, drift_ratio, is_steady, slowness
from bench.run import complete_layers, to_reference
from bench.trace import Tracer, to_chrome
from bench.workloads import WORKLOADS, instance_seed

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def test_quartiles_match_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_single_value_has_no_spread():
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.spread([2.5]) == 0.0
    assert stats.summarize([2.5]) == {
        "median": 2.5, "q1": 2.5, "q3": 2.5, "min": 2.5, "max": 2.5, "n": 1,
    }


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(list(reversed(values)), 25) == 20.0


def test_order_statistics_reject_empty_input_and_bad_percentiles():
    for function in (stats.median, stats.quartiles, stats.summarize):
        with pytest.raises(ValueError):
            function([])
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
STEADY_A = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_unchanged_when_medians_agree_within_the_bound():
    assert verdict(STEADY_A, [10.2, 10.1, 10.0, 10.15, 10.05], "lower", 0.10) == "unchanged"


def test_verdict_regressed_when_worse_by_more_than_the_bound():
    assert verdict(STEADY_A, [value * 1.2 for value in STEADY_A], "lower", 0.10) == "regressed"
    # For a metric where higher is better, the same move is the gain.
    assert verdict(STEADY_A, [value * 1.2 for value in STEADY_A], "higher", 0.10) == "improved"


def test_verdict_improved_needs_nine_wins_in_ten_and_more_than_the_quartile_distance():
    assert verdict(STEADY_A, [value * 0.9 for value in STEADY_A], "lower", 0.10) == "improved"
    # Better median, but B loses too many pairs to claim a gain.
    assert verdict(STEADY_A, [9.8, 9.8, 9.8, 10.2, 10.2], "lower", 0.10) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [8.5, 12.5, 9.5, 11.5, 10.5], "lower", 0.10) == "unresolved"
    # ... unless every run of B beats every run of A,
    assert verdict(noisy, [4.0, 6.0, 4.5, 5.5, 5.0], "lower", 0.10) == "improved"
    # or every run of B loses to every run of A.
    assert verdict(noisy, [16.0, 24.0, 18.0, 22.0, 20.0], "lower", 0.10) == "regressed"


def test_verdict_on_a_constant_metric():
    ones = [1.0, 1.0, 1.0]
    assert verdict(ones, ones, "higher", 0.001) == "unchanged"
    assert verdict(ones, [0.99, 0.99, 0.99], "higher", 0.001) == "regressed"
    with pytest.raises(ValueError):
        verdict(ones, ones, "sideways", 0.1)


# ----------------------------------------------------------------------
# Spans and host steadiness
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    tracer = Tracer("unit")
    with tracer.span("outer"):
        with tracer.span("inner", flows=3):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert first.parent == 0 and second.parent == 0 and outer.parent is None
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx(
        outer.duration - first.duration - second.duration
    )
    assert len(tracer.durations("inner")) == 2
    assert tracer.total("inner") == pytest.approx(first.duration + second.duration)

    document = to_chrome("unit", tracer.to_records(), {"sim.events": 7})
    events = document["traceEvents"]
    assert [event["ph"] for event in events] == ["X", "X", "X", "C"]
    assert events[1]["args"] == {"flows": 3, "workload": "unit", "parent": "outer"}
    assert events[3]["args"] == {"value": 7}


def test_drift_band():
    first = {"calib_cpu_s": 1.0, "calib_mem_s": 0.22}
    assert is_steady(drift_ratio(first, {"calib_cpu_s": 1.0, "calib_mem_s": 0.23}))
    assert not is_steady(drift_ratio(first, {"calib_cpu_s": 1.0, "calib_mem_s": 0.33}))


def test_slowness_is_the_geometric_mean_of_the_median_loop_times():
    reference = {"calib_cpu_s": CPU_REFERENCE_S, "calib_mem_s": WALK_REFERENCE_S}
    assert slowness([reference]) == pytest.approx(1.0)
    slow = {"calib_cpu_s": 2 * CPU_REFERENCE_S, "calib_mem_s": 8 * WALK_REFERENCE_S}
    assert slowness([slow]) == pytest.approx(4.0)
    # One slow calibration among three does not move the median.
    assert slowness([reference, slow, reference]) == pytest.approx(1.0)


def test_times_and_rates_are_expressed_on_the_reference_host():
    units = {"a_s": "s", "b_ms": "ms", "c_per_s": "1/s", "d": "count", "e": "ratio"}
    layers = {"a_s": 3.0, "b_ms": 6.0, "c_per_s": 10.0, "d": 7, "e": 0.5}
    assert to_reference(layers, units, 1.5) == {
        "a_s": 2.0, "b_ms": 4.0, "c_per_s": 15.0, "d": 7, "e": 0.5,
    }


def test_unmeasured_layers_read_zero_and_unknown_ones_are_refused():
    name = SPEC["per_layer"][0]["name"]
    completed = complete_layers({name: 1.25}, SPEC)
    assert list(completed) == [metric["name"] for metric in SPEC["per_layer"]]
    assert completed[name] == 1.25 and sum(completed.values()) == 1.25
    with pytest.raises(SystemExit):
        complete_layers({"no.such.metric": 1.0}, SPEC)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128

    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    names = [entry["name"] for entry in SPEC["workloads"] + metrics]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))

    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_benchmark_json_lists_the_workloads_the_code_defines():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS
    ]


def test_instances_of_a_seed_are_distinct_and_start_at_the_seed():
    seeds = [instance_seed(42, instance) for instance in range(10)]
    assert seeds[0] == 42 and len(set(seeds)) == 10
    # Consecutive task seeds of the sweep never reach the next instance.
    assert all(later - earlier > 100 for earlier, later in zip(seeds, seeds[1:]))
