"""Tests for the benchmark's own arithmetic.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchstats  # noqa: E402
from run import Judge, PassResult  # noqa: E402
from spans import PassSummary, Tracer  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert benchstats.highest_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert benchstats.percentile(values, 50.0) == 50
    assert benchstats.percentile(values, 99.0) == 99
    assert benchstats.percentile(values, 100.0) == 100
    assert benchstats.percentile([7.0], 99.0) == 7.0
    assert benchstats.percentile(np.arange(100.0, 0.0, -1.0), 5.0) == 5.0
    with pytest.raises(ValueError):
        benchstats.percentile([], 50.0)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, q2, q3 = benchstats.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert benchstats.relative_spread(values) == pytest.approx(5.5 / 5.5)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> leaf [2, 3]; root -> b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert benchstats.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_the_parent_interval():
    start, end, parent = [0.0, 1.0], [2.0, 3.0], [-1, 0]
    assert benchstats.self_times(start, end, parent).tolist() == [1.0, 2.0]


def test_tracer_self_times_add_up_to_the_pass():
    tracer = Tracer()
    calls = []

    def leaf(x):
        calls.append(x)
        return x

    traced_leaf = tracer.wrap("leaf")(leaf)
    inner = tracer.wrap("inner")(lambda: [traced_leaf(i) for i in range(3)])
    for pass_id in (4, 7):
        tracer.run("pass", lambda: [inner(), traced_leaf(9)], pass_id=pass_id)
    table = tracer.table()
    assert table["name_id"].size == 2 * (1 + 1 + 3 + 1)
    for pass_id in (4, 7):
        mask = table["pass_id"] == pass_id
        root = mask & (table["parent"] < 0)
        duration = (table["end"] - table["start"])[root].sum()
        assert table["self"][mask].sum() == pytest.approx(duration, abs=1e-12)
        summary = PassSummary(tracer, table, pass_id)
        assert summary.calls("leaf") == 4 and summary.calls("inner") == 1
        assert summary.calls("missing") == 0 and summary.total("missing") == 0.0
    assert np.all(table["self"] >= 0.0)


def test_tracer_counts_exceptions_and_keeps_its_stack():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("boom")(boom)
    with pytest.raises(KeyError):
        tracer.run("pass", traced, pass_id=0)
    assert tracer.counter(0, "boom.raised.KeyError") == 1
    tracer.run("pass", lambda: None, pass_id=1)
    assert tracer.table()["parent"].tolist() == [-1, 0, -1]


def test_error_rate_counts_failed_passes_against_attempted():
    assert benchstats.count_failures([None, "exit 2", None, "check failed"]) == (4, 2)
    assert benchstats.error_rate([None, "exit 2", None, "check failed"]) == 0.5
    assert benchstats.error_rate([None] * 3) == 0.0
    assert benchstats.error_rate([]) == 1.0


class _FakeWorkload:
    def __init__(self, fail_check=False):
        self.fail_check = fail_check

    def check(self, stdouts):
        if self.fail_check:
            raise CheckFailed("bad output")


def _result(digest="a", error=None):
    result = PassResult()
    result.digests = {"out.csv": digest}
    result.error = error
    return result


def test_judge_fails_exceptions_checks_and_drifted_digests(capsys):
    judge = Judge(_FakeWorkload())
    assert judge(_result("a"))
    assert judge(_result("a"))
    assert not judge(_result("b"))
    assert not judge(_result("a", error="exited with status 3"))
    assert benchstats.count_failures(judge.errors) == (4, 2)
    assert "out.csv" in judge.errors[2]

    failing = Judge(_FakeWorkload(fail_check=True))
    assert not failing(_result("a"))
    assert failing.reference is None
    assert benchstats.error_rate(failing.errors) == 1.0
    capsys.readouterr()


def test_verdicts_follow_pairs_spread_and_bound():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 10.0, 9.9]
    faster = [v * 0.8 for v in base]
    verdict = benchstats.verdict(base, faster, "lower", 0.1)
    assert verdict["verdict"] == "improved" and verdict["won"] == 10

    same = list(reversed(base))
    assert benchstats.verdict(base, same, "lower", 0.1)["verdict"] == "no worse"

    slower = [v * 1.2 for v in base]
    assert benchstats.verdict(base, slower, "lower", 0.1)["verdict"] == "worse"
    assert benchstats.verdict(base, slower, "higher", 0.1)["verdict"] == "improved"

    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert benchstats.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert benchstats.verdict(noisy, [v * 3 for v in noisy], "higher",
                              0.1)["verdict"] == "improved"
    assert benchstats.verdict(base, same, "lower", None)["verdict"] == "-"


def test_spec_layer_map_and_runner_name_the_same_metrics():
    import json

    from run import layer_metrics
    from workloads import WORKLOADS

    here = Path(__file__).resolve().parents[1]
    spec = json.loads((here.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((here / "layer_map.json").read_text(encoding="utf-8"))["layers"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert sorted(per_layer) == sorted(layer_map)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    from gauge import KERNELS
    assert all(workload.gauge_kernel in KERNELS for workload in WORKLOADS.values())

    tracer = Tracer()
    tracer.run("pass", lambda: None, pass_id=0)
    table = tracer.table()
    produced = set(layer_metrics(tracer, [PassSummary(tracer, table, 0)]))
    added_by_the_run = {"trace.overhead_frac", "check.revenue_ratio"}
    assert produced | added_by_the_run == set(per_layer)

    from run import REPORTED
    end_to_end = {m["name"] for m in spec["end_to_end"]} | set(REPORTED)
    moved = {name.split()[0] for layer in layer_map.values()
             for names in layer["moves"].values() for name in names}
    assert moved <= end_to_end


def test_gauge_local_takes_the_median_of_the_nearest_kernel_times():
    from gauge import NEAREST, Gauge

    meter = Gauge(lambda: None, 1.0)
    durations = [1.0] * 20 + [2.0] * 20
    durations[5] = 50.0  # one interrupted kernel run does not move its neighbours
    for index, duration in enumerate(durations):
        meter.times.append(float(index))
        meter.durations.append(duration)
    local = meter.local(np.array([-1.0, 5.0, 5.5, 10.0, 30.0, 99.0]))
    assert local.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert NEAREST % 2 == 1
    assert meter.between(3.0, 6.0).tolist() == [1.0, 1.0, 50.0, 1.0]


def test_unit_clock_leaves_gauge_time_out_of_units_and_windows():
    from spans import UnitClock

    class Loop:
        @staticmethod
        def unit():
            pass

        @staticmethod
        def window():
            for _ in range(3):
                Loop.unit()

    class Meter:
        def tick(self, now):
            return 0.25

    clock = UnitClock(Meter())
    clock.install((Loop, "unit"), (Loop, "window"))
    try:
        Loop.window()
    finally:
        clock.uninstall()
    assert len(clock.stamps) == 3  # one stamp per unit call
    clock.stamps[:] = array("d", [10.0, 11.0, 12.5])
    clock.windows[:] = [(9.0, 13.0)]
    intervals, starts, windows = clock.take([(8.0, 14.0)])
    assert intervals.tolist() == [0.75, 1.25, 0.25]
    assert starts.tolist() == [10.0, 11.0, 12.5]
    assert windows == [4.0 - 0.75]
    assert len(clock.stamps) == len(clock.paused) == 0


def test_compare_pairs_by_seed_and_flags_digest_drift():
    from compare import report

    def record(seed, wall, digest="d"):
        return {"workload": "clear", "trace": 0, "seed": seed, "failed": 0,
                "digests": {"gaps.csv": digest},
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    base = [record(seed, 10.0 + seed / 100) for seed in range(10)]
    change = [record(seed, 8.0 + seed / 100, "d" if seed else "x") for seed in reversed(range(10))]
    lines = report(base, change, {"wall_s": ("lower", 0.1)})
    assert lines[0].startswith("== clear (trace 0): 10 pairs")
    assert "10/10" in lines[2] and lines[2].endswith("improved")
    assert lines[-1] == "  output digests differ for seeds [0]"


def test_compare_reads_unbounded_metrics_without_a_verdict_past_improved():
    from compare import report

    def record(seed, wall, rate):
        return {"workload": "train", "trace": 0, "seed": seed, "failed": 0, "digests": {},
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
                "reported": {"work_per_s": {"value": rate, "unit": "1/s", "better": "higher"}}}

    base = [record(seed, 10.0, 100.0 + seed) for seed in range(10)]
    change = [record(seed, 10.0, 90.0 + seed) for seed in range(10)]
    lines = report(base, change, {"wall_s": ("lower", 0.1)})
    assert lines[2].endswith("no worse")
    assert lines[3].split()[0] == "work_per_s" and lines[3].endswith(" -")
