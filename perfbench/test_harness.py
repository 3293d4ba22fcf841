"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert harness.percentile(xs, 500) == 50
    assert harness.percentile(xs, 900) == 90
    assert harness.percentile(list(reversed(xs)), 990) == 99
    assert harness.percentile([7], 900) == 7
    with pytest.raises(ValueError):
        harness.percentile([], 500)


@pytest.mark.parametrize(
    "n, permille",
    [(19, None), (20, 500), (99, 500), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_permille_keeps_ten_samples_beyond(n, permille):
    assert harness.tail_permille(n) == permille
    if permille is not None:
        assert harness.samples_beyond(n, permille) >= harness.MIN_BEYOND
        higher = [pm for pm in harness.PERMILLES if pm > permille]
        assert all(harness.samples_beyond(n, pm) < harness.MIN_BEYOND for pm in higher)


def span(id, parent, start, end):
    return harness.Span(id, parent, 0, f"s{id}", start, end)


def test_self_time_is_span_minus_children():
    spans = [
        span(0, None, 0, 100),
        span(1, 0, 10, 30),
        span(2, 0, 20, 50),  # overlaps child 1: the union 10..50 counts once
        span(3, 0, 90, 120),  # sticks out of its parent: only 90..100 counts
        span(4, 1, 12, 14),  # grandchild: charged to child 1, not to the root
    ]
    selfs = harness.self_times(spans)
    assert selfs == {0: 100 - 40 - 10, 1: 20 - 2, 2: 30, 3: 30, 4: 2}


def test_tracer_nests_and_totals_by_name():
    tr = harness.Tracer()
    with tr.span("op"):
        with tr.span("layer", calls=3) as sp:
            sp.work = 7
    with tr.span("op"):
        pass
    root, child, second = tr.spans
    assert child.parent == root.id and child.op == root.op
    assert second.parent is None and second.op != root.op
    totals = harness.layer_totals(tr.spans)
    assert totals["layer"]["calls"] == 3 and totals["layer"]["work"] == 7
    assert totals["op"]["calls"] == 2
    assert totals["op"]["busy_s"] >= 0


def test_null_tracer_records_nothing():
    tr = harness.NullTracer()
    with tr.span("x") as sp:
        sp.work = 5
    assert tr.spans == ()


def test_failed_ratio_has_a_base():
    assert harness.failed_ratio(0, 5) == 0
    assert harness.failed_ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        harness.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        harness.failed_ratio(3, 2)


def test_run_counts_raised_and_wrong_answers_as_failed(capsys):
    r = harness.Run(harness.NullTracer())
    i, v = r.op("ok", lambda x: x + 1, 1)
    j, w = r.op("boom", lambda: 1 // 0)
    k, _ = r.op("ok", lambda: 2)
    r.check(i, v == 2)
    r.check(k, False)
    assert (v, w) == (2, None)
    assert r.attempted == 3 and r.failed == {j, k}
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_calibration_scales_each_operation_by_the_reference_around_it():
    ref = harness.CAL_REF_NS
    cal = harness.Calibration()
    cal.marks = [(0, ref), (2, 3 * ref), (3, ref)]  # timed before ops 0, 2 and 3
    assert cal.factors(4) == [0.5, 0.5, 0.5, 1.0]


@pytest.mark.parametrize("count", [3, 5, 8, 13, 40])
def test_spread_covers_the_range_evenly_at_every_length(count):
    vals = workloads.spread(100, 1099, 0.3, count)
    assert vals == workloads.spread(100, 1099, 0.3, count)
    assert all(100 <= v <= 1099 for v in vals)
    cuts = sorted(vals) + [min(vals) + 1000]  # the range seen as a circle
    assert max(b - a for a, b in zip(cuts, cuts[1:])) <= 2.7 * 1000 / count


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == run.layer_metric_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
