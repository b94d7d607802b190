"""Tests of the benchmark's own helpers, plus a tiny smoke run of each workload.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import benchstats  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Span  # noqa: E402


def _span(name, start, end, parent=None, pid=1, **args):
    return Span(name, start, end, parent, pid, dict(args))


# -- self time, coverage, nesting ------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 6.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        _span("root", 0.0, 10.0),
        _span("w1", 1.0, 5.0, parent=0),
        _span("w2", 3.0, 7.0, parent=0),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the parent's interval
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_union_length():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracer.union_length([(0, 2), (1, 3), (3, 4)]) == 4.0
    assert tracer.union_length([(1, 1), (2, 1)]) == 0.0


def test_coverage_uses_direct_children_only():
    spans = [
        _span("solve", 0.0, 10.0),
        _span("a", 0.0, 4.0, parent=0),
        _span("a.deep", 1.0, 2.0, parent=1),
        _span("b", 6.0, 8.0, parent=0),
        _span("worker", 0.0, 10.0, pid=2),
    ]
    share, unattributed = tracer.coverage(spans, 0)
    assert share == pytest.approx(0.6)
    assert unattributed == pytest.approx(4.0)


def test_outermost_skips_spans_nested_in_the_same_layer():
    spans = [
        _span("push_remaining", 0.0, 4.0),
        _span("push", 1.0, 2.0, parent=0),
        _span("push", 5.0, 6.0),
    ]
    chosen = tracer.outermost(spans, {"push", "push_remaining"})
    assert [s.start for s in chosen] == [0.0, 5.0]


def test_recorder_nests_and_exports_chrome_trace():
    rec = tracer.Recorder()
    with rec.span("solve"):
        with rec.span("engine.run_level", step="1deg"):
            pass
    assert [s.parent for s in rec.spans] == [None, 0]
    doc = tracer.chrome_trace(rec.spans, "run-1")
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["args"]["parent"] for e in events] == [None, 0]
    assert all(e["args"]["run_id"] == "run-1" for e in events)
    assert events[1]["args"]["step"] == "1deg"
    json.dumps(doc)


def test_install_wraps_and_restores_layer_points():
    from repro.engine import backends

    original = backends.SerialBackend.__dict__["run_tasks"]
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        assert backends.SerialBackend.__dict__["run_tasks"] is not original
        rec.active = True
        assert backends.SerialBackend().run_tasks(abs, [-1, 2]) == [1, 2]
    finally:
        undo()
    assert backends.SerialBackend.__dict__["run_tasks"] is original
    assert [s.name for s in rec.spans] == ["engine.run_tasks"]


# -- statistics ------------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert benchstats.tail(list(range(10))) is None
    assert benchstats.tail(list(range(20))) == (50.0, 9.0)  # 10 beyond the median
    assert benchstats.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert benchstats.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_samples_beyond_matches_nearest_rank():
    for n in (1, 7, 11, 40, 101):
        for p in benchstats.TAIL_PERCENTILES:
            values = list(range(n))
            cut = benchstats.percentile(values, p)
            assert benchstats.samples_beyond(n, p) == sum(v > cut for v in values)


def test_summary_reports_count_and_no_tail_for_few_samples():
    s = benchstats.summary([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "samples": 3, "tail_percentile": None, "tail_value": None}


def test_failed_fraction_validates_counts():
    assert benchstats.failed_fraction(0, 8) == 0.0
    assert benchstats.failed_fraction(2, 8) == 0.25
    with pytest.raises(ValueError):
        benchstats.failed_fraction(0, 0)
    with pytest.raises(ValueError):
        benchstats.failed_fraction(9, 8)


# -- failed-view accounting --------------------------------------------------------

def _outcome(orients, distances):
    return W.Outcome(orientations=orients, distances=distances)


def test_failed_views_counts_missing_and_non_finite_results():
    import numpy as np

    good = np.zeros((3, 5))
    assert W.failed_views(_outcome(good, np.zeros(3)), 3) == 0
    bad = good.copy()
    bad[1, 2] = np.nan
    dist = np.array([0.0, 0.0, np.inf])
    assert W.failed_views(_outcome(bad, dist), 3) == 2
    assert W.failed_views(None, 3) == 3
    assert W.failed_views(_outcome(good[:2], np.zeros(2)), 3) == 3
    # loop results carry one mean distance per iteration: any non-finite fails all
    assert W.failed_views(_outcome(good, np.array([1.0, np.nan])), 3) == 3


def test_same_result_is_bitwise():
    import numpy as np

    a = _outcome(np.ones((2, 5)), np.ones(2))
    b = _outcome(np.ones((2, 5)), np.ones(2))
    assert W.same_result(a, b)
    b.orientations[0, 0] = np.nextafter(1.0, 2.0)
    assert not W.same_result(a, b)


def test_account_fails_every_view_of_a_bad_repetition():
    import numpy as np

    ok = _outcome(np.zeros((3, 5)), np.zeros(3))
    drifted = _outcome(np.zeros((3, 5)), np.array([0.0, 0.0, 1e-300]))
    holes = _outcome(np.zeros((3, 5)), np.array([0.0, np.nan, 0.0]))
    reps = [
        measure.Rep(ok, 1.0, 1.0, 0.0),
        measure.Rep(None, 0.0, 0.0, 0.0, error="RuntimeError: boom"),
        measure.Rep(drifted, 1.0, 1.0, 0.0),
        measure.Rep(ok, 1.0, 1.0, 0.0),
    ]
    attempted, failed, violations = measure.account(reps, n_views=3, iterations=2)
    assert (attempted, failed) == (15, 9)
    assert len(violations) == 2
    assert measure.account([measure.Rep(holes, 1.0, 1.0, 0.0)] * 2, 3, 1)[:2] == (6, 2)


# -- BENCHMARK.json stays in step -----------------------------------------------------

def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert all(w["why"] == W.WORKLOADS[w["name"]].why for w in spec["workloads"])


# -- smoke runs of each workload at toy size ---------------------------------------------

TINY_LEVELS = ((1.0, 1.0, 1, 1), (0.5, 0.5, 1, 1))


def _tiny(name):
    w = W.WORKLOADS[name]
    engine = dict(w.engine)
    if "symmetry" in engine:
        engine["symmetry"] = {"mode": "detect", "detect_n_axes": 8}
    return replace(w, size=16, n_views=4, levels=TINY_LEVELS, r_max=5.0, engine=engine,
                   loop_iterations=min(w.loop_iterations, 1))


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_workload_smoke_is_repeatable_and_traced(name, tmp_path):
    w = _tiny(name)
    inputs = W.make_inputs(w, seed=5)
    again = W.make_inputs(w, seed=5)
    assert inputs.images.tobytes() == again.images.tobytes()

    plain = measure.run_rep(w, inputs, str(tmp_path), 0)
    assert plain.error is None, plain.error
    assert W.failed_views(plain.outcome, w.n_views) == 0

    rec = tracer.Recorder(worker_dir=str(tmp_path))
    undo = tracer.install(rec)
    try:
        traced = measure.run_rep(w, inputs, str(tmp_path), 1, rec)
    finally:
        undo()
    assert traced.error is None, traced.error
    assert W.same_result(plain.outcome, traced.outcome)

    layers = metrics.layer_metrics(
        traced.spans, traced.solve_root, perf=traced.outcome.perf,
        band_samples=measure.band_samples(w), worker_cpu_s=traced.worker_cpu_s,
        n_workers=W.engine_config(w).parallel.n_workers, fault_events=0,
    )
    assert set(layers) == set(metrics.PER_LAYER) - {"trace.overhead"}
    assert layers["engine.run_level.calls"] == len(TINY_LEVELS) * max(1, w.loop_iterations)
    assert 0.5 < layers["trace.coverage"] <= 1.0
    if name == "detect_icos":
        assert layers["refine.detect_s"] > 0 and layers["refine.detect.score_calls"] > 0
    if name == "determine_pool":
        assert layers["parallel.shared_volume.calls"] >= 1
        assert layers["reconstruct.push.calls"] == w.n_views
        assert layers["faults.checkpoint.writes"] > 0
        assert layers["faults.checkpoint.bytes"] > 0
    else:
        assert layers["align.match_window.calls"] > 0
        assert layers["reconstruct.deposit_s"] == 0.0
