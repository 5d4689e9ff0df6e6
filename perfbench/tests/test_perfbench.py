"""Tests of the benchmark itself: determinism of its counts, its seeded
inputs, the tracing wrappers, the calibrated clock and the trace export.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from calib import NOMINAL_S, CalibratedClock, CalibrationKernel
from layers import layer_metrics


@pytest.fixture(scope="module")
def kernel():
    return CalibrationKernel()


def traced_run(kernel, workload: str, seed: int):
    """A short traced run; returns (metrics, obj_gap, passes)."""
    passes, metrics, _ = run.measure(workload, seed, 1.0, 1, kernel)
    run.score(workload, passes)
    return metrics, run.obj_gap(passes), passes


COUNTS = ("core.iterations", "serve.batches", "serve.warm_hit_rate",
          "core.local.bytes_per_iter", "serve.iterations_per_scenario")


@pytest.mark.parametrize("workload", ["serve-closed", "solve-small"])
def test_same_seed_reproduces_counts_and_gap(kernel, workload):
    first, gap1, _ = traced_run(kernel, workload, seed=3)
    second, gap2, _ = traced_run(kernel, workload, seed=3)
    for name in COUNTS:
        assert first[name] == second[name], name
    assert gap1 == gap2
    assert first["core.iterations"] > 0
    # Every per-layer time is measured, also for layers the workload
    # itself does not exercise (they come from its probe pass).
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    times = [m["name"] for m in declared if m["unit"] in ("s", "ms", "us")]
    assert times and all(first[name] > 0 for name in times)
    if workload == "serve-closed":
        assert first["serve.batches"] > 0
        assert 0.0 < first["serve.warm_hit_rate"] < 1.0
        assert first["fleet.affinity"] == 1.0


def test_seed_changes_the_serve_stream():
    def keys(seed):
        return [r.scenario_key() for r in workloads.serve_stream(seed, 48)]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)


def test_serve_stream_mixes_fresh_and_perturbed_requests():
    stream = workloads.serve_stream(5, 96)
    for feeder in workloads.SERVE_FEEDERS:
        mine = [r for r in stream if r.feeder == feeder]
        scales = [r.load_scale for r in mine]
        repeats = len(scales) - len(set(scales))
        # every second request of a feeder, once one of its requests lies
        # two rounds (2 * SERVE_CLIENTS positions) back, re-uses an
        # earlier one's load scale
        first = workloads.SERVE_CLIENTS  # feeder-local index
        assert repeats == len([k for k in range(first, len(mine)) if k % 2 == 1])
        assert repeats > 0


def test_wrappers_restore_every_patched_attribute():
    from repro.core.batch import BatchedLocalSolver
    from repro.core.loop import ADMMLoop

    points = tracing.patch_points()
    assert (ADMMLoop, "run") in points and (BatchedLocalSolver, "solve") in points
    before = {(id(o), a): vars(o)[a] for o, a in points}
    problem, solver = workloads.setup_small(0)["ieee13"]
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        for owner, attr in points:
            assert vars(owner)[attr] is not before[(id(owner), attr)], attr
        solver.solve(max_iter=5)
    for owner, attr in points:
        assert vars(owner)[attr] is before[(id(owner), attr)], attr
    # the strategy hooks wrapped on entry to ADMMLoop.run are gone again
    for hook, _ in tracing.LOOP_HOOKS:
        assert hook not in vars(solver)
    names = {s[0] for s in recorder.spans}
    assert {"core.run", "core.global", "core.local", "core.dual",
            "core.compute_residuals", "core.batch_solve"} <= names


class FakeTimer:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class FakeKernel:
    """Each reading costs 50 s of the fake wall clock."""

    def __init__(self, timer, readings):
        self.timer = timer
        self.readings = list(readings)

    def time(self, regimes):
        self.timer.now += 50.0
        return self.readings.pop(0)


def test_calibrated_clock_arithmetic_excludes_kernel_time():
    timer = FakeTimer()
    kernel = FakeKernel(timer, [{"small": 0.02, "stream": 0.004},
                                {"small": 0.03, "stream": 0.012}])
    clock = CalibratedClock(kernel, ("small",), timer=timer)
    with clock.segment() as seg:
        timer.now += 3.0
    assert seg.raw_s == 3.0
    assert seg.kernel_s == pytest.approx(0.025)
    assert seg.cal_s == pytest.approx(3.0 * NOMINAL_S["small"] / 0.025)
    assert clock.readings == [0.02, 0.03]

    kernel = FakeKernel(timer, [{"small": 0.02, "stream": 0.004},
                                {"small": 0.03, "stream": 0.012}])
    clock = CalibratedClock(kernel, ("small", "stream"), timer=timer)
    with clock.segment() as seg:
        timer.now += 2.0
    nominal = NOMINAL_S["small"] + NOMINAL_S["stream"]
    assert seg.raw_s == 2.0
    assert seg.cal_s == pytest.approx(2.0 * nominal / (0.5 * (0.024 + 0.042)))


def test_back_to_back_segments_share_a_reading():
    timer = FakeTimer()
    readings = [{"small": v} for v in (0.02, 0.04, 0.06, 0.08, 0.10)]
    clock = CalibratedClock(FakeKernel(timer, readings), ("small",), timer=timer)
    with clock.segment() as first:
        timer.now += 1.0
    with clock.segment() as second:  # starts right after the last reading
        timer.now += 1.0
    timer.now += 10.0  # other work: the next segment reads afresh
    with clock.segment() as third:
        timer.now += 1.0
    assert first.kernel_s == pytest.approx(0.03)
    assert second.kernel_s == pytest.approx(0.05)
    assert third.kernel_s == pytest.approx(0.09)
    assert clock.readings == [0.02, 0.04, 0.06, 0.08, 0.10]


def test_split_segment_rescales_each_piece_by_its_own_readings():
    timer = FakeTimer()
    readings = [{"small": v} for v in (0.02, 0.04, 0.06)]
    clock = CalibratedClock(FakeKernel(timer, readings), ("small",), timer=timer)
    with clock.segment() as seg:
        timer.now += 1.0
        clock.split()  # the 50 s kernel reading is off the clock
        timer.now += 2.0
    c0 = NOMINAL_S["small"]
    assert seg.raw_s == 3.0
    assert seg.cal_s == pytest.approx(1.0 * c0 / 0.03 + 2.0 * c0 / 0.05)
    assert seg.kernel_s == pytest.approx(3.0 * c0 / seg.cal_s)
    assert clock.readings == [0.02, 0.04, 0.06]
    clock.split()  # outside a segment: nothing to split
    assert clock.readings == [0.02, 0.04, 0.06]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1, None, None),
        ("a", 1.0, 4.0, 0, None, None),
        ("b", 3.0, 6.0, 0, None, None),  # overlaps a: covered 1..6
        ("c", 8.0, 9.0, 0, None, None),
        ("a.child", 1.5, 2.0, 1, None, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)


def test_gap_tier_failures_are_counted_not_hidden():
    p = workloads.Pass()
    p.answers = [
        workloads.Answer(op="a", feeder="ieee13", iterations=10, objective=1.0),
        workloads.Answer(op="b", feeder="ieee34", iterations=10, objective=1.1),
    ]
    oracle = workloads.Oracle()
    oracle.references.update({"ieee13": 1.0, "ieee34": 1.0})
    workloads.check_pass("solve-small", p, oracle)
    assert p.answers[0].failure is None
    assert p.answers[1].failure == "gap outside tier"
    attempted, failed, reasons, correct = run.count_failures([p])
    assert (attempted, failed, correct) == (2, 1, True)
    assert run.obj_gap([p]) == pytest.approx(0.09)  # p90 of {0, 0.1}


def test_trace_loads_in_trace_summary(tmp_path):
    recorder = tracing.SpanRecorder()
    problem, solver = workloads.setup_small(0)["ieee13"]
    with tracing.instrument(recorder):
        solver.solve(max_iter=20)
    metrics = layer_metrics(recorder.spans)
    assert metrics["core.iterations"] == 20
    assert metrics["core.local.bytes_per_iter"] > 0
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(recorder.spans, path)
    json.loads(path.read_text())
    out = subprocess.run(
        [sys.executable, "-m", "repro", "trace-summary", str(path)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(run.ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert "core.global" in out.stdout
