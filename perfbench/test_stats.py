"""Unit tests of the benchmark's own arithmetic; no solver runs here.

    python3 -m pytest -q perfbench
"""
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.median([1.0, 2.0]) == 1.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_leaves_at_least_ten_beyond():
    for n in range(20, 2000, 7):
        p = stats.tail_percentile(n)
        assert n * (1 - p / 100) >= 10 - 1e-9


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_children():
    assert stats.self_time(10.0, [2.0, 3.0]) == 5.0
    assert stats.self_time(4.0, []) == 4.0


def _span(start, end, parent=None):
    s = Span("x", "sqp", parent)
    s.start, s.end = start, end
    if parent is not None:
        parent.children.append(s)
    return s


def test_span_self_time_excludes_children_and_callbacks():
    root = _span(0.0, 10.0)
    _span(1.0, 3.0, root)
    _span(4.0, 5.0, root)
    root.callbacks["dyn_f"] = [2.5, 100, 4]
    assert root.callback_time == 2.5
    assert root.self_time == pytest.approx(10.0 - 2.0 - 1.0 - 2.5)


def test_accounted_time_shows_callbacks_that_overrun_their_span():
    root = _span(0.0, 10.0)
    solve = _span(1.0, 5.0, root)
    solve.callbacks["dyn_f"] = [1.5, 10, 1]
    assert root.accounted_time == pytest.approx(10.0)
    # a callback counted on the solve but run after it returned
    solve.callbacks["dyn_jac"] = [3.0, 1, 1]
    assert solve.self_time < 0
    assert root.accounted_time == pytest.approx(10.0 + 0.5)


def test_trace_sum_error_counts_shortfall_and_excess():
    assert stats.trace_sum_error(10.0, [4.0, 6.0]) == 0.0
    assert stats.trace_sum_error(10.0, [9.0]) == pytest.approx(0.1)
    assert stats.trace_sum_error(10.0, [10.0, 0.5]) == pytest.approx(0.05)


def test_trace_overhead_against_the_untraced_spread():
    overhead, noise = stats.trace_overhead(11.0, [9.5, 10.5])
    assert overhead == pytest.approx(0.1)
    assert noise == pytest.approx(0.1)
    overhead, noise = stats.trace_overhead(10.2, [10.0])
    assert (overhead, noise) == (pytest.approx(0.02), 0.0)


def test_tracer_nests_spans_and_times_callbacks_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer._wrap("ocp", "ocp.inner", inner)
    wrapped_outer = tracer._wrap("controller", "controller.outer", outer)
    assert wrapped_outer() == 2
    (root,) = tracer.roots
    (child,) = root.children
    assert (root.start, child.start, child.end, root.end) == (0.0, 1.0, 2.0, 3.0)
    assert root.self_time == 2.0
    assert [s.name for s in tracer.walk()] == ["controller.outer", "ocp.inner"]

    span = Span("sqp.solve", "sqp", None)
    cb = tracer._wrap_callback(span, "stage_rows", lambda n, x: n)
    for n in range(3):
        cb(n, None)
    seconds, calls, passes = span.callbacks["stage_rows"]
    assert (seconds, calls, passes) == (3.0, 3, 1)


def test_spans_inside_callbacks_are_not_recorded():
    tracer = Tracer(clock=lambda: 0.0)
    wrapped = tracer._wrap("ocp", "ocp.f", lambda: 7)
    span = Span("sqp.solve", "sqp", None)
    cb = tracer._wrap_callback(span, "rows", lambda: wrapped())
    assert cb() == 7
    assert tracer.roots == []


# -- host speed scaling ---------------------------------------------------------

def test_scaled_divides_by_the_kernel_times_around_it():
    ref = hostspeed.REFERENCE_KERNEL_MS
    assert hostspeed.scaled(100.0, ref, ref) == pytest.approx(100.0)
    # a host running the kernel 1.5 times slower reads 1.5 times faster
    assert hostspeed.scaled(150.0, 1.4 * ref, 1.6 * ref) == pytest.approx(100.0)


def test_probe_scales_each_stretch_and_leaves_the_kernel_runs_out(monkeypatch):
    ref = hostspeed.REFERENCE_KERNEL_MS
    ticks = iter([0.0, 0.001, 0.101, 0.102, 0.302, 0.303])
    kernels = iter([ref, 2 * ref, ref])
    monkeypatch.setattr(hostspeed, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(hostspeed, "kernel_ms", lambda: next(kernels))
    probe = hostspeed.Probe()
    probe.mark()                        # kernel run 0.000-0.001
    probe.mark()                        # work 0.001-0.101, kernel to 0.102
    probe.mark()                        # work 0.102-0.302, kernel to 0.303
    wall, scaled = probe.work(0.001, 0)
    assert wall == pytest.approx(300.0)
    # 100 ms between kernels of 1x and 2x, 200 ms between 2x and 1x
    assert scaled == pytest.approx(100.0 / 1.5 + 200.0 / 1.5)
    assert probe.work(0.102, 1) == pytest.approx((200.0, 200.0 / 1.5))


def test_label_probe_records_every_label_and_restores_oracle_solve(monkeypatch):
    from softmpc import oracle
    import workloads
    kernels = iter([1.0, 2.0, 3.0])

    def fake_solve(*args):
        return args
    monkeypatch.setattr(hostspeed, "kernel_ms", lambda: next(kernels))
    monkeypatch.setattr(oracle, "oracle_solve", fake_solve)
    probe = workloads.LabelProbe(labels=2)
    with probe:
        assert oracle.oracle_solve is not fake_solve
        assert oracle.oracle_solve("a", "b") == ("a", "b")
        oracle.oracle_solve("c")
    assert oracle.oracle_solve is fake_solve
    records = probe.records()
    # each label is bracketed by the kernel runs just before and after it
    assert [r[1:] for r in records] == [(1.0, 2.0), (2.0, 3.0)]
    assert all(r[0] >= 0.0 for r in records)


# -- failure accounting ----------------------------------------------------------

def test_failed_fraction():
    assert stats.failed_fraction(0, 10) == 0.0
    assert stats.failed_fraction(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_fraction(1, 0)
    with pytest.raises(ValueError):
        stats.failed_fraction(11, 10)


def test_cycle_failed_counts_failure_raise_and_hard_rows():
    ok = {"branch": "nominal", "error": None, "hard_residual": -1.0}
    assert not stats.cycle_failed(ok, 1e-6)
    assert stats.cycle_failed(dict(ok, branch="failure",
                                   hard_residual=float("nan")), 1e-6)
    assert stats.cycle_failed(dict(ok, branch="raised", error="PathRangeError",
                                   hard_residual=None), 1e-6)
    assert stats.cycle_failed(dict(ok, hard_residual=2e-6), 1e-6)
    assert not stats.cycle_failed(dict(ok, hard_residual=1e-6), 1e-6)


# -- reference comparison ----------------------------------------------------------

def test_compare_cycles_flags_branch_error_and_input_drift():
    ref = [{"branch": "nominal", "error": None, "u": [0.0, 1.0]},
           {"branch": "E1", "error": None, "u": [0.0, -1.0]},
           {"branch": "raised", "error": "PathRangeError", "u": [0.0, -9.0]},
           {"branch": "nominal", "error": None, "u": [0.1, 0.2]}]
    run = [{"branch": "nominal", "error": None, "u": [0.0, 1.0 + 5e-5]},
           {"branch": "E2", "error": None, "u": [0.0, -1.0]},
           {"branch": "raised", "error": "ValueError", "u": [0.0, -9.0]},
           {"branch": "nominal", "error": None, "u": [0.1, 0.2 + 2e-4]}]
    drift = stats.compare_cycles(ref, run, 1e-4)
    assert drift[0] == ""
    assert drift[1].startswith("branch")
    assert drift[2].startswith("error")
    assert drift[3].startswith("|du|")
    with pytest.raises(ValueError):
        stats.compare_cycles(ref, run[:2], 1e-4)


def test_compare_labels():
    ref = [(True, [0.0, 1.0]), (False, None), (True, [2.0, 0.0]), (True, [0.0, 0.0])]
    run = [(True, [0.0, 1.0 + 1e-9]), (False, None), (False, None), (True, [0.0, 1e-3])]
    drift = stats.compare_labels(ref, run, 1e-6)
    assert drift[:2] == ["", ""]
    assert drift[2].startswith("feasible")
    assert drift[3].startswith("|dslack|")

