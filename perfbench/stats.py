"""Arithmetic of the benchmark: percentiles, self times, failure accounting
and the comparison against a recorded reference.

Everything here is pure Python on plain lists and dicts, so the unit tests
in test_stats.py exercise it without running a solver.
"""
from __future__ import annotations

import math

# ladder of percentiles a timing may be reported at; the highest one that
# still leaves TAIL_MIN_BEYOND samples above it is the reported tail
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
# a branch set is summarized by its median only with this many cycles
MIN_BRANCH_CYCLES = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it; None when not even the median qualifies."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def self_time(duration: float, child_durations) -> float:
    """A span's own time: its duration minus the time its children cover.

    Children of one span never overlap (the program is single-threaded), so
    their durations add up."""
    return duration - sum(child_durations)


def trace_sum_error(wall: float, accounted) -> float:
    """Share of a wall-clock window that the traced time inside it misses
    or overshoots."""
    return abs(sum(accounted) - wall) / wall


def trace_overhead(traced_s: float, untraced_s) -> tuple:
    """Overhead of a traced pass over the mean of the untraced passes, and
    the untraced passes' own spread (max - min) on the same scale; an
    overhead within that spread is not resolved."""
    base = sum(untraced_s) / len(untraced_s)
    return (traced_s - base) / base, (max(untraced_s) - min(untraced_s)) / base


def failed_fraction(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def cycle_failed(record: dict, hard_row_tol: float) -> bool:
    """A control cycle counts as failed when the controller gave up, raised,
    or applied a plan that breaks a hard row. Drift from the reference is
    counted separately by compare_cycles."""
    if record["branch"] == "failure" or record.get("error"):
        return True
    hard = record.get("hard_residual")
    return hard is not None and math.isfinite(hard) and hard > hard_row_tol


def compare_cycles(reference: list, cycles: list, u_tol: float) -> list:
    """Per-cycle drift reasons against the reference ("" when matching).

    A cycle matches when it took the same branch (or raised the same error)
    and every applied input lies within u_tol of the recorded one."""
    if len(reference) != len(cycles):
        raise ValueError("reference and run cover different cycles")
    out = []
    for ref, rec in zip(reference, cycles):
        if ref["branch"] != rec["branch"]:
            out.append(f"branch {rec['branch']} != {ref['branch']}")
        elif (ref.get("error") or "") != (rec.get("error") or ""):
            out.append(f"error {rec.get('error')} != {ref.get('error')}")
        else:
            du = max(abs(a - b) for a, b in zip(ref["u"], rec["u"]))
            out.append(f"|du| {du:.3g} > {u_tol:g}" if du > u_tol else "")
    return out


def compare_labels(reference: list, labels: list, slack_tol: float) -> list:
    """Per-sample drift reasons for (feasible, slack) labels."""
    if len(reference) != len(labels):
        raise ValueError("reference and run cover different samples")
    out = []
    for (ref_f, ref_s), (feas, slack) in zip(reference, labels):
        if bool(ref_f) != bool(feas):
            out.append(f"feasible {feas} != {ref_f}")
        elif ref_s is None or slack is None:
            out.append("" if ref_s is None and slack is None else "slack presence")
        else:
            ds = max((abs(a - b) for a, b in zip(ref_s, slack)), default=0.0)
            out.append(f"|dslack| {ds:.3g} > {slack_tol:g}" if ds > slack_tol else "")
    return out

