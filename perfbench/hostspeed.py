"""Host speed probe for timings taken on a shared machine.

On a shared host the speed of one core drifts by tens of percent within
seconds, so that the same closed-loop window can take 1.6 s or 2.6 s per
cycle from one run to the next. The closed-loop driver times a fixed
kernel between every two control cycles and, within a cycle, after every
solve and every quarter second of solver work (Probe), and scales each
stretch of work between two kernel runs by
REFERENCE_KERNEL_MS / (mean of the two kernel times): the result reads in
milliseconds of a host that runs the kernel in REFERENCE_KERNEL_MS. The raw
wall times, without the kernel runs, are printed beside the scaled ones.

The kernel is the kind of work the solver spends its time in: small dense
solves and matrix products, numpy calls on 12 x 12 arrays. It uses numpy
alone and no softmpc code, so a change to the program never moves it. On
the 2-core Xeon this was written on, its ratio to a fixed oracle solve
varied half as much over 30 s windows as that of a pure-Python loop.

One kernel run is itself noisy, so the scaling pays off only averaged over
many short operations. Labeling scales each label the same way, with the
kernel run inside the labeling worker that made it (workloads.LabelProbe).
Set-up, timed in a fresh interpreter, is scaled by the fastest of three
kernel runs in that interpreter right after it (setup_probe.py).
"""
from __future__ import annotations

import time

import numpy as np

KERNEL_LOOPS = 64
# about the kernel's time on the 2-core Xeon the benchmark was written on
REFERENCE_KERNEL_MS = 10.0

_rng = np.random.default_rng(0)
_MATRICES = [_rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
             for _ in range(8)]
_RHS = _rng.standard_normal(12)


def kernel_ms() -> float:
    """Wall time of the fixed kernel, in ms."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_LOOPS):
        for a in _MATRICES:
            np.maximum(a @ np.linalg.solve(a, _RHS), 0.0).sum()
    return (time.perf_counter() - t0) * 1e3


def scaled(wall: float, before_ms: float, after_ms: float) -> float:
    """A wall time scaled to the reference host by the kernel times taken
    just before and just after it."""
    return wall * REFERENCE_KERNEL_MS / (0.5 * (before_ms + after_ms))


class Probe:
    """Kernel runs at chosen points of a stretch of work. The work between
    two kernel runs is scaled by the mean of the two, and the kernel runs
    themselves are left out of the work."""

    def __init__(self):
        self.marks = []     # (start, end, kernel ms) of each kernel run

    def mark(self) -> None:
        t0 = time.perf_counter()
        ms = kernel_ms()
        self.marks.append((t0, time.perf_counter(), ms))

    def work(self, t0: float, first: int) -> tuple:
        """Wall and scaled ms of the work from t0, which follows mark
        `first`, to the last mark."""
        wall = scaled_ms = 0.0
        start = t0
        for (_, _, k0), (m_start, m_end, k1) in zip(self.marks[first:],
                                                    self.marks[first + 1:]):
            seg = (m_start - start) * 1e3
            wall += seg
            scaled_ms += scaled(seg, k0, k1)
            start = m_end
        return wall, scaled_ms
