"""The benchmark's workloads, driven through the public softmpc API.

Closed-loop workloads replay fixed windows of a scenario. Each window
starts from the plant state that the full closed loop reaches at its first
cycle (recorded in the reference) with a fresh controller, so a window
costs only its own cycles. Within a window the loop is the one simkit.run
runs: the same environment profile, the same plant step and the same
full-brake fallback; a cycle that raises counts as failed and the loop goes
on with the fallback input.

The offline workload labels one Latin-hypercube batch with a single
generate_dataset call, as the gen-data command does (worker processes
above eight samples), then trains, certifies and queries the surrogate of
one relaxation mode. A LabelProbe can time every label where it is made,
in the labeling worker, with a host speed kernel run after each.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

BRANCH_RAISED = "raised"
# longest stretch of solver work between two host speed kernel runs
MARK_EVERY_S = 0.25
CERTIFY_PAIRS = 20_000


@dataclass(frozen=True)
class Window:
    start: int          # first cycle index k
    cycles: int


@dataclass(frozen=True)
class ClosedLoop:
    name: str
    scenario: str       # INI file under configs/
    windows: tuple      # of Window


@dataclass(frozen=True)
class OfflineLabel:
    name: str
    scenario: str
    mode: str
    labels: int         # samples in the one generate_dataset call
    seed: int


WORKLOADS = {
    "cutin": ClosedLoop("cutin", "scenario1.ini",
                        (Window(11, 22), Window(67, 17))),
    "evasive": ClosedLoop("evasive", "scenario2.ini", (Window(35, 14),)),
    "offline_label": OfflineLabel("offline_label", "scenario1.ini", "E2",
                                  labels=60, seed=1000),
}


def load_config(workload):
    from softmpc.simkit import load_scenario
    return load_scenario(os.path.join(CONFIGS, workload.scenario))


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


class LoopDriver:
    """Everything a closed-loop window needs that does not depend on the
    window: the scenario, its path and the road-user ground truth."""

    def __init__(self, config):
        from softmpc.path import straight_path
        from softmpc.simkit import CsvTrajectory
        self.config = config
        self.path = straight_path(config.path_length,
                                  lane_width=config.lane_width)
        self.truth = (CsvTrajectory(config.ru_file) if config.ru_file
                      else config.cut_in)

    def initial_state(self) -> np.ndarray:
        from softmpc import dynamics as dyn
        return dyn.state(s=self.config.ego_s0, v=self.config.ego_v0)

    def run(self, x0, k0: int, cycles: int, probe_solves: bool) -> list:
        """Closed loop from state x0 at cycle k0 with a fresh controller.

        Returns one record per cycle: branch, error, applied input, the
        state the cycle started from, hard residual, modes tried and the
        cycle's start and end on time.perf_counter (environment profile
        plus controller step), its time in ms and that time scaled to the
        reference host by the kernel runs around the cycle and, with
        probe_solves, within it (mark_solves); ms leaves those runs out."""
        from softmpc import dynamics as dyn
        from softmpc.environment import build_profile
        from softmpc.simkit import build_controller
        config = self.config
        controller = build_controller(config, use_oracle=True)
        t_s = config.horizon.t_s
        half = 0.5 * config.lane_width
        x = np.array(x0, dtype=float)
        records = []
        probe = hostspeed.Probe()
        probe.mark()
        with (mark_solves(probe) if probe_solves
              else contextlib.nullcontext()):
            for k in range(k0, k0 + cycles):
                ru = (self.truth.state_at(k * t_s, config.ego_s0)
                      if config.with_ru else None)
                ego_lane = "right" if x[dyn.IDX_EY] < half else "left"
                decision, error = None, None
                first = len(probe.marks) - 1
                t0 = time.perf_counter()
                try:
                    profile = build_profile(
                        self.path, ru, config.horizon.n_constraint, t_s,
                        config.growth, controller.stack.d_safe,
                        ego_lane=ego_lane, evasive=config.evasive)
                    decision = controller.step(x, profile)
                except Exception as exc:  # a raising cycle is a failed cycle
                    error = type(exc).__name__
                t1 = time.perf_counter()
                probe.mark()
                ms, scaled_ms = probe.work(t0, first)
                if decision is None or decision.failed:
                    u = np.array([x[dyn.IDX_DELTA], config.params.accel_min])
                else:
                    u = decision.u
                records.append({
                    "k": k,
                    "branch": (BRANCH_RAISED if decision is None
                               else decision.branch),
                    "error": error,
                    "u": [float(v) for v in u],
                    "x": [float(v) for v in x],
                    "hard_residual": (None if decision is None
                                      else float(decision.hard_residual)),
                    "modes_tried": (0 if decision is None
                                    else len(decision.mode_gates)),
                    "t0": t0,
                    "t1": t1,
                    "ms": ms,
                    "scaled_ms": scaled_ms,
                })
                x = dyn.f_discrete(x, u, self.path, config.params, t_s,
                                   project_speed=True)
        return records


@contextlib.contextmanager
def mark_solves(probe):
    """Runs the host speed kernel after every sqp.solve and, within a
    solve, at the first NlpDescription callback that comes MARK_EVERY_S or
    more after the last kernel run, in each softmpc module that imported
    solve. A long solve is thus scaled by the host speed along the way."""
    from softmpc import sqp
    solve = sqp.solve

    def paced(fn):
        def callback(*args, **kwargs):
            if time.perf_counter() - probe.marks[-1][1] >= MARK_EVERY_S:
                probe.mark()
            return fn(*args, **kwargs)
        return callback

    @functools.wraps(solve)
    def marked(nlp, *args, **kwargs):
        nlp = copy.copy(nlp)
        for f in fields(nlp):
            value = getattr(nlp, f.name)
            if callable(value):
                setattr(nlp, f.name, paced(value))
        try:
            return solve(nlp, *args, **kwargs)
        finally:
            probe.mark()

    owners = [(m, attr) for name, m in list(sys.modules.items())
              if m is not None and name.split(".")[0] == "softmpc"
              for attr, val in list(vars(m).items()) if val is solve]
    for m, attr in owners:
        setattr(m, attr, marked)
    try:
        yield
    finally:
        for m, attr in owners:
            setattr(m, attr, solve)


# ---------------------------------------------------------------------------
# offline labeling
# ---------------------------------------------------------------------------


def dataset_sha256(rows) -> str:
    """SHA-256 of the dataset rows as save_dataset writes them."""
    h = hashlib.sha256()
    for theta, feasible, slack in rows:
        rec = [repr(float(t)) for t in theta] + [str(int(feasible))]
        rec += ([""] if slack is None else [repr(float(s)) for s in slack])
        h.update((",".join(rec) + "\n").encode())
    return h.hexdigest()


class LabelProbe:
    """Times every oracle_solve of a generate_dataset call in the process
    that makes it, labeling worker or this one, and runs the host speed
    kernel after each, so that each label is scaled by the kernel runs just
    before and after it on its own core.

    Workers are forked inside generate_dataset after the probe is
    installed, so they inherit the wrapper and write their records into
    shared memory. The kernel runs add about 10 ms per label to the call.
    """

    def __init__(self, labels: int):
        ctx = mp.get_context("fork")
        # per label: its time, the kernel time before and after, in ms
        self.slots = ctx.RawArray("d", 3 * labels)
        self.count = ctx.Value("i", 0)
        self.last_kernel = None     # per process: the kernel run before

    def __enter__(self):
        from softmpc import oracle
        self.original = solve = oracle.oracle_solve
        self.count.value = 0
        self.last_kernel = None

        @functools.wraps(solve)
        def probed(*args, **kwargs):
            if self.last_kernel is None:
                self.last_kernel = hostspeed.kernel_ms()
            t0 = time.perf_counter()
            out = solve(*args, **kwargs)
            ms = (time.perf_counter() - t0) * 1e3
            after = hostspeed.kernel_ms()
            with self.count.get_lock():
                j = self.count.value
                self.count.value += 1
            self.slots[3 * j:3 * j + 3] = [ms, self.last_kernel, after]
            self.last_kernel = after
            return out

        oracle.oracle_solve = probed
        return self

    def __exit__(self, *exc):
        from softmpc import oracle
        oracle.oracle_solve = self.original
        return False

    def records(self) -> list:
        """(label ms, kernel ms before, kernel ms after) of every label."""
        s = self.slots
        return [tuple(s[3 * j:3 * j + 3]) for j in range(self.count.value)]


class OfflineDriver:
    def __init__(self, workload: OfflineLabel, config):
        from softmpc.simkit import scenario_template
        self.workload = workload
        self.config = config
        spec = [s for s in config.mode_specs if s[0].name == workload.mode]
        if not spec:
            raise ValueError(f"no mode {workload.mode} in {workload.scenario}")
        self.mode, kind, _ = spec[0]
        self.template = scenario_template(config, kind)
        self.max_disturbance = float(config.surrogate_kw.get(
            "max_disturbance_lon" if kind == "lon" else "max_disturbance_lat",
            40.0))

    def run(self, workers: int, probe: bool) -> dict:
        """Label, train, certify and query once. The dataset does not
        depend on the number of labeling workers.

        With probe, every label is timed and scaled by a LabelProbe, and
        the steps after labeling by kernel runs before and after them;
        pass_scaled_s is then the pass at the reference host speed."""
        from softmpc.oracle import generate_dataset
        from softmpc.surrogate import (LipschitzBudget, certify,
                                       max_state_step, train_mode_model)
        w, config, mode = self.workload, self.config, self.mode
        t0 = time.perf_counter()
        with (LabelProbe(w.labels) if probe
              else contextlib.nullcontext()) as label_probe:
            rows, _ = generate_dataset(self.template, mode, w.labels, w.seed,
                                       workers=workers)
        label_s = time.perf_counter() - t0
        kernel_before = hostspeed.kernel_ms() if probe else None
        t_rest = time.perf_counter()

        thetas = np.array([r[0] for r in rows])
        feasible = np.array([r[1] for r in rows], dtype=bool)
        slacks = np.array([np.zeros(mode.n_channels) if r[2] is None else r[2]
                           for r in rows])
        step_bound = max_state_step(config.params, config.horizon,
                                    config.params.v_max, n_samples=20_000,
                                    seed=w.seed)
        budget = LipschitzBudget(max_disturbance=self.max_disturbance,
                                 max_state_step=step_bound,
                                 ceilings=mode.ceiling_vector())
        kw = config.surrogate_kw
        t0 = time.perf_counter()
        model = train_mode_model(
            mode.name, mode.channels, mode.ceiling_vector(), thetas,
            feasible, slacks, budget, hidden=tuple(kw.get("hidden", (64, 64))),
            epochs=int(kw.get("epochs", 2000)), seed=w.seed)
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        report = certify(model, n_pairs=CERTIFY_PAIRS, seed=w.seed)
        certify_s = time.perf_counter() - t0
        infer_us = []
        for theta in thetas:
            t0 = time.perf_counter()
            model.infer(theta)
            infer_us.append((time.perf_counter() - t0) * 1e6)
        rest_s = time.perf_counter() - t_rest
        out = {
            "labels": [(bool(f), None if s is None else [float(v) for v in s])
                       for _, f, s in rows],
            "dataset_sha256": dataset_sha256(rows),
            "eps": float(model.eps),
            "certified": bool(report["certified"]
                              and report.get("sampled_within_bound", True)),
            "label_s": label_s,
            "train_s": train_s,
            "certify_s": certify_s,
            "infer_us": infer_us,
        }
        if probe:
            labels = label_probe.records()
            if len(labels) != w.labels:
                raise RuntimeError(f"probe saw {len(labels)} of {w.labels} labels")
            factors = [hostspeed.scaled(1.0, b, a) for _, b, a in labels]
            out["label_scaled_ms"] = [ms * f for (ms, _, _), f in
                                      zip(labels, factors)]
            out["pass_scaled_s"] = (
                label_s * sum(factors) / len(factors)
                + hostspeed.scaled(rest_s, kernel_before, hostspeed.kernel_ms()))
        return out
