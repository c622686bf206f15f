"""softmpc benchmark: closed-loop control cycles and offline labeling.

One run measures one workload in one process and prints, as its last line,
a JSON object with the keys correct, attempted, failed and metrics:

    python3 perfbench/run.py --workload cutin --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics with tracing off. --trace 1 runs
a traced pass between two untraced ones and reports the per-layer metrics
plus trace_overhead_frac. --all runs every workload (one process each) and
prints every metric. --record rewrites a workload's reference, --selftest
checks the benchmark's loop against simkit.run.

op_mean_ms is the mean operation time and pass_s the time of one pass over
a workload's operations, both scaled to a reference host speed
(hostspeed.py); the wall times are printed as wall_op_mean_ms and
wall_pass_s. For the closed-loop workloads the operation is a control
cycle. For the offline workload it is one label, timed in the labeling
worker that makes it, and the pass is label plus train plus certify plus
infer. setup_s is the median over fresh interpreters of the set-up time,
each scaled by a kernel run in that interpreter right after it; the wall
median is printed as wall_setup_s. The workloads are fixed
scenario windows and one labeling batch: the seed is accepted and reported,
but the inputs (and so the reference decisions) do not depend on it.
"""
from __future__ import annotations

import os

# pin BLAS threading before numpy is imported anywhere in this process or
# in the processes it starts
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
LEDGER = os.path.join(HERE, "ledger.json")

SETUP_PROBES = 9
U_TOL = 1e-4            # applied inputs [rad, m/s^2] must match this closely
SLACK_TOL = 1e-6        # oracle slack labels
EPS_RTOL = 1e-2         # model error margin, relative
TRACE_SUM_TOL = 0.01    # traced self times against each cycle's wall time
LABEL_WORKERS = min(2, os.cpu_count() or 1)
SELFTEST_CYCLES = 34    # scenario1 cut-in ramp ends at 3.4 s


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


if not os.path.isfile(os.path.join(SRC, "softmpc", "__init__.py")):
    fail(f"softmpc sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SQP_CALLERS = ("nominal", "relaxed", "oracle_lon", "oracle_lat")
CALLBACK_FIELDS = ("stage_rows", "terminal_rows", "dyn_f", "dyn_jac")


# ---------------------------------------------------------------------------
# environment and reference
# ---------------------------------------------------------------------------


def environment(workers: int = LABEL_WORKERS) -> dict:
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": sha,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "labeling_workers": workers}


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str) -> dict:
    path = reference_path(name)
    if not os.path.isfile(path):
        fail(f"no reference for {name}; record one with --record {name}")
    with open(path) as fh:
        return json.load(fh)


def load_ledger(name: str) -> list:
    with open(LEDGER) as fh:
        return [e for e in json.load(fh) if e["workload"] == name]


def ledger_observed(entry: dict, records: list) -> bool:
    """Whether a known defect still shows in this run's cycles."""
    lo, hi = entry["cycles"]
    span = [r for r in records if lo <= r["k"] <= hi]
    if len(span) != hi - lo + 1:
        return False
    kind = entry["check"]
    if kind == "branch":
        return all(r["branch"] == entry["branch"] for r in span)
    if kind == "error":
        return all(r["error"] == entry["error"] for r in span)
    if kind == "creep":
        # standing still (v = 0) while s moves backwards cycle after cycle
        from softmpc.dynamics import IDX_S, IDX_V
        ds = np.diff([r["x"][IDX_S] for r in span])
        return (all(r["x"][IDX_V] == 0.0 for r in span)
                and bool(np.all(ds < -entry["min_step_m"])))
    raise ValueError(f"unknown ledger check {kind}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def closed_loop_pass(driver, reference, probe_solves) -> list:
    records = []
    for win in reference["windows"]:
        records += driver.run(win["x0"], win["start"], len(win["cycles"]),
                              probe_solves)
    return records


def check_closed_loop(reference, records, hard_row_tol):
    ref_cycles = [c for win in reference["windows"] for c in win["cycles"]]
    drift = stats.compare_cycles(ref_cycles, records, U_TOL)
    failed = [bool(d) or stats.cycle_failed(r, hard_row_tol)
              for r, d in zip(records, drift)]
    return drift, failed


def check_offline(reference, out):
    drift = stats.compare_labels(reference["labels"], out["labels"], SLACK_TOL)
    model_ok = (out["certified"] and abs(out["eps"] - reference["eps"])
                <= EPS_RTOL * abs(reference["eps"]))
    return drift, model_ok


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def cycle_summary(records) -> dict:
    """Per-cycle view of a closed-loop pass: printed, not gated."""
    ms = [r["ms"] for r in records]
    out = {"cycle_p50_ms": metric(stats.median(ms), "ms"),
           "cycle_mean_ms": metric(sum(ms) / len(ms), "ms")}
    tail = stats.tail_percentile(len(ms))
    if tail is not None and tail > 50.0:
        out[f"cycle_p{tail:g}_ms"] = metric(stats.percentile(ms, tail), "ms")
    nominal = [r["ms"] for r in records if r["branch"] == "nominal"]
    escalated = [r["ms"] for r in records
                 if r["branch"] not in ("nominal", workloads.BRANCH_RAISED)]
    for label, sel in (("nominal", nominal), ("escalated", escalated)):
        if len(sel) >= stats.MIN_BRANCH_CYCLES:
            out[f"{label}_cycle_p50_ms"] = metric(stats.median(sel), "ms")
    return out


def timed_pass(run_pass):
    t0 = time.perf_counter()
    out = run_pass()
    return time.perf_counter() - t0, out


def measure(run_pass, seconds, trace):
    """Untraced passes as (seconds, output): at least one, and another only
    while it is expected to end within `seconds`. With trace, one traced
    pass runs between two untraced ones, so that its overhead can be told
    apart from the untraced passes' own spread; returns the untraced passes
    and (tracer, seconds, output) of the traced one."""
    if trace:
        first = timed_pass(run_pass)
        tracer = Tracer()
        with tracer:
            traced_s, out = timed_pass(run_pass)
        return [first, timed_pass(run_pass)], (tracer, traced_s, out)
    passes = []
    t_run = time.perf_counter()
    while True:
        passes.append(timed_pass(run_pass))
        if time.perf_counter() - t_run + passes[-1][0] > seconds:
            return passes, None


def run_closed_loop(config, reference, seconds, trace):
    from softmpc.controller import HARD_ROW_TOL
    driver = workloads.LoopDriver(config)

    def run_pass():
        return closed_loop_pass(driver, reference, probe_solves=not trace)
    passes, traced = measure(run_pass, seconds, trace)
    all_records = [r for _, recs in passes for r in recs]
    failed, drifts = 0, []
    for _, recs in passes:
        drift, fl = check_closed_loop(reference, recs, HARD_ROW_TOL)
        failed += sum(fl)
        drifts += [f"k={r['k']}: {d}" for r, d in zip(recs, drift) if d]
    ms = [r["ms"] for r in all_records]
    summary = cycle_summary(all_records)
    summary["deadline_miss_frac"] = metric(
        sum(m > config.horizon.t_s * 1e3 for m in ms) / len(ms), "frac")
    summary["failed_frac"] = metric(
        stats.failed_fraction(failed, len(all_records)), "frac")
    summary["wall_op_mean_ms"] = metric(sum(ms) / len(ms), "ms")
    summary["wall_pass_s"] = metric(stats.median(
        [sum(r["ms"] for r in recs) / 1e3 for _, recs in passes]), "s")
    scaled = [r["scaled_ms"] for r in all_records]
    result = {"attempted": len(all_records), "failed": failed,
              "drifts": drifts, "passes": len(passes), "summary": summary,
              "e2e": {"op_mean_ms": metric(sum(scaled) / len(scaled), "ms"),
                      "pass_s": metric(stats.median(
                          [sum(r["scaled_ms"] for r in recs) / 1e3
                           for _, recs in passes]), "s")},
              "records": passes[-1][1]}
    if traced:
        tracer, traced_s, records = traced
        drift, _ = check_closed_loop(reference, records, HARD_ROW_TOL)
        result["drifts"] += [f"traced k={r['k']}: {d}"
                             for r, d in zip(records, drift) if d]
        result["traced"] = layer_metrics(
            tracer, records, traced_s, [p for p, _ in passes])
    return result


def run_offline(workload, config, reference, seconds, trace):
    driver = workloads.OfflineDriver(workload, config)
    # spans recorded in labeling worker processes never reach this one, so
    # every pass of a traced run labels in-process
    workers = 1 if trace else LABEL_WORKERS
    passes, traced = measure(lambda: driver.run(workers, probe=not trace),
                             seconds, trace)
    attempted = failed = 0
    drifts = []
    outs = [out for _, out in passes] + ([traced[2]] if traced else [])
    for n, out in enumerate(outs):
        drift, model_ok = check_offline(reference, out)
        where = "traced " if n == len(passes) else ""
        if n < len(passes):
            attempted += len(drift) + 1
            failed += sum(bool(d) for d in drift) + (not model_ok)
        drifts += [f"{where}sample {i}: {d}" for i, d in enumerate(drift) if d]
        if not model_ok:
            drifts.append(f"{where}model: eps {out['eps']:.6g}, "
                          f"certified {out['certified']}")
        if out["dataset_sha256"] != reference["dataset_sha256"]:
            drifts.append(f"{where}dataset sha256 differs")
    label_s = stats.median([o["label_s"] for _, o in passes])
    summary = {
        "label_samples_per_s": metric(workload.labels / label_s, "1/s"),
        "train_s": metric(stats.median([o["train_s"] for _, o in passes]), "s"),
        "certify_s": metric(stats.median([o["certify_s"] for _, o in passes]), "s"),
        "infer_us": metric(stats.median(
            [u for _, o in passes for u in o["infer_us"]]), "us"),
        "failed_frac": metric(stats.failed_fraction(failed, attempted), "frac"),
        "wall_op_mean_ms": metric(label_s / workload.labels * 1e3, "ms"),
        "wall_pass_s": metric(stats.median([p for p, _ in passes]), "s"),
    }
    result = {"attempted": attempted, "failed": failed, "drifts": drifts,
              "passes": len(passes), "summary": summary, "workers": workers,
              "eps": passes[-1][1]["eps"], "records": []}
    if not trace:
        scaled = [ms for _, o in passes for ms in o["label_scaled_ms"]]
        result["e2e"] = {
            "op_mean_ms": metric(sum(scaled) / len(scaled), "ms"),
            "pass_s": metric(stats.median(
                [o["pass_scaled_s"] for _, o in passes]), "s")}
    if traced:
        tracer, traced_s, _ = traced
        result["traced"] = layer_metrics(tracer, [], traced_s,
                                         [p for p, _ in passes])
    return result


def layer_metrics(tracer, records, traced_s, untraced_s) -> dict:
    """Per-layer metrics of one traced pass; untraced_s are the seconds of
    the untraced passes around it."""
    spans = list(tracer.walk())
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def mean_ms(name, scale=1e3):
        got = by_name.get(name, [])
        return sum(s.duration for s in got) / len(got) * scale if got else 0.0

    overhead, noise = stats.trace_overhead(traced_s, untraced_s)
    out = {"trace_overhead_frac": metric(overhead, "frac"),
           "trace_overhead_noise_frac": metric(noise, "frac")}
    solves = by_name.get("sqp.solve", [])
    for caller in SQP_CALLERS:
        # a solve that raised has no report; it counts in the controller
        # metrics but not in the per-solve ones
        mine = [s for s in solves if s.tag == caller and s.error is None]
        n = len(mine)
        iters = sum(s.info["sqp_iters"] for s in mine)
        pre = f"sqp.{caller}."

        def per_solve(total, unit, scale=1e3):
            return metric(total / n * scale if n else 0.0, unit)
        out[pre + "solve_ms"] = per_solve(sum(s.duration for s in mine), "ms")
        out[pre + "self_ms"] = per_solve(sum(s.self_time for s in mine), "ms")
        out[pre + "callbacks_ms"] = per_solve(
            sum(s.callback_time for s in mine), "ms")
        for field in CALLBACK_FIELDS:
            out[pre + field + "_ms"] = per_solve(
                sum(s.callbacks.get(field, (0.0,))[0] for s in mine), "ms")
        out[pre + "sqp_iters"] = per_solve(iters, "count", 1)
        out[pre + "ip_iters"] = per_solve(
            sum(s.info["ip_iters"] for s in mine), "count", 1)
        out[pre + "infeasible_ratio"] = per_solve(
            sum(s.info["status"] == "infeasible" for s in mine), "frac", 1)
        builds = sum(max((v[2] for f, v in s.callbacks.items() if "rows" in f),
                         default=0) for s in mine)
        out[pre + "row_builds_per_iter"] = metric(
            builds / iters if iters else 0.0, "count")

    oracle = by_name.get("oracle.oracle_solve", [])
    for kind in ("lon", "lat"):
        mine = [s for s in oracle if s.info.get("kind") == kind]
        out[f"oracle.oracle_solve.{kind}_ms"] = metric(
            sum(s.duration for s in mine) / len(mine) * 1e3 if mine else 0.0, "ms")
    out["oracle.feasible_ratio"] = metric(
        sum(s.info.get("feasible", False) for s in oracle) / len(oracle)
        if oracle else 0.0, "frac")
    out["oracle.build_theta_ms"] = metric(mean_ms("oracle.build_theta"), "ms")

    steps = by_name.get("controller.step", [])
    ctrl_solves = [s for s in solves if s.tag in ("nominal", "relaxed")]
    applied = sum(s.info.get("branch") not in (None, "failure") for s in steps)
    escalated = [r["modes_tried"] for r in records
                 if r["branch"] not in ("nominal", workloads.BRANCH_RAISED)]
    out["controller.step.self_ms"] = metric(
        sum(s.self_time for s in steps) / len(steps) * 1e3 if steps else 0.0, "ms")
    out["controller.solves_per_cycle"] = metric(
        len(ctrl_solves) / len(steps) if steps else 0.0, "count")
    out["controller.solve_useful_ratio"] = metric(
        applied / len(ctrl_solves) if ctrl_solves else 0.0, "frac")
    out["controller.modes_tried_per_escalation"] = metric(
        sum(escalated) / len(escalated) if escalated else 0.0, "count")

    for name in ("ocp.build_nominal", "ocp.build_relaxed", "ocp.eval_constraints",
                 "environment.build_profile", "environment.consistency_delta",
                 "environment.lane_corridor"):
        out[name + "_ms"] = metric(mean_ms(name), "ms")
    for name in ("surrogate.train_regressor", "surrogate.train_classifier",
                 "surrogate.certify"):
        out[name + "_s"] = metric(mean_ms(name, 1.0), "s")
    out["surrogate.infer_us"] = metric(mean_ms("surrogate.infer", 1e6), "us")

    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        busy[s.layer] += s.self_time + s.callback_time
    for layer in LAYERS:
        out[f"layer.{layer}.self_frac"] = metric(busy[layer] / traced_s, "frac")
    out["layer.harness.self_frac"] = metric(
        1.0 - sum(busy.values()) / traced_s, "frac")

    # each cycle's traced roots (profile and step) must account for the
    # cycle's wall time; with no cycles, each root accounts for itself.
    # Clamping negative self times makes a callback counted on a solve it
    # did not run inside show as excess, and an entry point the tracer
    # misses shows as a shortfall
    if records:
        windows = [(r["t0"], r["t1"]) for r in records]
    else:
        windows = [(s.start, s.end) for s in tracer.roots]
    worst = 0.0
    for t0, t1 in windows:
        inside = [s.accounted_time for s in tracer.roots
                  if t0 <= s.start and s.end <= t1]
        worst = max(worst, stats.trace_sum_error(t1 - t0, inside))
    out["trace_sum_error_frac"] = metric(worst, "frac")
    return out


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def measure_setup(name: str) -> tuple:
    """Median set-up time over fresh interpreters, each timed from before
    `import softmpc` until the first operation of the workload is ready:
    scaled to the reference host by a kernel run in the same interpreter
    right after, and as wall time."""
    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        wall, kernel = map(float, proc.stdout.split()[-2:])
        walls.append(wall)
        scaled.append(hostspeed.scaled(wall, kernel, kernel))
    return stats.median(scaled), stats.median(walls)


# ---------------------------------------------------------------------------
# record and self-test
# ---------------------------------------------------------------------------


def record(name: str) -> None:
    """Rewrite a workload's reference from a run of the current program."""
    workload = workloads.WORKLOADS[name]
    config = workloads.load_config(workload)
    ref = {"workload": name, "recorded_on": environment()}
    if isinstance(workload, workloads.ClosedLoop):
        driver = workloads.LoopDriver(config)
        last = max(w.start for w in workload.windows)
        # the full closed loop from k = 0 gives each window's start state
        lead = driver.run(driver.initial_state(), 0, last + 1, False)
        ref["u_tol"] = U_TOL
        ref["windows"] = []
        for w in workload.windows:
            recs = driver.run(lead[w.start]["x"], w.start, w.cycles, False)
            ref["windows"].append({
                "start": w.start, "x0": lead[w.start]["x"],
                "cycles": [{"k": r["k"], "branch": r["branch"],
                            "error": r["error"], "u": r["u"]} for r in recs]})
            print(f"window k={w.start}..{w.start + w.cycles - 1}: "
                  + " ".join(r["branch"] for r in recs))
            for r in recs:
                if r["k"] < len(lead) and lead[r["k"]]["branch"] != r["branch"]:
                    print(f"note: k={r['k']} takes {r['branch']} in the window "
                          f"but {lead[r['k']]['branch']} in the full loop")
    else:
        out = workloads.OfflineDriver(workload, config).run(LABEL_WORKERS,
                                                         probe=False)
        ref.update({"slack_tol": SLACK_TOL, "eps_rtol": EPS_RTOL,
                    "labels": out["labels"],
                    "dataset_sha256": out["dataset_sha256"],
                    "eps": out["eps"], "certified": out["certified"]})
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(name), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"reference written to {reference_path(name)}")


def selftest() -> int:
    """The benchmark's loop must reproduce simkit.run exactly on a cut-in
    window starting at k = 0."""
    import dataclasses
    from softmpc import simkit
    workload = workloads.WORKLOADS["cutin"]
    config = workloads.load_config(workload)
    t_s = config.horizon.t_s
    short = dataclasses.replace(config, duration=SELFTEST_CYCLES * t_s)
    log = simkit.run(short, use_oracle=True)
    driver = workloads.LoopDriver(config)
    recs = driver.run(driver.initial_state(), 0, SELFTEST_CYCLES, False)
    bad = [r["k"] for r, b, u in zip(recs, log.branches, log.inputs)
           if r["branch"] != b or r["u"] != [float(v) for v in u]]
    print(f"selftest: {len(recs)} cycles, branches "
          + "".join(b[0] for b in log.branches)
          + (f", mismatch at k={bad}" if bad else ", identical to simkit.run"))
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    reference = load_reference(name)
    config = workloads.load_config(workload)
    setup_s, wall_setup_s = (None, None) if trace else measure_setup(name)
    if isinstance(workload, workloads.ClosedLoop):
        res = run_closed_loop(config, reference, seconds, trace)
    else:
        res = run_offline(workload, config, reference, seconds, trace)

    print(f"workload {name}  seed {seed}  passes {res['passes']}  "
          f"operations {res['attempted']}  trace {int(trace)}")
    print("env " + json.dumps(environment(res.get("workers", LABEL_WORKERS)),
                              sort_keys=True))
    drifts = res["drifts"]
    correct = not drifts
    tol = (f"|du| <= {U_TOL:g}" if isinstance(workload, workloads.ClosedLoop)
           else f"|dslack| <= {SLACK_TOL:g}, eps within {EPS_RTOL:.0%}, "
           f"certified, same dataset sha256; eps {res['eps']:.6g}")
    print(f"reference ({tol}): "
          + (f"all {res['attempted']} operations match" if correct else
             f"{len(drifts)} drifts, first {drifts[0]}"))
    for entry in load_ledger(name):
        seen = ledger_observed(entry, res["records"])
        print(f"ledger {entry['id']}: "
              + ("still observed" if seen else "NOT observed"))
    if not trace:
        res["summary"]["wall_setup_s"] = metric(wall_setup_s, "s")
    for key, m in res["summary"].items():
        print(f"  {key:28s} {m['value']:12.6g} {m['unit']}")

    if trace:
        metrics = res["traced"]
        overhead = metrics["trace_overhead_frac"]["value"]
        noise = metrics["trace_overhead_noise_frac"]["value"]
        # tracing only adds work: an overhead that does not exceed the
        # untraced passes' spread, negative ones included, is host noise
        print(f"trace overhead {overhead:+.1%}"
              + (" (unresolved: not above the untraced passes' spread "
                 f"{noise:.1%})" if overhead <= noise else
                 f" (untraced passes' spread {noise:.1%})"))
        if metrics["trace_sum_error_frac"]["value"] > TRACE_SUM_TOL:
            print("trace: traced self times do not add up to the cycle time")
            correct = False
    else:
        metrics = dict(res["e2e"], setup_s=metric(setup_s, "s"))
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, as the driver runs them."""
    rc = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))], cwd=ROOT, text=True,
            capture_output=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
    return rc


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--record", metavar="WORKLOAD",
                    choices=sorted(workloads.WORKLOADS),
                    help="rewrite the reference of a workload")
    ap.add_argument("--selftest", action="store_true",
                    help="compare the benchmark loop with simkit.run")
    args = ap.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not args.workload:
        ap.error("--workload, --all, --record or --selftest is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
