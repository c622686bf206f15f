"""Ground-truth slack computation and labeled-dataset generation.

The surrogate inputs fix a canonical layout per relaxation family:

* longitudinal modes: theta = [yield-bound offsets over the horizon,
  0 (position entry), speed, acceleration]; position invariance is exploited
  by storing bounds relative to the vehicle, with the position entry kept in
  the layout.
* lateral mode: theta = [corridor lower bounds, corridor upper bounds,
  speed, lateral error, heading error, steering angle, steering rate].

Each oracle call reconstructs the decoupled subproblem implied by theta
(longitudinal chain s/v/a or lateral chain e_y/e_psi/delta/alpha), solves
the minimal-slack problem, and snaps interior-point center offsets below
snap_tol to an exact zero so feasible instances report a zero slack.

The subproblems are derived, not written out: theta becomes a disturbance
profile (the yield bound, or the corridor plus the stabilizing tube on the
lateral states), and the controller's own stage and terminal rows
(ocp._make_stage_rows / _make_terminal_rows, restricted to the subsystem's
row labels) are evaluated on the iterate embedded into the full state, then
cut down to the subsystem's columns. The lateral chain steps the full
vehicle model on a straight path at constant speed; the longitudinal chain
is linear, and its RK4 step is taken in closed form (_lon_discrete).
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import ocp
from .dynamics import NU, NX, VehicleParams
from .environment import NO_BOUND, DisturbanceProfile, lane_bounds
from .ocp import ConstraintStack, HorizonConfig, RelaxationMode, TerminalSets, build_reference
from .path import PathGeometry
from .sqp import STATUS_OPTIMAL, NlpDescription, SolverOptions, SolveReport, solve

SNAP_TOL = 1e-3     # below the dataset's brute-force grid resolution
SIGMA_CAP = 250.0   # relative yield bound treated as unconstrained

# slack problems carry multipliers up to the ceiling scale; starting the
# penalty above that spares most of the escalation ladder on infeasible
# samples without affecting exactness. KKT targets match the labeling
# accuracy actually needed (slacks to the grid resolution), not the
# controller-grade defaults
ORACLE_SOLVER_OPTS = SolverOptions(penalty_init=1e4, penalty_max=1e4,
                                   max_sqp_iter=20, max_ip_iter=50,
                                   ip_stall_limit=10,
                                   tol_stationarity=1e-5,
                                   tol_feasibility=1e-7,
                                   tol_complementarity=1e-6)


@dataclass(frozen=True)
class ScenarioTemplate:
    """Canonical placement of the collision window for one scenario family.

    kind selects the decoupled subsystem the slack problem runs on; stack
    serves both kinds, as the subproblem keeps the subsystem's rows of it.
    v_ref is the cruise reference the subproblem tracks; lane geometry
    serves the lateral corridor rows.
    """
    kind: str                      # "lon" | "lat"
    horizon: HorizonConfig
    params: VehicleParams
    stack: ConstraintStack
    terminal: TerminalSets
    v_ref: float = 20.0
    lane_width: float = 3.5

    def __post_init__(self):
        if self.kind not in ("lon", "lat"):
            raise ValueError("template kind must be 'lon' or 'lat'")

    @property
    def n_window(self) -> int:
        return self.horizon.n_constraint + 1

    @property
    def theta_dim(self) -> int:
        if self.kind == "lon":
            return self.n_window + 3
        return 2 * self.n_window + 5


# ---------------------------------------------------------------------------
# theta construction (shared by the controller and the dataset generator)
# ---------------------------------------------------------------------------


def theta_lon(x: np.ndarray, profile: DisturbanceProfile) -> np.ndarray:
    """Longitudinal surrogate input from the full state and profile."""
    s = x[dyn.IDX_S]
    rel = np.minimum(profile.yield_bound - s, SIGMA_CAP)
    rel = np.where(np.isfinite(rel), rel, SIGMA_CAP)
    return np.concatenate([rel, [0.0, x[dyn.IDX_V], x[dyn.IDX_A]]])


def theta_lat(x: np.ndarray, profile: DisturbanceProfile) -> np.ndarray:
    """Lateral surrogate input from the full state and profile."""
    return np.concatenate([
        profile.corridor_lo, profile.corridor_hi,
        [x[dyn.IDX_V], x[dyn.IDX_EY], x[dyn.IDX_EPSI],
         x[dyn.IDX_DELTA], x[dyn.IDX_ALPHA]]])


def build_theta(template: ScenarioTemplate, x: np.ndarray,
                profile: DisturbanceProfile) -> np.ndarray:
    return theta_lon(x, profile) if template.kind == "lon" else theta_lat(x, profile)


# ---------------------------------------------------------------------------
# decoupled subproblems
# ---------------------------------------------------------------------------


def _lon_discrete(params: VehicleParams, t_s: float):
    """Fourth-order Taylor step of the linear longitudinal chain (s, v, a).

    Equal, to rounding (below 1e-15), to the longitudinal block of the full
    vehicle RK4 step on a straight path with the lateral states at rest;
    the closed form keeps the longitudinal labels reproducible bit for bit.
    """
    L = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, 0.0, -params.accel_tc]])
    Bc = np.array([[0.0], [0.0], [params.accel_tc]])
    # A = sum_{k=0..4} (t_s L)^k / k!
    A = np.eye(3)
    P = np.eye(3)
    fact = 1.0
    for k in range(1, 5):
        P = P @ (t_s * L)
        fact *= k
        A = A + P / fact
    # B = (sum_{k=1..4} t_s^k L^{k-1} / k!) Bc
    Bacc = np.zeros((3, 3))
    P = np.eye(3)
    fact = 1.0
    for k in range(1, 5):
        fact *= k
        Bacc = Bacc + P * (t_s ** k) / fact
        P = P @ L
    B = Bacc @ Bc
    return A, B


# state columns and input column of each decoupled subsystem in the full
# model, with the stack rows it keeps
_SUBSYSTEMS = {"lon": (np.array(dyn.LON_IDX), 1, ocp.LON_ROW_LABELS),
               "lat": (np.array(dyn.LAT_IDX), 0, ocp.LAT_ROW_LABELS)}
_LAT_A = np.ix_(dyn.LAT_IDX, dyn.LAT_IDX)
_LAT_B = np.ix_(dyn.LAT_IDX, (0,))
# the lateral chain runs at constant speed on a straight path; its position
# restarts at 0 on every step, so the path only covers one step's travel
_STRAIGHT = PathGeometry(s=np.array([-1e4, 1e4]),
                         xy=np.array([[-1e4, 0.0], [1e4, 0.0]]),
                         heading=np.zeros(2), curvature=np.zeros(2))


def _subproblem_nlp(template: ScenarioTemplate, theta: np.ndarray,
                    mode: RelaxationMode) -> NlpDescription:
    """Minimal-slack problem of the template's subsystem for one theta.

    The profile implied by theta feeds the controller's own stage and
    terminal rows, restricted to the subsystem's labels; each 3- or 4-state
    iterate is embedded into the full state (other states at rest, or at
    the constant speed for the lateral chain) and the row Jacobians are
    cut down to the subsystem's columns.
    """
    h = template.horizon
    p = template.params
    M = h.n_constraint
    nw = M + 1
    x_idx, u_col, labels = _SUBSYSTEMS[template.kind]
    x_rest = np.zeros(NX)
    tube = np.full(NX, np.inf)

    def embed(x):
        full = x_rest.copy()
        full[x_idx] = x
        return full

    def embed_u(u):
        full = np.zeros(NU)
        full[u_col] = u[0]
        return full

    if template.kind == "lon":
        profile = DisturbanceProfile(
            yield_bound=theta[:nw], corridor_lo=np.full(nw, -np.inf),
            corridor_hi=np.full(nw, np.inf), window=None)
        x0 = theta[nw:nw + 3].copy()
        s0, e_y_ref = x0[0], 0.0
        A_d, B_d = _lon_discrete(p, h.t_s)
        dyn_f = lambda n, x, u: A_d @ x + B_d @ u
        dyn_jac = lambda n, x, u: (A_d, B_d)
    else:
        profile = DisturbanceProfile(
            yield_bound=np.full(nw, NO_BOUND), corridor_lo=theta[:nw],
            corridor_hi=theta[nw:2 * nw], window=None)
        x_rest[dyn.IDX_V] = theta[2 * nw]
        x0 = theta[2 * nw + 1:].copy()
        s0 = 0.0
        e_y_ref = template.lane_width if np.any(profile.corridor_lo > 0.0) else 0.0
        tube[x_idx] = template.terminal.tube[x_idx]

        def dyn_f(n, x, u):
            return dyn.f_discrete(embed(x), embed_u(u), _STRAIGHT, p, h.t_s)[x_idx]

        def dyn_jac(n, x, u):
            A, B = dyn.jacobians(embed(x), embed_u(u), _STRAIGHT, p, h.t_s)
            return A[_LAT_A], B[_LAT_B]

    x_refs, u_refs = build_reference(s0, template.v_ref, e_y_ref, h, p)
    stage = ocp._make_stage_rows(template.stack, profile, mode, None, h,
                                 x_refs, tube, labels)
    terminal = ocp._make_terminal_rows(profile, template.terminal, mode, labels)

    def stage_rows(n, x, u):
        vals, Cx, Cu, Cg = stage(n, embed(x), embed_u(u))
        return vals, Cx.take(x_idx, axis=1), Cu.take([u_col], axis=1), Cg

    def terminal_rows(x):
        vals, Cx, Cg = terminal(embed(x))
        return vals, Cx.take(x_idx, axis=1), Cg

    nx = x_idx.size
    W = np.zeros((M, nx + 1, nx + 1))
    # input tie-break regularization: picks among equivalent inputs without
    # moving the constraint-pinned slack optimum
    W[:, nx, nx] = 1e-4
    ref = np.concatenate([x_refs[:M].take(x_idx, axis=1),
                          u_refs[:, [u_col]]], axis=1)
    q = mode.n_channels
    kw = {}
    if q:
        # constant move blocking holds each channel at one value across the
        # horizon, so the squared-norm objective is the vector scaled by the
        # cost-horizon length. The linear bias keeps at-zero bounds strictly
        # complementary and pins unused channels to zero; constraint-pinned
        # channels are unaffected and flat directions shift by far less than
        # the oracle tolerance
        kw = dict(n_gamma=q, gamma_weight=2.0 * h.n_cost * np.eye(q),
                  gamma_linear=np.full(q, 0.5),
                  gamma_lo=np.zeros(q), gamma_hi=mode.ceiling_vector())
    return NlpDescription(
        nx=nx, nu=1, horizon=M, x0=x0, dyn_f=dyn_f, dyn_jac=dyn_jac,
        cost_W=W, cost_ref=ref, cost_P=np.zeros((nx, nx)),
        cost_ref_M=x_refs[M].take(x_idx), stage_rows=stage_rows,
        terminal_rows=terminal_rows, u_init=u_refs[:, [u_col]], **kw)


def oracle_solve(template: ScenarioTemplate, mode: RelaxationMode,
                 theta: np.ndarray, opts: SolverOptions | None = None
                 ) -> tuple[bool, np.ndarray | None, SolveReport]:
    """Minimal slack for one surrogate input; (feasible, slack, report).

    Slack center offsets below SNAP_TOL collapse to exact zeros, so feasible
    nominal instances report a zero slack vector. A run that ends at the
    iteration cap but with a feasible point still counts as feasible with
    the slack it found; everything else is conservatively infeasible.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (template.theta_dim,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({template.theta_dim},)")
    rep = solve(_subproblem_nlp(template, theta, mode),
                opts or ORACLE_SOLVER_OPTS)
    feasible = rep.status == STATUS_OPTIMAL or (
        rep.status != "infeasible"
        and rep.infeasibility_measure <= 1e-6)
    if not feasible:
        return False, None, rep
    slack = rep.gamma.copy()
    slack[np.abs(slack) < SNAP_TOL] = 0.0
    slack = np.clip(slack, 0.0, mode.ceiling_vector())
    return True, slack, rep


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LonSampler:
    """Parameter ranges for synthetic yield-bound profiles (cut-in shaped)."""
    v0: tuple = (3.0, 28.0)
    a0: tuple = (-6.0, 2.5)
    gap0: tuple = (2.0, 90.0)
    lead_speed: tuple = (0.0, 25.0)
    drop: tuple = (0.0, 35.0)
    drop_start: tuple = (0.0, 70.0)
    drop_len: tuple = (1.0, 25.0)
    lead_speed_after: tuple = (0.0, 20.0)

    names = ("v0", "a0", "gap0", "lead_speed", "drop", "drop_start",
             "drop_len", "lead_speed_after")


@dataclass(frozen=True)
class LatSampler:
    """Parameter ranges for corridor-switch profiles and lateral states."""
    v: tuple = (5.0, 28.0)
    e_y: tuple = (-0.3, 3.8)
    e_psi: tuple = (-0.15, 0.15)
    delta: tuple = (-0.1, 0.1)
    alpha: tuple = (-0.3, 0.3)
    invade_start: tuple = (1.0, 130.0)   # beyond the horizon: no invasion

    names = ("v", "e_y", "e_psi", "delta", "alpha", "invade_start")


def _latin_hypercube(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """Stratified unit-cube samples, one per stratum per dimension."""
    u = (rng.random((count, dims)) + np.arange(count)[:, None]) / count
    for j in range(dims):
        u[:, j] = u[rng.permutation(count), j]
    return u


def _lon_theta_from_params(template: ScenarioTemplate, p: dict) -> np.ndarray:
    M = template.horizon.n_constraint
    t_s = template.horizon.t_s
    n = np.arange(M + 1, dtype=float)
    pre = p["gap0"] + p["lead_speed"] * t_s * n
    j0 = p["drop_start"]
    jlen = max(p["drop_len"], 1e-9)
    ramp = np.clip((n - j0) / jlen, 0.0, 1.0)
    after_start = j0 + jlen
    post_extra = np.maximum(n - after_start, 0.0) * (p["lead_speed_after"] - p["lead_speed"]) * t_s
    sigma = pre - ramp * p["drop"] + post_extra
    sigma = np.minimum(np.maximum(sigma, 0.3), SIGMA_CAP)
    return np.concatenate([sigma, [0.0, p["v0"], p["a0"]]])


def _lat_theta_from_params(template: ScenarioTemplate, p: dict) -> np.ndarray:
    M = template.horizon.n_constraint
    n = np.arange(M + 1, dtype=float)
    invaded = n >= p["invade_start"]
    # the road user invades the right lane; the corridor moves to the left
    right = lane_bounds("right", template.lane_width)
    left = lane_bounds("left", template.lane_width)
    lo = np.where(invaded, left[0], right[0])
    hi = np.where(invaded, left[1], right[1])
    return np.concatenate([lo, hi, [p["v"], p["e_y"], p["e_psi"],
                                    p["delta"], p["alpha"]]])


def sample_thetas(template: ScenarioTemplate, sampler, count: int,
                  seed: int) -> np.ndarray:
    """Deterministic Latin-hypercube draw mapped to theta vectors."""
    rng = np.random.default_rng(seed)
    names = sampler.names
    unit = _latin_hypercube(rng, count, len(names))
    thetas = np.empty((count, template.theta_dim))
    for i in range(count):
        p = {}
        for j, name in enumerate(names):
            lo, hi = getattr(sampler, name)
            p[name] = lo + unit[i, j] * (hi - lo)
        if template.kind == "lon":
            thetas[i] = _lon_theta_from_params(template, p)
        else:
            thetas[i] = _lat_theta_from_params(template, p)
    return thetas


_WORKER_CTX = {}


def _dataset_worker_init(template, mode, opts):
    _WORKER_CTX["template"] = template
    _WORKER_CTX["mode"] = mode
    _WORKER_CTX["opts"] = opts


def _dataset_worker(args):
    i, theta = args
    feasible, slack, _ = oracle_solve(_WORKER_CTX["template"],
                                      _WORKER_CTX["mode"], theta,
                                      _WORKER_CTX["opts"])
    return i, bool(feasible), slack


def generate_dataset(template: ScenarioTemplate, mode: RelaxationMode,
                     count: int, seed: int, sampler=None,
                     opts: SolverOptions | None = None,
                     workers: int | None = None):
    """Labeled samples (theta, feasible, slack) for one relaxation mode.

    Samples are independent, so labeling fans out over worker processes;
    results are reassembled by sample index, keeping the dataset identical
    regardless of worker count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if sampler is None:
        sampler = LonSampler() if template.kind == "lon" else LatSampler()
    thetas = sample_thetas(template, sampler, count, seed)

    if workers is None:
        workers = os.cpu_count() or 1
    results = [None] * count
    if workers > 1 and count > 8:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ctx.Pool(workers, initializer=_dataset_worker_init,
                      initargs=(template, mode, opts)) as pool:
            for i, feasible, slack in pool.imap_unordered(
                    _dataset_worker, list(enumerate(thetas)), chunksize=4):
                results[i] = (feasible, slack)
    else:
        _dataset_worker_init(template, mode, opts)
        for i in range(count):
            _, feasible, slack = _dataset_worker((i, thetas[i]))
            results[i] = (feasible, slack)

    rows = []
    n_feasible = 0
    for i in range(count):
        feasible, slack = results[i]
        n_feasible += int(feasible)
        rows.append((thetas[i], feasible, slack))
    balance = n_feasible / count
    return rows, balance


def save_dataset(rows, filename: str, template: ScenarioTemplate,
                 mode: RelaxationMode, seed: int, balance: float,
                 sampler=None) -> None:
    """CSV with theta/label/slack columns plus a JSON metadata sidecar."""
    d = len(rows[0][0])
    n_ch = mode.n_channels
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"theta_{i}" for i in range(d)] + ["feasible"] + \
                 [f"delta_{c}" for c in mode.channels]
        writer.writerow(header)
        for theta, feasible, slack in rows:
            rec = [repr(float(t)) for t in theta] + [int(feasible)]
            if slack is None:
                rec += [""] * n_ch
            else:
                rec += [repr(float(sv)) for sv in slack]
            writer.writerow(rec)
    meta = {
        "mode": mode.name,
        "priority": mode.priority,
        "kind": template.kind,
        "theta_dim": d,
        "window_len": template.n_window,
        "channels": list(mode.channels),
        "ceilings": [float(c) for c in mode.ceiling_vector()],
        "count": len(rows),
        "seed": seed,
        "feasible_fraction": balance,
        "v_ref": template.v_ref,
        "lane_width": template.lane_width,
        "sampler": {name: list(getattr(sampler, name)) for name in sampler.names}
        if sampler is not None else None,
    }
    with open(filename.rsplit(".", 1)[0] + ".json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_dataset(filename: str):
    """Returns (thetas (n, d), feasible (n,), slacks (n, c) with NaN rows)."""
    with open(filename, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = sum(1 for h in header if h.startswith("theta_"))
        n_ch = sum(1 for h in header if h.startswith("delta_"))
        thetas, feas, slacks = [], [], []
        for rec in reader:
            thetas.append([float(v) for v in rec[:d]])
            feas.append(bool(int(rec[d])))
            tail = rec[d + 1:d + 1 + n_ch]
            if tail and tail[0] != "":
                slacks.append([float(v) for v in tail])
            else:
                slacks.append([np.nan] * n_ch)
    return np.asarray(thetas), np.asarray(feas, dtype=bool), np.asarray(slacks)
