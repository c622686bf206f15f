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
(ocp._make_stage_rows / _terminal_rows, restricted to the subsystem's
rows of ocp.SUBSYSTEMS, with the row layout they fix) give the subproblem's rows: the
stage rows are evaluated on the iterate embedded into the full state, whole
horizon at once, and cut down to the subsystem's columns; the terminal
rows' columns are cut once. The lateral chain is the lateral block of a
full vehicle-model rollout on a straight path at constant speed; the
longitudinal chain is linear, and its RK4 step is taken in closed form
(_lon_discrete).

Longitudinal samples meet an infeasibility certificate before the SQP. Their
subproblem is affine: the linear chain, the lon rows of ocp.SUBSYSTEMS (all
linear in the state, input and slack), the terminal rows (data) and the
slack box. Its rollout, dynamics Jacobians and rows at u_init therefore
define it exactly, and with every row loosened by LP_MARGIN (1e-4) it
becomes a feasibility LP, solved by HiGHS (scipy.optimize.linprog) in a few
milliseconds. When HiGHS proves that LP infeasible, the sample is labeled
infeasible without running the SQP, whose infeasible verdicts cost two SQP
iterations and some 35 interior-point ones. The certificate cannot move a
label: oracle_solve labels a sample feasible only at a point whose largest
row violation is at most 1e-6, and such a point satisfies every row of the
LP with room to spare, so an LP that no point satisfies proves the SQP's
label infeasible too. Any other LP outcome goes on to the second proof.

Longitudinal samples the LP leaves open meet a zero-slack certificate
(_zero_slack_certified), which proves that a sample's minimal slack is 0.
The lon slack problem is a convex QP: a linear chain, affine rows, a
positive semidefinite input weight and gamma_weight positive definite. The
certificate solves the same problem with the slack block fixed at 0: the
same rows, rollout, cost and u_init, and an empty slack block (q = 0), so
it takes the banded path. Let z be that solve's row duals
(SolveReport.duals). When it ends optimal and every channel's lifted-row
dual sum (E'z)_i is at most gamma_linear_i / 2, the point (u*, gamma = 0)
meets the full problem's KKT conditions: the rows, their duals and the
stationarity in u carry over, and the stationarity in gamma holds with the
slack box's lower multiplier gamma_linear - E'z, which is then positive
(Boyd & Vandenberghe 2004, 5.5.3). A KKT point of a convex problem is a
minimum, and strict convexity in gamma makes 0 the unique minimal slack;
the SQP would find it to within its tolerances, and the label snaps
anything below SNAP_TOL to 0. So the certificate returns the SQP's label,
feasible with a zero slack, without the SQP, which spends some 75 to 120 ms
to find that zero. The factor 1/2 absorbs the duals' error at the solve's
KKT tolerances: over 2000 sampled E1 and E2 labels E'z reaches 0.026 at
most, against 0.25. Any other outcome, and non-finite data (the banded LU
raises on them), runs the SQP as before.

Lateral samples have neither certificate: their dynamics and comfort rows
are nonlinear, so an LP of their linearization proves nothing about them,
and a KKT point of their slack-free problem is only a local one. The SQP's
pinned-row exit settles those whose start state already breaks a row that
neither the input nor the slack moves (the corridor at step 0) in the same
way as the LP: infeasible after 0 iterations, the label the full SQP run
gives, as such a row keeps its violation at every point.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import ocp
from .dynamics import NU, NX, VehicleParams
from .environment import NO_BOUND, DisturbanceProfile, lane_bounds
from .ocp import ConstraintStack, HorizonConfig, RelaxationMode, build_reference
from .path import PathGeometry
from .sqp import (INFEASIBILITY_TOL, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                  NlpDescription, SolverOptions, SolveReport,
                  settled_infeasible, solve)

SNAP_TOL = 1e-3     # below the dataset's brute-force grid resolution
SIGMA_CAP = 250.0   # relative yield bound treated as unconstrained

# slack problems carry multipliers up to the ceiling scale; starting the
# penalty above that spares most of the escalation ladder on infeasible
# samples without affecting exactness. KKT targets match the labeling
# accuracy actually needed (slacks to the grid resolution), not the
# controller-grade defaults. The multiplier certificate stays off until the
# labeling reference is re-recorded: it moves a few labels by ~1e-6 (see
# SolverOptions)
ORACLE_SOLVER_OPTS = SolverOptions(penalty_init=1e4, penalty_max=1e4,
                                   max_sqp_iter=20, max_ip_iter=50,
                                   ip_stall_limit=10,
                                   tol_stationarity=1e-5,
                                   tol_feasibility=1e-7,
                                   tol_complementarity=1e-6,
                                   multiplier_certificate=False)


# how far the longitudinal certificate's LP loosens every row: a hundred
# times the 1e-6 violation a feasible label may keep, and far above HiGHS's
# 1e-7 feasibility tolerance and the rounding of rows of size 1e2 to 1e3
LP_MARGIN = 1e-4

# the decoupled subsystems a slack problem can run on
TEMPLATE_KINDS = tuple(ocp.SUBSYSTEMS)


@dataclass(frozen=True)
class ScenarioTemplate:
    """Canonical placement of the collision window for one scenario family.

    kind selects the decoupled subsystem the slack problem runs on; stack
    serves both kinds, as the subproblem keeps the subsystem's rows of it,
    and its params are the vehicle model the subproblem rolls out. v_ref is
    the cruise reference the subproblem tracks; the lane width places the
    lateral corridors and the lateral reference.
    """
    kind: str                      # "lon" | "lat"
    horizon: HorizonConfig
    stack: ConstraintStack
    v_ref: float
    lane_width: float

    def __post_init__(self):
        if self.kind not in TEMPLATE_KINDS:
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


# the lateral chain runs at constant speed on a straight path: with zero
# curvature the position never feeds back into the lateral states, and the
# path covers the horizon's travel at any sampled speed
_STRAIGHT = PathGeometry(s=np.array([-1e4, 1e4]),
                         xy=np.array([[-1e4, 0.0], [1e4, 0.0]]),
                         heading=np.zeros(2), curvature=np.zeros(2))


def _embed(sub: np.ndarray, idx, rest: np.ndarray) -> np.ndarray:
    """Full-model vectors along the leading axes of sub, which holds their
    entries idx; the other entries are rest's."""
    full = np.empty(sub.shape[:-1] + rest.shape)
    full[...] = rest
    full[..., idx] = sub
    return full


def _subproblem_nlp(template: ScenarioTemplate, theta: np.ndarray,
                    mode: RelaxationMode) -> NlpDescription:
    """Minimal-slack problem of the template's subsystem (ocp.SUBSYSTEMS)
    for one theta, derived as the module docstring says; the states outside
    the subsystem stay at rest, or at the constant speed for the lateral
    chain."""
    h = template.horizon
    p = template.stack.params
    M = h.n_constraint
    nw = M + 1
    x_idx, u_col, labels = ocp.SUBSYSTEMS[template.kind]
    x_idx, u_idx = np.array(x_idx), [u_col]
    x_rest = np.zeros(NX)
    u_rest = np.zeros(NU)
    tube = np.full(NX, np.inf)

    if template.kind == "lon":
        profile = DisturbanceProfile(
            yield_bound=theta[:nw], corridor_lo=np.full(nw, -np.inf),
            corridor_hi=np.full(nw, np.inf))
        x0 = theta[nw:nw + 3].copy()
        s0, e_y_ref = x0[0], 0.0
        A_d, B_d = _lon_discrete(p, h.t_s)

        def dyn_f(us):
            xs = [x0]
            for u in us:
                xs.append(A_d.dot(xs[-1]) + B_d.dot(u))
            return np.array(xs)

        dyn_jac = lambda xs, us: (np.broadcast_to(A_d, (M,) + A_d.shape),
                                  np.broadcast_to(B_d, (M,) + B_d.shape))
    else:
        profile = DisturbanceProfile(
            yield_bound=np.full(nw, NO_BOUND), corridor_lo=theta[:nw],
            corridor_hi=theta[nw:2 * nw])
        x_rest[dyn.IDX_V] = theta[2 * nw]
        x0 = theta[2 * nw + 1:].copy()
        s0 = 0.0
        e_y_ref = template.lane_width if np.any(profile.corridor_lo > 0.0) else 0.0
        tube[x_idx] = ocp.TUBE[x_idx]

        # the full model's rollout, cut to the lateral states: zero
        # curvature keeps s out of them and a = a_req = 0 keeps v constant,
        # so it equals stepping the embedded lateral state alone
        x0_full = _embed(x0, x_idx, x_rest)

        def dyn_f(us):
            return dyn.rollout(x0_full, _embed(us, u_idx, u_rest), _STRAIGHT,
                               p, h.t_s)[:, x_idx]

        def dyn_jac(xs, us):
            A, B = dyn.jacobians(_embed(xs, x_idx, x_rest),
                                 _embed(us, u_idx, u_rest), _STRAIGHT, p, h.t_s)
            return A[:, x_idx[:, None], x_idx], B[:, x_idx[:, None], u_idx]

    x_refs, u_refs = build_reference(s0, template.v_ref, e_y_ref, h)
    stage, mask = ocp._make_stage_rows(template.stack, profile, mode, None, h,
                                       x_refs, tube, labels)
    terminal_C, terminal_offset = ocp._terminal_rows(profile, mode, labels)
    cols = np.append(x_idx, NX + u_col)     # subsystem columns of (x, u)

    def stage_rows(xs, us):
        vals, C, G = stage(_embed(xs, x_idx, x_rest), _embed(us, u_idx, u_rest))
        return vals, C[:, :, cols], G

    nx = x_idx.size
    W = np.zeros((M, nx + 1, nx + 1))
    # input tie-break regularization: picks among equivalent inputs without
    # moving the constraint-pinned slack optimum
    W[:, nx, nx] = 1e-4
    ref = np.concatenate([x_refs[:M].take(x_idx, axis=1),
                          u_refs[:, [u_col]]], axis=1)
    q = mode.n_channels
    # constant move blocking holds each channel at one value across the
    # horizon, so the squared-norm objective is the vector scaled by the
    # cost-horizon length. The linear bias keeps at-zero bounds strictly
    # complementary and pins unused channels to zero; constraint-pinned
    # channels are unaffected and flat directions shift by far less than
    # the oracle tolerance
    return NlpDescription(
        dyn_f=dyn_f, dyn_jac=dyn_jac,
        cost_W=W, cost_ref=ref, cost_P=np.zeros((nx, nx)),
        cost_ref_M=x_refs[M].take(x_idx), stage_rows=stage_rows,
        stage_row_mask=mask, terminal_C=terminal_C.take(x_idx, axis=1),
        terminal_offset=terminal_offset, u_init=u_refs[:, [u_col]],
        gamma_weight=2.0 * h.n_cost * np.eye(q), gamma_linear=np.full(q, 0.5),
        gamma_lo=np.zeros(q), gamma_hi=mode.ceiling_vector())


@dataclass
class OracleReport(SolveReport):
    """oracle_solve's report: the SolveReport of the solve behind the label,
    and proof, what settled the label: "lp" (the infeasibility
    certificate), "zero-slack" (the zero-slack certificate) or "sqp" (the
    SQP on the slack problem, its pinned-row exit included)."""
    proof: str = "sqp"


def _sparse_rows(coef: np.ndarray, cols: np.ndarray, n_var: int):
    """Sparse (R, n_var) matrix whose row r holds coef[r] in the columns
    cols[r], zeros left out."""
    from scipy.sparse import coo_array
    r, i = np.nonzero(coef)
    return coo_array((coef[r, i], (r, cols[r, i])), shape=(coef.shape[0], n_var))


def _lp_certifies_infeasible(nlp: NlpDescription) -> bool:
    """Whether HiGHS proves that no point satisfies every row of nlp
    loosened by LP_MARGIN. Sound for affine problems only, which the
    rollout, dyn_jac and stage_rows at u_init define exactly.

    The LP's variables are the offsets from that point: the states dx_0..dx_M
    (dx_0 fixed at zero), the inputs du and the slack block gamma. The
    dynamics are its equality rows; a row that reads one variable becomes a
    bound on it. Non-finite data certify nothing.
    """
    from scipy.optimize import linprog
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma
    us = nlp.u_init
    xs = nlp.dyn_f(us)
    A, B = nlp.dyn_jac(xs[:-1], us)
    vals, C, G = nlp.stage_rows(xs[:-1], us)
    n_var = (M + 1) * nx + M * nu + q
    # the columns of (x_n, u_n, gamma) at each stage n
    n = np.arange(M)[:, None]
    cols = np.concatenate([n * nx + np.arange(nx),
                           (M + 1) * nx + n * nu + np.arange(nu),
                           np.broadcast_to(n_var - q + np.arange(q), (M, q))],
                          axis=1)

    # rows coef . z <= rhs: the stage rows, then the terminal rows, which
    # read x_M: the columns of the last stage with its state moved on by one
    stage, row = np.nonzero(nlp.stage_row_mask)
    k = nlp.terminal_offset.size
    coef = np.concatenate([
        np.concatenate([C, G], axis=2)[stage, row],
        np.pad(nlp.terminal_C, ((0, 0), (0, nu + q)))])
    x_M = cols[-1] + nx * (np.arange(cols.shape[1]) < nx)
    coef_cols = np.concatenate([cols[stage],
                                np.broadcast_to(x_M, (k, x_M.size))])
    rhs = LP_MARGIN - np.concatenate(
        [vals[stage, row], nlp.terminal_C @ xs[-1] - nlp.terminal_offset])
    if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(rhs))):
        return False

    lo = np.full(n_var, -np.inf)
    hi = np.full(n_var, np.inf)
    lo[:nx] = hi[:nx] = 0.0
    lo[n_var - q:] = nlp.gamma_lo - LP_MARGIN
    hi[n_var - q:] = nlp.gamma_hi + LP_MARGIN
    nonzero = coef != 0.0
    single = nonzero.sum(axis=1) == 1
    j = np.argmax(nonzero[single], axis=1)
    c = coef[single, j]
    var = coef_cols[single, j]
    bound = rhs[single] / c
    np.minimum.at(hi, var[c > 0.0], bound[c > 0.0])
    np.maximum.at(lo, var[c < 0.0], bound[c < 0.0])

    # dx_{n+1} - A_n dx_n - B_n du_n = 0
    dyn_coef = np.concatenate([np.ones((M, nx, 1)), -A, -B], axis=2)
    dyn_cols = np.concatenate(
        [(cols[:, :nx] + nx)[:, :, None],
         np.broadcast_to(cols[:, None, :nx + nu], (M, nx, nx + nu))], axis=2)
    res = linprog(np.zeros(n_var),
                  A_ub=_sparse_rows(coef[~single], coef_cols[~single], n_var),
                  b_ub=rhs[~single],
                  A_eq=_sparse_rows(dyn_coef.reshape(M * nx, -1),
                                    dyn_cols.reshape(M * nx, -1), n_var),
                  b_eq=np.zeros(M * nx), bounds=np.column_stack([lo, hi]),
                  method="highs")
    return res.status == 2      # linprog's code for a proven infeasible LP


def _zero_slack_certified(nlp: NlpDescription) -> OracleReport | None:
    """The report that proves nlp's minimal slack 0 (see the module
    docstring), or None when the proof fails. Sound for the lon slack
    problems only, which are convex QPs.

    It is the report of nlp solved with its slack block fixed at 0 (its
    four slack arrays empty, so the banded path), extended to the point
    (u*, gamma = 0) of nlp: gamma is zeros, and the duals gain the slack
    box's multipliers, gamma_linear + G'z at its lower bound and 0 at its upper
    one. The KKT residuals are the slack-free solve's. Non-finite data
    certify nothing: the banded LU raises on them.
    """
    fixed = dataclasses.replace(nlp, gamma_weight=np.zeros((0, 0)),
                                gamma_linear=np.zeros(0), gamma_lo=np.zeros(0),
                                gamma_hi=np.zeros(0))
    try:
        rep = solve(fixed, ORACLE_SOLVER_OPTS)
    except np.linalg.LinAlgError:
        return None
    if rep.status != STATUS_OPTIMAL:
        return None
    # G = -E, the same at every point: -G'z sums the stage rows' duals over
    # each channel's lifted rows; the terminal rows read no slack
    _, _, G = nlp.stage_rows(rep.xs[:-1], rep.us)
    mask = nlp.stage_row_mask
    box_lo = nlp.gamma_linear + G[mask].T @ rep.duals[:np.count_nonzero(mask)]
    if not np.all(box_lo >= 0.5 * nlp.gamma_linear):
        return None
    q = nlp.n_gamma
    return OracleReport(**{**vars(rep), "gamma": np.zeros(q),
                           "duals": np.concatenate([rep.duals, box_lo,
                                                    np.zeros(q)])},
                        proof="zero-slack")


def oracle_solve(template: ScenarioTemplate, mode: RelaxationMode,
                 theta: np.ndarray) -> tuple[bool, np.ndarray | None, OracleReport]:
    """Minimal slack for one surrogate input; (feasible, slack, report).

    Slack center offsets below SNAP_TOL collapse to exact zeros, so feasible
    nominal instances report a zero slack vector. A run that ends at the
    iteration cap but with a feasible point still counts as feasible with
    the slack it found; everything else is conservatively infeasible.

    A lon sample that the infeasibility certificate settles (see the
    module docstring), and a lat sample that the SQP's pinned-row exit
    settles, report sqp.settled_infeasible's: status infeasible, 0 SQP and
    0 interior-point iterations, the point u_init with its largest row
    violation as infeasibility_measure. A lon sample that the zero-slack
    certificate settles reports its slack-free solve (_zero_slack_certified).
    The report's proof names which of the three settled the label.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (template.theta_dim,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({template.theta_dim},)")
    nlp = _subproblem_nlp(template, theta, mode)
    t_start = time.perf_counter()
    if template.kind == "lon":
        if _lp_certifies_infeasible(nlp):
            rep = settled_infeasible(nlp, t_start)
            return False, None, OracleReport(**vars(rep), proof="lp")
        rep = _zero_slack_certified(nlp) if nlp.n_gamma else None
        if rep is not None:
            return True, np.zeros(nlp.n_gamma), rep
    rep = OracleReport(**vars(solve(nlp, ORACLE_SOLVER_OPTS)), proof="sqp")
    feasible = rep.status == STATUS_OPTIMAL or (
        rep.status != STATUS_INFEASIBLE
        and rep.infeasibility_measure <= INFEASIBILITY_TOL)
    if not feasible:
        return False, None, rep
    slack = rep.gamma.copy()
    slack[np.abs(slack) < SNAP_TOL] = 0.0
    slack = np.clip(slack, 0.0, mode.ceiling_vector())
    return True, slack, rep


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


# Latin-hypercube ranges of the synthetic sample parameters per template
# kind, in draw order: cut-in shaped yield-bound profiles (lon), and
# corridor switches with lateral states (lat)
SAMPLE_RANGES = {
    "lon": {"v0": (3.0, 28.0), "a0": (-6.0, 2.5), "gap0": (2.0, 90.0),
            "lead_speed": (0.0, 25.0), "drop": (0.0, 35.0),
            "drop_start": (0.0, 70.0), "drop_len": (1.0, 25.0),
            "lead_speed_after": (0.0, 20.0)},
    "lat": {"v": (5.0, 28.0), "e_y": (-0.3, 3.8), "e_psi": (-0.15, 0.15),
            "delta": (-0.1, 0.1), "alpha": (-0.3, 0.3),
            "invade_start": (1.0, 130.0)},   # beyond the horizon: no invasion
}


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


def sample_thetas(template: ScenarioTemplate, count: int,
                  seed: int) -> np.ndarray:
    """Deterministic Latin-hypercube draw over the kind's SAMPLE_RANGES,
    mapped to theta vectors."""
    rng = np.random.default_rng(seed)
    ranges = list(SAMPLE_RANGES[template.kind].items())
    unit = _latin_hypercube(rng, count, len(ranges))
    theta_of = (_lon_theta_from_params if template.kind == "lon"
                else _lat_theta_from_params)
    return np.array([
        theta_of(template, {name: lo + u[j] * (hi - lo)
                            for j, (name, (lo, hi)) in enumerate(ranges)})
        for u in unit])


def _label(template, mode, theta):
    feasible, slack, _ = oracle_solve(template, mode, theta)
    return bool(feasible), slack


def generate_dataset(template: ScenarioTemplate, mode: RelaxationMode,
                     count: int, seed: int, workers: int | None = None):
    """Labeled samples (theta, feasible, slack) for one relaxation mode.

    Samples are independent, so labeling fans out over worker processes,
    at most one per sample; `Pool.map` returns the labels in sample order,
    keeping the dataset identical regardless of worker count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    thetas = sample_thetas(template, count, seed)

    if workers is None:
        workers = os.cpu_count() or 1
    if template.kind == "lon":
        # the certificate's LP solver, imported once here rather than in
        # every labeling worker
        import scipy.optimize  # noqa: F401
    label = functools.partial(_label, template, mode)
    if workers > 1 and count > 8:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(min(workers, count)) as pool:
            labels = pool.map(label, thetas, chunksize=4)
    else:
        labels = [label(theta) for theta in thetas]
    rows = [(theta, feasible, slack)
            for theta, (feasible, slack) in zip(thetas, labels)]
    return rows, sum(feasible for feasible, _ in labels) / count


def sidecar_path(filename: str) -> str:
    """The JSON metadata sidecar of the dataset CSV filename, next to it:
    its extension, if any, replaced by .json."""
    return os.path.splitext(filename)[0] + ".json"


def save_dataset(rows, filename: str, template: ScenarioTemplate,
                 mode: RelaxationMode, seed: int, balance: float) -> None:
    """CSV with theta/label/slack columns plus a JSON metadata sidecar
    (sidecar_path)."""
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
        "sampler": {name: list(r)
                    for name, r in SAMPLE_RANGES[template.kind].items()},
    }
    with open(sidecar_path(filename), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_dataset(filename: str):
    """Returns (thetas (n, d), feasible (n,), slacks (n, c) with NaN rows)."""
    with open(filename, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("no header row")
        d = sum(1 for h in header if h.startswith("theta_"))
        n_ch = sum(1 for h in header if h.startswith("delta_"))
        thetas, feas, slacks = [], [], []
        for rec in reader:
            if len(rec) != len(header):
                raise ValueError(f"line {reader.line_num} has {len(rec)} "
                                 f"fields, the header {len(header)}")
            thetas.append([float(v) for v in rec[:d]])
            feas.append(bool(int(rec[d])))
            slacks.append([float(v) if v else np.nan
                           for v in rec[d + 1:d + 1 + n_ch]])
    return np.asarray(thetas), np.asarray(feas, dtype=bool), np.asarray(slacks)
