"""Structure-exploiting SQP solver for horizon-shaped nonlinear programs.

Problem class: discrete-time optimal control with quadratic tracking costs,
smooth stage inequality rows, and optionally a small global variable block
(shared slack channels) entering rows linearly and the objective
quadratically.

The problem is described by whole-horizon callbacks: stage rows and
dynamics Jacobians come for every stage in one call, and the stage row
layout is fixed when the problem is built (see NlpDescription), so the
solver groups the rows once per solve. Only the one-stage step dyn_f is
called per stage, by the sequential rollout.

The iterate stores the input trajectory; states follow by forward rollout,
so dynamics hold exactly at every iterate. Each iterate is evaluated once
(rollout, linearized rows, objective): a line-search or polish trial that is
accepted becomes the next iterate together with its rows. Each iteration
linearizes the dynamics, forms the Gauss-Newton quadratic subproblem and
solves it with a Mehrotra predictor-corrector interior-point method. Every
inequality row carries an elastic variable penalized in the l1 sense, which
keeps the subproblem feasible and turns infeasibility detection into penalty
escalation: if the elastics refuse to vanish at the penalty ceiling, the
problem is declared infeasible. The elastics and the inequality slack/dual
pairs are eliminated analytically, reducing each Newton system to the
block-tridiagonal (banded) horizon KKT form, factorized stage-by-stage in a
Riccati sweep with the global block handled through its Schur complement;
cost per iteration is linear in the horizon length. The Python loops of the
sweeps keep only the stage recursion; every product that does not depend
on the previous stage runs as one batched np.matmul before or after them,
with the same operands in the same order, so the sweeps return what plain
per-stage loops return, bit for bit. Batched matmul runs the BLAS kernel
that `@` runs on each stage; np.einsum does not, and its sums would move
the results in the last bits. The row blocks (stage
groups, terminal block, global box) and their products with the Newton
system live in one place, _Rows. Step acceptance uses an Armijo
backtracking line search on the l1 merit function.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max-iter"


TOL_STEP = 1e-8            # step norm below which a step makes no progress
ELASTIC_REG = 1e-8         # quadratic term on elastic variables
CONTROL_REG = 1e-9         # Riccati Quu regularization
IP_TAU = 0.995             # fraction-to-boundary
ARMIJO_C1 = 1e-4
MIN_STEP = 1e-10           # smallest line-search step tried
INFEASIBILITY_TOL = 1e-6   # violation that escalates the penalty
PHASES = ("factorize", "backsolve", "evaluate")


@dataclass
class SolverOptions:
    """Settings that differ between the two kinds of solve.

    The controller solves with the defaults. The oracle labels slacks with
    oracle.ORACLE_SOLVER_OPTS: KKT targets matched to the labeling accuracy
    (tolerances), fewer SQP and interior-point iterations and an earlier
    stall exit (iteration caps) and one fixed penalty above the slack
    problems' multiplier scale (penalty bounds). Every other setting is a
    module constant.
    """
    tol_stationarity: float = 1e-6
    tol_feasibility: float = 1e-8
    tol_complementarity: float = 1e-8
    max_sqp_iter: int = 50
    max_ip_iter: int = 100
    penalty_init: float = 1e2
    penalty_max: float = 1e8
    ip_stall_limit: int = 25


@dataclass
class SolveReport:
    """Solver outcome at the returned point (us, xs, gamma).

    objective and infeasibility_measure (the largest row violation) belong
    to the returned point. The KKT residuals belong to the last
    linearization point, with the multipliers of its subproblem; they
    follow the usual scaled convention: complementarity is normalized by
    (1 + max multiplier magnitude), so the reported value stays meaningful
    when constraint forces are large.

    phase_s sums the solve's seconds in each of PHASES: the Riccati
    factorizations, the Newton back-solves, and the evaluation (rollout,
    rows and objective) of every iterate and trial point. Like wall_time
    it varies from run to run."""
    status: str
    us: np.ndarray
    xs: np.ndarray
    gamma: np.ndarray
    objective: float
    stationarity: float
    primal_infeasibility: float
    complementarity: float
    sqp_iterations: int
    ip_iterations: int
    wall_time: float
    infeasibility_measure: float
    phase_s: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "stationarity": self.stationarity,
            "primal_infeasibility": self.primal_infeasibility,
            "complementarity": self.complementarity,
            "sqp_iterations": self.sqp_iterations,
            "ip_iterations": self.ip_iterations,
            "wall_time": self.wall_time,
            "infeasibility_measure": self.infeasibility_measure,
            "phase_s": dict(self.phase_s),
        }


# Row providers, vals <= 0 meaning satisfied. Stage rows come for the whole
# horizon in one call: stage_rows(xs (M, nx), us (M, nu)) returns
# (vals (M, m), C (M, m, nx+nu), G (M, m, n_gamma) or None), with C the
# Jacobian wrt (x, u) and G the one wrt the global block. Which of the m rows
# exist at each stage is fixed for the problem by stage_row_mask (M, m); the
# values of the other rows are ignored.
# terminal_rows(x_M) returns (vals, Cx, Cg), Cg None without a global block.
StageRowFn = Callable[[np.ndarray, np.ndarray], tuple]
TerminalRowFn = Callable[[np.ndarray], Optional[tuple]]


@dataclass
class NlpDescription:
    """Horizon-structured NLP with an optional shared slack block.

    cost_W[n] is the (nx+nu)^2 quadratic weight at stage n around
    cost_ref[n]; cost_P / cost_ref_M the terminal state quadratic. The
    global block gamma enters rows via their G columns, the objective via
    gamma_weight, and is boxed by [gamma_lo, gamma_hi]. dyn_f(n, x, u)
    steps one stage, as the rollout is sequential; dyn_jac(xs, us) returns
    the Jacobians (A (M, nx, nx), B (M, nx, nu)) of every stage at once.
    """
    nx: int
    nu: int
    horizon: int
    x0: np.ndarray
    dyn_f: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    dyn_jac: Callable[[np.ndarray, np.ndarray], tuple]
    cost_W: np.ndarray
    cost_ref: np.ndarray
    cost_P: np.ndarray
    cost_ref_M: np.ndarray
    stage_rows: StageRowFn | None = None
    stage_row_mask: np.ndarray | None = None
    terminal_rows: TerminalRowFn | None = None
    n_gamma: int = 0
    gamma_weight: np.ndarray | None = None
    gamma_linear: np.ndarray | None = None
    gamma_lo: np.ndarray | None = None
    gamma_hi: np.ndarray | None = None
    u_init: np.ndarray | None = None
    gamma_init: np.ndarray | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.cost_W = np.asarray(self.cost_W, dtype=float)
        self.cost_ref = np.asarray(self.cost_ref, dtype=float)
        self.cost_P = np.asarray(self.cost_P, dtype=float)
        self.cost_ref_M = np.asarray(self.cost_ref_M, dtype=float)
        if self.n_gamma:
            self.gamma_weight = np.asarray(self.gamma_weight, dtype=float)
            if self.gamma_linear is None:
                self.gamma_linear = np.zeros(self.n_gamma)
            self.gamma_linear = np.asarray(self.gamma_linear, dtype=float)
            self.gamma_lo = np.asarray(self.gamma_lo, dtype=float)
            self.gamma_hi = np.asarray(self.gamma_hi, dtype=float)
        if self.stage_rows is not None and self.stage_row_mask is None:
            raise ValueError("stage_rows needs its stage_row_mask")


class _Layout:
    """Stage row layout of one problem, fixed for the whole solve.

    Rows are numbered stage by stage. Stages with the same row pattern form
    one group, in the order of their first stage, so the hot row operations
    run as batched tensor products over C-contiguous (k, m, nz) blocks.
    """

    def __init__(self, nlp: NlpDescription):
        self.mask = (np.zeros((nlp.horizon, 0), dtype=bool)
                     if nlp.stage_rows is None
                     else np.asarray(nlp.stage_row_mask, dtype=bool))
        counts = self.mask.sum(axis=1)
        starts = np.concatenate([[0], np.cumsum(counts)])
        self.n_rows = int(starts[-1])
        patterns = {}
        for n in np.flatnonzero(counts):
            patterns.setdefault(self.mask[n].tobytes(), []).append(n)
        self.groups = []      # (stages (k,), columns (m,), row_idx (k, m))
        for stages in patterns.values():
            stages = np.array(stages)
            cols = np.flatnonzero(self.mask[stages[0]])
            self.groups.append((stages, cols,
                                starts[stages][:, None] + np.arange(cols.size)))


class _Rows:
    """Linearized inequality rows at one point, flattened across the horizon,
    and the products of their Jacobians with the Newton system.

    Stage blocks come grouped as the layout groups them, so the hot row
    operations run as batched tensor products; the terminal block and the
    global box keep their own slices into the flat value/dual arrays.
    """

    def __init__(self, nlp: NlpDescription, layout: _Layout, xs, us, gamma):
        q = nlp.n_gamma
        vals = []
        self.groups = []      # (stage_idx (k,), row_idx (k, m), C (k,m,nz), G)
        if nlp.stage_rows is not None:
            v, C, G = nlp.stage_rows(xs[:-1], us)
            if q:
                G = np.zeros(v.shape + (q,)) if G is None else G
                v = v + G @ gamma     # rows are affine in the global block
            vals.append(v[layout.mask])
            for stages, cols, ridx in layout.groups:
                sel = (stages[:, None], cols)
                self.groups.append((stages, ridx, C[sel], G[sel] if q else None))
        pos = layout.n_rows

        self.term = None      # (slice, Cx (m, nx), G)
        if nlp.terminal_rows is not None:
            out = nlp.terminal_rows(xs[-1])
            if out is not None:
                v, Cx, Cg = out
                v = np.asarray(v, dtype=float)
                if v.size:
                    G = None
                    if q:
                        G = (np.zeros((v.size, q)) if Cg is None
                             else np.asarray(Cg, dtype=float))
                        v = v + G @ gamma
                    vals.append(v)
                    self.term = (slice(pos, pos + v.size),
                                 np.asarray(Cx, dtype=float), G)
                    pos += v.size
        self.glob = None      # (slice, G)
        if q:
            G = np.concatenate([-np.eye(q), np.eye(q)], axis=0)
            v = np.concatenate([nlp.gamma_lo - gamma, gamma - nlp.gamma_hi])
            vals.append(v)
            self.glob = (slice(pos, pos + 2 * q), G)
            pos += 2 * q
        self.n_rows = pos
        self.vals = np.concatenate(vals) if vals else np.zeros(0)

    def violation_l1(self) -> float:
        return float(np.sum(np.maximum(self.vals, 0.0)))

    def violation_inf(self) -> float:
        return float(np.max(np.maximum(self.vals, 0.0))) if self.n_rows else 0.0

    # Each block keeps its own reduction (einsum for the stage groups,
    # matmul for the terminal block and the global box): folding one block
    # into another would reorder the sums and move the results in the last
    # bits.
    def product(self, w, wM, dgamma) -> np.ndarray:
        """C w + G dgamma per row, w (M, nz) the stage steps, wM the
        terminal state step."""
        out = np.zeros(self.n_rows)
        for stages, ridx, C, G in self.groups:
            prod = np.einsum("kmi,ki->km", C, w[stages])
            if G is not None:
                prod = prod + G @ dgamma
            out[ridx] = prod
        if self.term is not None:
            sl, Cx, G = self.term
            out[sl] = Cx @ wM
            if G is not None:
                out[sl] += G @ dgamma
        if self.glob is not None:
            sl, G = self.glob
            out[sl] = G @ dgamma
        return out

    def add_transpose(self, y, F, F_M, F_g) -> None:
        """F += C'y over the stages, F_M += Cx'y over the terminal block and
        F_g += G'y, all in place."""
        for stages, ridx, C, G in self.groups:
            yr = y[ridx]
            F[stages] += np.einsum("kmi,km->ki", C, yr)
            if G is not None:
                F_g += np.einsum("kmj,km->j", G, yr)
        if self.term is not None:
            sl, Cx, G = self.term
            yr = y[sl]
            F_M += Cx.T @ yr
            if G is not None:
                F_g += G.T @ yr
        if self.glob is not None:
            sl, G = self.glob
            F_g += G.T @ y[sl]

    def add_gram(self, D, H, U, P_M, U_M, Gamma) -> None:
        """Row curvature with weights D, in place: C'DC into the stage
        Hessians H and the terminal P_M, C'DG into U and U_M, G'DG into
        Gamma (U, U_M and Gamma are None without a global block)."""
        for stages, ridx, C, G in self.groups:
            Dr = D[ridx]
            H[stages] += np.einsum("kmi,km,kmj->kij", C, Dr, C)
            if G is not None:
                U[stages] += np.einsum("kmi,km,kmj->kij", C, Dr, G)
                Gamma += np.einsum("kmi,km,kmj->ij", G, Dr, G)
        if self.term is not None:
            sl, Cx, G = self.term
            Dr = D[sl]
            P_M += Cx.T @ (Dr[:, None] * Cx)
            if G is not None:
                U_M += Cx.T @ (Dr[:, None] * G)
                Gamma += G.T @ (Dr[:, None] * G)
        if self.glob is not None:
            sl, G = self.glob
            Dr = D[sl]
            Gamma += G.T @ (Dr[:, None] * G)


def _rollout(nlp: NlpDescription, us: np.ndarray) -> np.ndarray:
    xs = np.empty((nlp.horizon + 1, nlp.nx))
    xs[0] = nlp.x0
    for n in range(nlp.horizon):
        xs[n + 1] = nlp.dyn_f(n, xs[n], us[n])
    return xs


def _objective(nlp: NlpDescription, xs, us, gamma) -> float:
    z = np.concatenate([xs[:-1], us], axis=1) - nlp.cost_ref
    total = 0.5 * float(np.einsum("ni,nij,nj->", z, nlp.cost_W, z))
    e = xs[nlp.horizon] - nlp.cost_ref_M
    total += 0.5 * float(e @ nlp.cost_P @ e)
    if nlp.n_gamma:
        total += 0.5 * float(gamma @ nlp.gamma_weight @ gamma)
        total += float(nlp.gamma_linear @ gamma)
    return total


def _cost_gradients(nlp: NlpDescription, xs, us, gamma):
    z = np.concatenate([xs[:-1], us], axis=1) - nlp.cost_ref
    g = np.einsum("nij,nj->ni", nlp.cost_W, z)
    g_M = nlp.cost_P @ (xs[nlp.horizon] - nlp.cost_ref_M)
    g_gamma = (nlp.gamma_weight @ gamma + nlp.gamma_linear) if nlp.n_gamma \
        else np.zeros(0)
    return g, g_M, g_gamma


class _Subproblem:
    """One Gauss-Newton QP: linearization data plus interior-point state."""

    def __init__(self, nlp, xs, us, gamma, rows: _Rows, penalty, opts):
        self.nlp = nlp
        self.rows = rows
        self.opts = opts
        self.penalty = penalty
        M, nx, nu = nlp.horizon, nlp.nx, nlp.nu
        A, B = nlp.dyn_jac(xs[:-1], us)
        self.A = np.ascontiguousarray(A, dtype=float)
        self.B = np.ascontiguousarray(B, dtype=float)
        self.F = np.concatenate([self.A, self.B], axis=2)       # (M, nx, nz)
        self.FT = np.ascontiguousarray(self.F.transpose(0, 2, 1))
        self.g_stage, self.g_term, self.g_gamma = _cost_gradients(nlp, xs, us, gamma)

        m = rows.n_rows
        self.m = m
        self.w = np.zeros((M, nx + nu))   # (dx_n, du_n)
        self.wM = np.zeros(nx)
        self.dgamma = np.zeros(nlp.n_gamma)
        self.lam = np.zeros((M, nx))
        if m:
            viol = np.maximum(rows.vals, 0.0)
            self.t = viol + 0.01
            self.s = self.t - rows.vals       # = -vals + t >= 0.01
            # row dual z lives in (0, penalty + eps*t); the cap's dual
            # z0 = penalty + eps*t - z is derived, never stored independently.
            # a low dual start matches the mostly-inactive row prior
            self.z = np.full(m, min(1.0, 0.5 * penalty))
        else:
            self.t = self.s = self.z = np.zeros(0)

    def stationarity(self):
        """Residuals of the QP stationarity equations at the current point."""
        nlp = self.nlp
        M, nx, q = nlp.horizon, nlp.nx, nlp.n_gamma
        F = np.einsum("nij,nj->ni", nlp.cost_W, self.w) + self.g_stage
        F_M = nlp.cost_P @ self.wM + self.g_term
        F_g = (nlp.gamma_weight @ self.dgamma + self.g_gamma) if q else np.zeros(0)
        self.rows.add_transpose(self.z, F, F_M, F_g)
        # dynamics dual terms
        F[:, nx:] -= np.einsum("nji,nj->ni", self.B, self.lam)
        F[1:, :nx] += self.lam[:-1] - np.einsum("nji,nj->ni", self.A[1:], self.lam[1:])
        F_M += self.lam[M - 1]
        F[0, :nx] = 0.0   # x_0 pinned
        return F, F_M, F_g


def _factorize(sub: _Subproblem, D: np.ndarray) -> dict:
    """Backward Riccati factorization of the reduced Newton system.

    Stage Hessians pick up the barrier-weighted row curvature C'DC; the
    global block couples through C'DG and its Schur complement is
    accumulated alongside. Returns gains and value-function quadratics for
    reuse across the predictor and corrector right-hand sides.

    The loop keeps only what needs the next stage's value function (P,
    Lam): Qzz, Qzg, the gains and the next P and Lam. The Schur complement
    terms Qug' Kg do not feed back into it: they are one batched np.matmul
    after the loop, subtracted from Gamma in the loop's stage order (see
    _subtract_in_order). np.einsum is not used for them: its sums would
    differ from the per-stage products in the last bits.
    """
    nlp = sub.nlp
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma

    H = nlp.cost_W.copy()
    U = np.zeros((M, nx + nu, q)) if q else None
    P_M = nlp.cost_P.copy()
    U_M = np.zeros((nx, q)) if q else None
    Gamma = nlp.gamma_weight.copy() if q else None
    sub.rows.add_gram(D, H, U, P_M, U_M, Gamma)

    F, FT = sub.F, sub.FT
    Qzzs = np.empty((M, nx + nu, nx + nu))
    Quu_invs = np.empty((M, nu, nu))
    Ks = np.empty((M, nu, nx))
    Ps = np.empty((M + 1, nx, nx))
    Ps[M] = P = P_M
    Qzgs = Qugs = Kgs = Lams = None
    if q:
        Qzgs = np.empty((M, nx + nu, q))
        Kgs = np.empty((M, nu, q))
        Lams = np.empty((M + 1, nx, q))
        Lams[M] = Lam = U_M
    for n in range(M - 1, -1, -1):
        Qzz = np.add(H[n], FT[n] @ (P @ F[n]), out=Qzzs[n])
        Qxu = Qzz[:nx, nx:]
        Quu_invs[n] = Quu_inv = _inv_pd(Qzz[nx:, nx:])
        Ks[n] = K = Quu_inv @ Qxu.T
        if q:
            Qzg = np.add(U[n], FT[n] @ Lam, out=Qzgs[n])
            Kgs[n] = Kg = Quu_inv @ Qzg[nx:]
            Lams[n] = Lam = Qzg[:nx] - Qxu @ Kg
        P = Qzz[:nx, :nx] - Qxu @ K
        Ps[n] = P = 0.5 * (P + P.T)
    if q:
        Qugs = Qzgs[:, nx:]
        Gamma = _subtract_in_order(Gamma, np.matmul(Qugs.transpose(0, 2, 1), Kgs))
        Gamma = 0.5 * (Gamma + Gamma.T)
    return {"Ks": Ks, "Kgs": Kgs, "Quu_invs": Quu_invs,
            "Qxus": np.ascontiguousarray(Qzzs[:, :nx, nx:]),
            "Qugs": Qugs, "Ps": Ps, "Lams": Lams, "Gamma": Gamma}


def _subtract_in_order(x, terms):
    """x - terms[M-1] - terms[M-2] - ... - terms[0], one subtraction at a
    time, as a backward sweep over the stages would accumulate it. A
    subtract reduction folds left in order (only add reductions are summed
    pairwise), so the result is the loop's bit for bit."""
    return np.subtract.reduce(np.concatenate([x[None], terms[::-1]]), axis=0)


def _inv_pd(Q):
    """Inverse of the control Hessian 0.5 (Q + Q') + CONTROL_REG I of the
    raw block Q, with a bump fallback where it is not positive definite.

    Blocks of size 1 and 2 are symmetrized and inverted in Python floats,
    with the operations numpy would apply elementwise, so the result is the
    one of the array expression bit for bit at a fraction of its overhead.
    """
    n = Q.shape[0]
    if n == 1:
        v = Q.item()
        v = 0.5 * (v + v) + CONTROL_REG
        return np.array([[1.0 / (v if v > 1e-300 else 1e-300)]])
    if n == 2:
        (a, b), (c, d) = Q.tolist()
        a = 0.5 * (a + a) + CONTROL_REG
        d = 0.5 * (d + d) + CONTROL_REG
        b = c = 0.5 * (b + c) + 0.0     # the identity's zero: -0.0 -> 0.0
        det = a * d - b * c
        if det > 1e-300 and a > 0.0:
            return np.array([[d / det, -b / det], [-c / det, a / det]])
        bump = 1e-12 * max(a + d, 1.0)
        for _ in range(40):
            a2, d2 = a + bump, d + bump
            det = a2 * d2 - b * c
            if det > 1e-300 and a2 > 0.0:
                return np.array([[d2 / det, -b / det], [-c / det, a2 / det]])
            bump *= 10.0
        raise np.linalg.LinAlgError("could not regularize control Hessian")
    Q = 0.5 * (Q + Q.T) + CONTROL_REG * np.eye(n)
    scale = max(float(np.max(np.abs(Q))), 1.0)
    bump = 0.0
    for _ in range(14):
        try:
            cho = np.linalg.cholesky(Q + bump * np.eye(n))
            inv_l = np.linalg.inv(cho)
            return inv_l.T @ inv_l
        except np.linalg.LinAlgError:
            bump = max(2.0 * bump, 1e-12 * scale)
    raise np.linalg.LinAlgError("could not regularize control Hessian")


def _backsolve(sub: _Subproblem, fac: dict, F, F_M, F_g, e: np.ndarray):
    """Solve one Newton system given the shared factorization.

    e are the eliminated-row offsets entering the right-hand side. Returns
    the directions (dw (M,nz), dwM, dgamma, dlam (M,nx)).

    Each sweep's loop keeps only its recursion: the value-function linear
    term p and the gain offset k backwards, the state and input steps
    forwards. What only reads the recursion's results is batched around
    the loops with np.matmul (not np.einsum, whose sums would move the last
    bits): the global-block right-hand side after the backward sweep
    (subtracted in stage order), Kg dgamma before the forward sweep and the
    multiplier steps after it.
    """
    nlp = sub.nlp
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma

    r = -F
    r_M = -F_M
    r_g = -F_g if q else np.zeros(0)
    sub.rows.add_transpose(-e, r, r_M, r_g)

    # backward linear sweep; p_n stores the value-function linear term
    FT, Quu_invs, Qxus = sub.FT, fac["Quu_invs"], fac["Qxus"]
    neg_r = -r
    ks = np.empty((M, nu))
    ps = np.empty((M + 1, nx))
    ps[M] = p = -r_M
    for n in range(M - 1, -1, -1):
        qz = neg_r[n] + FT[n] @ p
        ks[n] = k = Quu_invs[n] @ qz[nx:]
        ps[n] = p = qz[:nx] - Qxus[n] @ k

    dgamma = np.zeros(0)
    if q:
        Qug_k = np.matmul(fac["Qugs"].transpose(0, 2, 1), ks[:, :, None])[:, :, 0]
        dgamma = -np.linalg.solve(fac["Gamma"], _subtract_in_order(-r_g, Qug_k))

    # forward sweep; -k - K dx is -(K dx) - k bit for bit (negation is
    # exact and rounding symmetric)
    Ks, A, B = fac["Ks"], sub.A, sub.B
    neg_ks = -ks
    Kg_dgamma = np.matmul(fac["Kgs"], dgamma) if q else None
    dus = np.empty((M, nu))
    dxs = np.empty((M + 1, nx))
    dxs[0] = dx = np.zeros(nx)
    for n in range(M):
        du = neg_ks[n] - Ks[n] @ dx
        if q:
            du = du - Kg_dgamma[n]
        dus[n] = du
        dxs[n + 1] = dx = A[n] @ dx + B[n] @ du
    lam_next = np.matmul(fac["Ps"][1:], dxs[1:, :, None])[:, :, 0] + ps[1:]
    if q:
        lam_next = lam_next + np.matmul(fac["Lams"][1:], dgamma)
    return np.concatenate([dxs[:-1], dus], axis=1), dx, dgamma, -lam_next


def _timed(phase_s, phase, fn, *args):
    """fn(*args), its seconds added to phase_s[phase]."""
    t0 = time.perf_counter()
    out = fn(*args)
    phase_s[phase] += time.perf_counter() - t0
    return out


def _max_step(pairs, tau):
    alpha = 1.0
    for v, dv in pairs:
        if v.size == 0:
            continue
        neg = dv < 0.0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-tau * v[neg] / dv[neg])))
    return min(alpha, 1.0)


def _ip_solve(sub: _Subproblem, phase_s: dict):
    """Mehrotra predictor-corrector on the elastic Gauss-Newton QP; adds its
    factorize and backsolve seconds to phase_s."""
    nlp, opts = sub.nlp, sub.opts
    M, nx = nlp.horizon, nlp.nx
    m = sub.m
    rho, eps = sub.penalty, ELASTIC_REG

    if m == 0:
        F, F_M, F_g = sub.stationarity()
        fac = _timed(phase_s, "factorize", _factorize, sub, np.zeros(0))
        dw, dxM, dgamma, dlam = _timed(phase_s, "backsolve", _backsolve,
                                       sub, fac, F, F_M, F_g, np.zeros(0))
        sub.w += dw
        sub.wM += dxM
        sub.dgamma += dgamma
        sub.lam += dlam
        return 1

    # converge directly against the report-level KKT targets; the internal
    # linearized-row residual only needs direction-quality accuracy
    thr_stat = 0.25 * opts.tol_stationarity
    thr_compl = 0.25 * opts.tol_complementarity
    thr_prim = 1e-6

    iters = 0
    best_err = np.inf
    best_state = None
    stalled = 0
    for it in range(opts.max_ip_iter):
        iters = it + 1
        s, z, t = sub.s, sub.z, sub.t
        z0 = rho + eps * t - z
        mu = (s @ z + t @ z0) / (2.0 * m)

        cw = sub.rows.product(sub.w, sub.wM, sub.dgamma)
        r1 = (-sub.rows.vals) - cw + t - s
        F, F_M, F_g = sub.stationarity()
        stat_inf = max(float(np.max(np.abs(F))),
                       float(np.max(np.abs(F_M))),
                       float(np.max(np.abs(F_g))) if F_g.size else 0.0)
        prim_inf = float(np.max(np.abs(r1)))
        # row complementarity is measured against the outward-facing duals z;
        # the elastic pair (t, z0) only needs penalty-level tightness
        compl_inf = max(
            float(np.max(s * z)) / (1.0 + float(np.max(z))),
            float(np.max(t * z0)) / (1.0 + rho))
        err = max(stat_inf / thr_stat, prim_inf / thr_prim, compl_inf / thr_compl)
        if err < 0.97 * best_err:
            stalled = 0
        else:
            stalled += 1
        if err < best_err:
            best_err = err
            best_state = (sub.w.copy(), sub.wM.copy(), sub.dgamma.copy(),
                          sub.lam.copy(), s.copy(), t.copy(), z.copy())
        if err <= 1.0:
            break
        if stalled >= opts.ip_stall_limit:
            break

        s_safe = np.maximum(s, 1e-300)
        zcap = z0 + eps * t                       # z0 + eps t > 0 throughout
        # effective row weight of the dual-bounded l1 penalty
        D = np.clip(1.0 / (t / zcap + s / z), 1e-12, 1e10)
        fac = _timed(phase_s, "factorize", _factorize, sub, D)

        def newton(r2, r4):
            e = -D * (r1 + r4 / zcap - r2 / z)
            dw, dxM, dgamma, dlam = _timed(phase_s, "backsolve", _backsolve,
                                           sub, fac, F, F_M, F_g, e)
            cdw = sub.rows.product(dw, dxM, dgamma)
            dz = D * cdw + e
            dt = (r4 + t * dz) / zcap
            ds = (r2 - s * dz) / z
            dz0 = eps * dt - dz
            return dw, dxM, dgamma, dlam, dt, dz, ds, dz0

        # predictor
        aff = newton(-s * z, -t * z0)
        a_aff = _max_step([(s, aff[6]), (t, aff[4]), (z, aff[5]), (z0, aff[7])], 1.0)
        mu_aff = ((s + a_aff * aff[6]) @ (z + a_aff * aff[5])
                  + (t + a_aff * aff[4]) @ (z0 + a_aff * aff[7])) / (2.0 * m)
        sigma = min(max(mu_aff / max(mu, 1e-300), 0.0), 1.0) ** 3
        if stalled >= 3:
            # cycling near degeneracy: force a centering step
            sigma = max(sigma, 0.5)

        # corrector, falling back to plain centering when blocked
        r2 = sigma * mu - s * z - aff[6] * aff[5]
        r4 = sigma * mu - t * z0 - aff[4] * aff[7]
        dw, dxM, dgamma, dlam, dt, dz, ds, dz0 = newton(r2, r4)
        a = _max_step([(s, ds), (t, dt), (z, dz), (z0, dz0)], IP_TAU)
        if a < 0.05 and a < 0.25 * a_aff:
            sigma_c = max(sigma, 0.5)
            dw, dxM, dgamma, dlam, dt, dz, ds, dz0 = newton(
                sigma_c * mu - s * z, sigma_c * mu - t * z0)
            a = _max_step([(s, ds), (t, dt), (z, dz), (z0, dz0)], IP_TAU)

        sub.w += a * dw
        sub.wM += a * dxM
        sub.dgamma += a * dgamma
        sub.s = s + a * ds
        sub.t = t + a * dt
        sub.z = z + a * dz
        sub.lam += a * dlam

    if best_state is not None:
        (sub.w, sub.wM, sub.dgamma, sub.lam,
         sub.s, sub.t, sub.z) = best_state
    return iters


def solve(nlp: NlpDescription, opts: SolverOptions | None = None) -> SolveReport:
    """Run the SQP loop on the given problem and report the outcome."""
    opts = opts or SolverOptions()
    t_start = time.perf_counter()
    M, nu = nlp.horizon, nlp.nu

    us = (np.array(nlp.u_init, dtype=float).reshape(M, nu)
          if nlp.u_init is not None else np.zeros((M, nu)))
    gamma = (np.array(nlp.gamma_init, dtype=float)
             if (nlp.n_gamma and nlp.gamma_init is not None)
             else np.zeros(nlp.n_gamma))
    layout = _Layout(nlp)
    phase_s = dict.fromkeys(PHASES, 0.0)

    def evaluate(us, gamma):
        t0 = time.perf_counter()
        xs = _rollout(nlp, us)
        out = xs, _Rows(nlp, layout, xs, us, gamma), _objective(nlp, xs, us, gamma)
        phase_s["evaluate"] += time.perf_counter() - t0
        return out

    penalty = opts.penalty_init
    total_ip = 0
    status = STATUS_MAX_ITER
    sqp_iters = 0
    xs, rows, obj = evaluate(us, gamma)
    final_kkt = (float("inf"), float("inf"), float("inf"))
    polish_streak = 0

    for it in range(opts.max_sqp_iter):
        sqp_iters = it + 1
        viol1 = rows.violation_l1()
        viol_inf = rows.violation_inf()
        merit = obj + penalty * viol1

        sub = _Subproblem(nlp, xs, us, gamma, rows, penalty, opts)
        total_ip += _ip_solve(sub, phase_s)
        du = sub.w[:, nlp.nx:].copy()
        dgamma = sub.dgamma.copy()

        final_kkt = _nlp_kkt(sub)

        if (viol_inf <= opts.tol_feasibility
                and final_kkt[0] <= opts.tol_stationarity
                and final_kkt[2] <= opts.tol_complementarity):
            status = STATUS_OPTIMAL
            break

        step_norm = max(float(np.max(np.abs(du))) if du.size else 0.0,
                        float(np.max(np.abs(dgamma))) if dgamma.size else 0.0)
        model_viol = float(np.sum(np.maximum(sub.t, 0.0)))

        def stalled_verdict():
            """True to stop; sets status. May escalate the penalty instead."""
            nonlocal penalty, status
            if viol_inf > INFEASIBILITY_TOL:
                if penalty < opts.penalty_max:
                    # violation the subproblem itself cannot remove warrants
                    # the aggressive escalation
                    factor = 100.0 if model_viol >= 0.99 * viol1 else 10.0
                    penalty = min(penalty * factor, opts.penalty_max)
                    return False
                status = STATUS_INFEASIBLE
                return True
            if (final_kkt[0] <= opts.tol_stationarity
                    and final_kkt[2] <= opts.tol_complementarity):
                status = STATUS_OPTIMAL
            return True

        if step_norm <= TOL_STEP:
            if stalled_verdict():
                break
            continue

        # predicted merit reduction of the QP model (includes curvature);
        # nonpositive by construction since (0, current violation) is feasible
        d_obj = (float(np.sum(sub.g_stage * sub.w)) + float(sub.g_term @ sub.wM)
                 + (float(sub.g_gamma @ dgamma) if nlp.n_gamma else 0.0))
        curv = float(np.einsum("ni,nij,nj->", sub.w, nlp.cost_W, sub.w))
        curv += float(sub.wM @ nlp.cost_P @ sub.wM)
        if nlp.n_gamma:
            curv += float(dgamma @ nlp.gamma_weight @ dgamma)
        descent = (d_obj + 0.5 * curv) - penalty * max(viol1 - model_viol, 0.0)

        if viol_inf <= opts.tol_feasibility and step_norm <= 1e-3:
            # watchdog acceptance: small feasible polish steps may raise the
            # merit within noise (Maratos effect) while tightening the KKT.
            # a bounded streak keeps stalled-but-feasible runs from cycling
            if polish_streak >= 3:
                break
            us_try = us + du
            gamma_try = gamma + dgamma if nlp.n_gamma else gamma
            xs_try, rows_try, obj_try = evaluate(us_try, gamma_try)
            merit_try = obj_try + penalty * rows_try.violation_l1()
            if merit_try <= merit + 1e-6 * (1.0 + abs(merit)):
                us, gamma, xs, rows, obj = us_try, gamma_try, xs_try, rows_try, obj_try
                polish_streak += 1
                continue
        polish_streak = 0
        descent = min(descent, -1e-16)

        alpha = 1.0
        accepted = False
        while alpha >= MIN_STEP:
            us_new = us + alpha * du
            gamma_new = gamma + alpha * dgamma if nlp.n_gamma else gamma
            xs_new, rows_new, obj_new = evaluate(us_new, gamma_new)
            merit_new = obj_new + penalty * rows_new.violation_l1()
            if merit_new <= merit + ARMIJO_C1 * alpha * descent:
                us, gamma, xs, rows, obj = us_new, gamma_new, xs_new, rows_new, obj_new
                accepted = True
                break
            alpha *= 0.5
        if accepted and alpha * step_norm <= TOL_STEP:
            # accepted in float terms but no real progress
            if stalled_verdict():
                break
            continue
        if not accepted:
            if stalled_verdict():
                break
            continue
        if (viol_inf > INFEASIBILITY_TOL
                and model_viol >= 0.999 * viol1):
            # restoration converged: the subproblem cannot reduce the
            # violation from here; escalate or declare infeasibility
            if stalled_verdict():
                break
            continue

    return SolveReport(
        status=status,
        us=us, xs=xs, gamma=gamma,
        objective=obj,
        stationarity=final_kkt[0],
        primal_infeasibility=final_kkt[1],
        complementarity=final_kkt[2],
        sqp_iterations=sqp_iters,
        ip_iterations=total_ip,
        wall_time=time.perf_counter() - t_start,
        infeasibility_measure=rows.violation_inf(),
        phase_s=phase_s,
    )


def _nlp_kkt(sub: _Subproblem):
    """KKT residuals of the NLP at the subproblem's linearization point,
    recomputed from primal/dual values alone."""
    nlp, rows, z = sub.nlp, sub.rows, sub.z
    M, nx, q = nlp.horizon, nlp.nx, nlp.n_gamma

    grad = sub.g_stage.copy()
    grad_M = sub.g_term.copy()
    grad_g = sub.g_gamma.copy()
    rows.add_transpose(z, grad, grad_M, grad_g)
    grad_x, grad_u = grad[:, :nx], grad[:, nx:]

    lam = grad_M
    stat = float(np.max(np.abs(grad_g))) if q else 0.0
    for n in range(M - 1, -1, -1):
        su = grad_u[n] + sub.B[n].T @ lam
        stat = max(stat, float(np.max(np.abs(su))))
        if n > 0:
            lam = grad_x[n] + sub.A[n].T @ lam
    if rows.n_rows:
        dual_scale = 1.0 + float(np.max(z))
        compl = float(np.max(np.abs(z * np.minimum(rows.vals, 0.0)))) / dual_scale
    else:
        compl = 0.0
    return stat, rows.violation_inf(), compl
