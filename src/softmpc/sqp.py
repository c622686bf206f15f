"""Structure-exploiting SQP solver for horizon-shaped nonlinear programs.

Problem class: discrete-time optimal control with quadratic tracking costs,
smooth stage inequality rows, affine terminal rows, and a small global
variable block (shared slack channels) entering rows linearly and the
objective quadratically.

A problem is its arrays (see NlpDescription): every size is read off their
shapes, and a block a problem does not have (no terminal rows, no global
block) is empty, so the solver runs one shape of problem. What depends on
the point is one whole-horizon call each: the rollout, the stage rows and
the dynamics Jacobians. The stage row layout and the affine terminal rows
are fixed when the problem is built, so the solver groups the rows once per
solve.

The iterate stores the input trajectory; states follow by forward rollout,
so dynamics hold exactly at every iterate. Each point is evaluated once
(rollout, linearized rows, objective): the trial that is accepted becomes
the next iterate together with its rows. Each iteration
linearizes the dynamics, forms the Gauss-Newton quadratic subproblem and
solves it with a Mehrotra predictor-corrector interior-point method. Every
inequality row carries an elastic variable penalized in the l1 sense, which
keeps the subproblem feasible and turns infeasibility detection into penalty
escalation: if the elastics refuse to vanish at the penalty ceiling, the
problem is declared infeasible. The elastics and the inequality slack/dual
pairs are eliminated analytically, reducing each Newton system to the
stage-ordered horizon KKT form, whose cost per iteration is linear in the
horizon length. It is solved on one of two paths, chosen by the global
block's size q alone (_ip_solve):
- Without a global block (q = 0: every controller solve and the oracle's
  slack-free solves; any nu), by one banded LU
  (_band_factorize, _band_backsolve): the unknowns are ordered stage by
  stage as (x_n, u_n, mu_n), then x_M, so the KKT matrix is banded with
  kl = ku = 2 nx + nu - 1. Its index pattern is made once per solve
  (_Band, on _Layout). The entries fixed for a QP (the dynamics blocks and
  the -I couplings) are scattered into LAPACK band storage once per QP
  (_Subproblem.band_template), and each IP iteration scatters the Hessian
  blocks into a copy of it; scipy's dgbtrf factors the copy and one dgbtrs
  solves each right-hand side. It solves the same regularized system as the
  Riccati sweep below, in another order of operations, so its directions
  agree with the sweep's to rounding, not bit for bit.
- With a global block (q >= 1: every oracle slack problem, one input:
  NlpDescription accepts no other shape with one), by a Riccati sweep
  factorized stage by stage with the global block handled through its Schur
  complement (_factorize, _backsolve), which inverts the 1x1 control
  Hessian in closed form. The oracle's labels are pinned bit for bit (the
  labeling benchmark checks its dataset's SHA-256), and the
  bordered banded form that would serve the block is not built yet, so
  these solves keep the sweep and its bits. The Python loops of the
  sweeps keep only the stage recursion; every product that does not
  depend on the previous stage runs as one batched np.matmul before or
  after them, with the same operands in the same order, so the sweeps
  return what plain per-stage loops return, bit for bit. Batched matmul
  runs the BLAS kernel that `@` runs on each stage; np.einsum does not,
  and its sums would move the results in the last bits. The products left
  inside the loops that sum two or more terms are ndarray.dot calls: the
  same BLAS call as `@`, with less dispatch per product, which at these
  sizes is most of its cost. The back-solve's products of one term are one
  IEEE multiplication whatever BLAS does, so they run elementwise, on
  Python floats where they are scalars.
The row blocks (stage groups, terminal block, global box; the last two
present in every problem, possibly empty) and their products with the
Newton system live in one place, _Rows. Over the stage
groups, the row products C w and C'y are np.einsum calls, and so is the Gram
C'DC (with C'DG and G'DG) that the Riccati path adds, which keeps the
oracle's labels bit for bit; the banded path, which matches the sweep only
to rounding anyway, adds each group's C'DC with one batched np.matmul.

Step acceptance is one backtracking line search on the l1 merit function,
from the full step down to MIN_STEP. Every trial needs the Armijo decrease
but one: the full step of a small step at a feasible iterate (a polish
step) passes within merit noise, a watchdog against the Maratos effect.

Before the loop, one exit ends a solve at its start point: the pinned-row
exit. A stage-0 row that reads neither the input nor the global block (its
Jacobian columns for them are zero, which NlpDescription's affine contract
makes exact) reads x_0 alone, and dyn_f fixes x_0, so the row has the same
value at every point. When the largest such value exceeds
max(INFEASIBILITY_TOL, tol_feasibility), the largest violation any exit
accepts, no point can end optimal, and the solve returns infeasible at the
start point without a QP (settled_infeasible). A disturbance that leaves the
first state outside its own corridor ends so. The rule is one function,
_pinned_exit; pinned_row_exit asks it of a problem's start point without a
solve, on a rollout the caller gives: the controller asks it before a
relaxation rung's oracle gate, on the rung's problem at the slack ceiling.

The loop has three exits that end a solve or a QP early, all judged by one
KKT verdict (_kkt_met, on the residuals of _nlp_kkt):
- KKT after the QP: the QP's own row duals, taken as the NLP multipliers at
  its linearization point, pass the check. The QP's step is not applied.
- The multiplier certificate: at an iterate a QP step reached, the duals of
  that QP pass the check there (the standard SQP multiplier estimate, Nocedal
  & Wright 2006, ch. 18), so the solve stops before running the next QP.
  The linearization it needs is the one that QP would use.
- The IP stall exit: an interior-point loop that has not improved its best
  KKT error by 3% in ip_stall_limit iterations stops and returns its best
  iterate (Wright 1997, on termination); its duals then serve the two
  checks above.
An iteration that makes no progress meets the one no-progress verdict: its
QP gave no step, the line search accepted no trial or only one too small to
count, the restoration cannot reduce the violation any more, or the fourth
polish step in a row would be tried. Above INFEASIBILITY_TOL the verdict
raises the penalty, or at the penalty ceiling ends the solve infeasible,
unless a step the iteration accepted brought the point within
INFEASIBILITY_TOL, which ends it max-iter; within it the solve ends optimal
if the KKT check passes with that looser violation bound, and max-iter
otherwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import lapack

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max-iter"


TOL_STEP = 1e-8            # step norm below which a step makes no progress
ELASTIC_REG = 1e-8         # quadratic term on elastic variables
CONTROL_REG = 1e-9         # added to the input block of every Newton system
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
    (tolerances), fewer SQP and interior-point iterations (iteration caps),
    one fixed penalty above the slack problems' multiplier scale (penalty
    bounds), a later stall exit and no multiplier certificate. Every other
    setting is a module constant.

    ip_stall_limit ends a QP's interior-point loop after that many
    iterations without a 3% gain on its best KKT error, returning the best
    iterate (the stall exit). The controller's QPs mostly stall on row
    complementarity with every other residual far below its target; ending
    them after 6 such iterations instead of 25 moves the shipped configs'
    applied inputs by at most 7e-6.

    multiplier_certificate lets solve stop at an accepted iterate before
    its QP when the previous QP's row duals already pass the KKT check there
    (the multiplier certificate). The oracle turns it off: with it, 3 of 60
    labels of the benchmark's labeling batch move, the first by |dslack|
    1.34e-6, beyond the 1e-6 its recorded reference allows. The oracle keeps
    the two-QP exit until that reference is re-recorded; then this field
    goes.
    """
    tol_stationarity: float = 1e-6
    tol_feasibility: float = 1e-8
    tol_complementarity: float = 1e-8
    max_sqp_iter: int = 50
    max_ip_iter: int = 100
    penalty_init: float = 1e2
    penalty_max: float = 1e8
    ip_stall_limit: int = 6
    multiplier_certificate: bool = True


@dataclass
class SolveReport:
    """Solver outcome at the returned point (us, xs, gamma).

    objective and infeasibility_measure (the largest row violation) belong
    to the returned point. The KKT residuals belong to the last
    linearization point, with the multipliers of the last KKT check there:
    after the multiplier certificate, the point returned and the duals of
    the QP whose step reached it; after every other exit, the QP solved
    there (its best iterate if it stalled) and its own duals. They
    follow the usual scaled convention: complementarity is normalized by
    (1 + max multiplier magnitude), so the reported value stays meaningful
    when constraint forces are large. sqp_iterations counts linearization
    points, so an exit by the certificate counts as an iteration that ran
    no QP; ip_iterations counts the interior-point iterations of the QPs
    that ran. sqp_iterations = 0 marks a solve settled infeasible before its
    first QP (settled_infeasible): the point returned is the start point,
    and with no linearization point the KKT residuals are inf.

    duals holds the row multipliers of that last KKT check, one per row in
    the solver's order: the stage rows in stage_row_mask order (stage by
    stage, row by row), then the terminal rows, then the global block's box,
    its lower bounds before its upper ones. It is None when no KKT check
    ran (a settled solve).

    phase_s sums the solve's seconds in each of PHASES: the Newton-system
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
    duals: np.ndarray | None = None

    def to_dict(self) -> dict:
        """Every field but the point (us, xs, gamma) and the duals; phase_s
        copied."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("us", "xs", "gamma", "duals")},
                "phase_s": dict(self.phase_s)}


# Stage rows, vals <= 0 meaning satisfied, come for the whole horizon in
# one call: stage_rows(xs (M, nx), us (M, nu)) returns (vals (M, m),
# C (M, m, nx+nu), G), with C the Jacobian wrt (x, u) and G the one wrt the
# global block, (M, m, q). The sizes are the problem's shapes
# (NlpDescription); G is read only when q >= 1, so without a global block
# None will do. Which of the m rows exist at each stage is fixed for the
# problem by stage_row_mask (M, m); the values of the other rows are ignored.
StageRowFn = Callable[[np.ndarray, np.ndarray], tuple]


@dataclass
class NlpDescription:
    """Horizon-structured NLP with a shared slack block, given by its arrays.

    Every size is read off the arrays: nx off cost_P (nx, nx), the horizon
    M and nz = nx + nu off cost_W (M, nz, nz), and the global block's size
    q off gamma_weight (q, q), when the problem is made; nx, nu, horizon and
    n_gamma hold those reads.
    A block a problem does not have is empty, never None: no terminal rows
    (k = 0) or no global block (q = 0, the default).

    Every problem brings its stage rows (stage_rows and its stage_row_mask,
    (M, 0) for none) and its start plan u_init (M, nu), copied here into a
    float array. A solve starts at u_init with gamma = 0.

    cost_W[n] is the (nx+nu)^2 quadratic weight at stage n around
    cost_ref[n]; cost_P / cost_ref_M the terminal state quadratic. The
    global block gamma enters the stage rows via their G columns, the
    objective via gamma_weight (q, q) and gamma_linear (q,), and is boxed by
    [gamma_lo, gamma_hi] (q,). dyn_f(us (M, nu)) returns the rollout
    xs (M+1, nx) from the problem's fixed start state; dyn_jac(xs, us) the
    Jacobians (A (M, nx, nx), B (M, nx, nu)) of every stage. The k terminal
    rows are data, terminal_C (k, nx) x_M - terminal_offset (k,) <= 0.
    nu >= 1, and nu = 1 whenever q >= 1: a problem without a global
    block (the controller's, nu = 2, and the oracle's slack-free ones,
    nu = 1) takes the banded LU, which serves any nu; one with a global
    block (the oracle's slack problems, nu = 1) takes the Riccati sweep,
    which inverts its 1x1 control Hessian in closed form.

    The stage rows are affine in the inputs and in the global block: their
    Jacobian columns for u and their G do not depend on the point. (ocp's
    rows that read an input are the ocp._LINEAR box rows, and its G is the
    constant -E.) A row whose columns for them are zero at one point thus
    reads the state alone at every point; the pinned-row exit relies on it.
    """
    dyn_f: Callable[[np.ndarray], np.ndarray]
    dyn_jac: Callable[[np.ndarray, np.ndarray], tuple]
    cost_W: np.ndarray
    cost_ref: np.ndarray
    cost_P: np.ndarray
    cost_ref_M: np.ndarray
    stage_rows: StageRowFn
    stage_row_mask: np.ndarray
    u_init: np.ndarray
    terminal_C: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    terminal_offset: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gamma_weight: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    gamma_linear: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gamma_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gamma_hi: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.cost_W = np.asarray(self.cost_W, dtype=float)
        self.cost_P = np.asarray(self.cost_P, dtype=float)
        self.gamma_weight = np.asarray(self.gamma_weight, dtype=float)
        self.horizon, nz, _ = self.cost_W.shape
        self.nx = self.cost_P.shape[0]
        self.nu = nz - self.nx
        self.n_gamma = self.gamma_weight.shape[0]
        if self.nu < 1 or (self.n_gamma and self.nu != 1):
            raise ValueError("nu must be at least 1, and 1 with a global "
                             f"block; got nu={self.nu}, n_gamma={self.n_gamma}")
        self.cost_ref = np.asarray(self.cost_ref, dtype=float)
        self.cost_ref_M = np.asarray(self.cost_ref_M, dtype=float)
        self.u_init = np.array(self.u_init, dtype=float).reshape(
            self.horizon, self.nu)
        self.terminal_offset = np.asarray(self.terminal_offset, dtype=float)
        self.terminal_C = np.asarray(self.terminal_C, dtype=float).reshape(
            self.terminal_offset.size, self.nx)
        q = self.n_gamma
        self.gamma_linear = np.asarray(self.gamma_linear, float).reshape(q)
        self.gamma_lo = np.asarray(self.gamma_lo, float).reshape(q)
        self.gamma_hi = np.asarray(self.gamma_hi, float).reshape(q)


class _Layout:
    """Stage row layout of one problem, fixed for the whole solve.

    Rows are numbered stage by stage. Stages with the same row pattern form
    one group, in the order of their first stage, so the hot row operations
    run as batched tensor products over C-contiguous (k, m, nz) blocks. The
    global box's Jacobian [-I; I] (2q, q) is the same at every point. The
    banded Newton system's index pattern (band) is made at its first use.
    """

    def __init__(self, nlp: NlpDescription):
        self.shape = (nlp.horizon, nlp.nx, nlp.nu)
        q = nlp.n_gamma
        self.box = np.concatenate([-np.eye(q), np.eye(q)], axis=0)
        self.mask = np.asarray(nlp.stage_row_mask, dtype=bool)
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

    @cached_property
    def band(self) -> "_Band":
        return _Band(*self.shape)


class _Band:
    """Index pattern of the banded Newton system of a problem without a
    global block (see _band_factorize).

    The unknowns are ordered stage by stage as (x_n, u_n, mu_n), s = 2 nx + nu
    of them, then x_M: n = M s + nx unknowns, and every coupling lies within
    kl = ku = s - 1 of the diagonal. The matrix is kept in LAPACK's band
    storage for dgbtrf, a Fortran-ordered (2 kl + ku + 1, n) array holding
    entry (i, j) at row kl + ku + i - j of column j. index holds the flat
    memory position in that array of each value _band_factorize scatters,
    in the values' order: the stage Hessians H (M, nz, nz) and the terminal
    P_M (nx, nx). fixed_index holds those of the entries that stay fixed
    for a QP (_Subproblem.band_template): the dynamics blocks F_n =
    [A_n B_n] in the mu_n rows and their transposes in the mu_n columns
    (M, nx, nz each), and the -I that couples mu_n with x_{n+1} in both
    directions (M, nx each). No two entries share a position."""

    def __init__(self, M: int, nx: int, nu: int):
        nz = nx + nu
        s = nz + nx
        self.kl = self.ku = s - 1
        self.ldab = 2 * self.kl + self.ku + 1
        self.n = M * s + nx
        base = np.arange(M)[:, None, None] * s
        z, i = np.arange(nz), np.arange(nx)
        stage = base[:, 0]
        blocks = [(base + z[:, None], base + z),         # H
                  (M * s + i[:, None], M * s + i),       # P_M
                  (base + nz + i[:, None], base + z),    # F_n
                  (base + z, base + nz + i[:, None]),    # F_n'
                  (stage + nz + i, stage + s + i),       # -I, mu_n row
                  (stage + s + i, stage + nz + i)]       # -I, x_{n+1} row
        self.index = self._positions(blocks[:2])
        self.fixed_index = self._positions(blocks[2:])

    def _positions(self, blocks) -> np.ndarray:
        """Flat band-storage positions of the (rows, cols) index blocks."""
        pairs = [np.broadcast_arrays(r, c) for r, c in blocks]
        rows = np.concatenate([r.ravel() for r, _ in pairs])
        cols = np.concatenate([c.ravel() for _, c in pairs])
        return cols * self.ldab + (self.kl + self.ku + rows - cols)


class _Rows:
    """Linearized inequality rows at one point, flattened across the horizon,
    and the products of their Jacobians with the Newton system.

    Stage blocks come grouped as the layout groups them, so the hot row
    operations run as batched tensor products; the terminal block and the
    global box keep their own slices into the flat value/dual arrays, in
    every problem, empty without terminal rows or without a global block.
    A stage group's G is None without a global block: the stage rows need
    not give one then (StageRowFn).
    """

    def __init__(self, nlp: NlpDescription, layout: _Layout, xs, us, gamma):
        self.layout = layout
        q = nlp.n_gamma
        v, C, G = nlp.stage_rows(xs[:-1], us)
        if q:
            v = v + G @ gamma         # rows are affine in the global block
        self.groups = []      # (stage_idx (k,), row_idx (k, m), C (k,m,nz), G)
        for stages, cols, ridx in layout.groups:
            sel = (stages[:, None], cols)
            self.groups.append((stages, ridx, C[sel], G[sel] if q else None))
        pos = layout.n_rows
        k = nlp.terminal_offset.size
        # (slice, Cx (k, nx)) and (slice, G (2q, q))
        self.term = (slice(pos, pos + k), nlp.terminal_C)
        self.glob = (slice(pos + k, pos + k + 2 * q), layout.box)
        self.n_rows = pos + k + 2 * q
        self.vals = np.concatenate([
            v[layout.mask], nlp.terminal_C @ xs[-1] - nlp.terminal_offset,
            nlp.gamma_lo - gamma, gamma - nlp.gamma_hi])

    def violation_l1(self) -> float:
        return float(np.sum(np.maximum(self.vals, 0.0)))

    def violation_inf(self) -> float:
        return float(np.max(self.vals, initial=0.0))

    def pinned_violation(self, nx: int) -> float:
        """Largest value (at least 0) of the stage-0 rows whose Jacobian
        columns for the input and the global block are all zero: rows of
        x_0 alone, the same at every point (see NlpDescription)."""
        if not self.groups or self.groups[0][0][0] != 0:
            return 0.0        # stage 0 has no rows
        _, ridx, C, G = self.groups[0]
        pinned = ~np.any(C[0, :, nx:], axis=1)
        if G is not None:
            pinned &= ~np.any(G[0], axis=1)
        return float(np.max(self.vals[ridx[0][pinned]], initial=0.0))

    # Each block keeps its own reduction (einsum for the stage groups,
    # matmul for the terminal block and the global box): folding one block
    # into another would reorder the sums and move the results in the last
    # bits. The one exception is the stage groups' Gram on the banded path
    # (add_gram), whose solves match the Riccati sweep only to rounding.
    def product(self, w, wM, dgamma) -> np.ndarray:
        """C w + G dgamma per row, w (M, nz) the stage steps, wM the
        terminal state step."""
        out = np.zeros(self.n_rows)
        for stages, ridx, C, G in self.groups:
            prod = np.einsum("kmi,ki->km", C, w[stages])
            if G is not None:
                prod = prod + G @ dgamma
            out[ridx] = prod
        sl, Cx = self.term
        out[sl] = Cx @ wM
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
        sl, Cx = self.term
        F_M += Cx.T @ y[sl]
        sl, G = self.glob
        F_g += G.T @ y[sl]

    def add_gram(self, D, H, U, P_M, Gamma) -> None:
        """Row curvature with weights D, in place: C'DC into the stage
        Hessians H and the terminal P_M, C'DG into U and G'DG into Gamma
        (U is None and Gamma (0, 0) without a global block).

        Without a global block (the banded path) a
        stage group's C'DC is one batched matmul; it sums in BLAS's order,
        not the einsum's, and the banded steps match the sweep's only to
        rounding anyway. With one (the Riccati path, every slack problem)
        the group's sums stay the np.einsum forms the labels were recorded
        with: offline_label checks its dataset's SHA-256.
        """
        for stages, ridx, C, G in self.groups:
            Dr = D[ridx]
            if G is None:
                H[stages] += np.matmul(C.transpose(0, 2, 1),
                                       Dr[:, :, None] * C)
            else:
                H[stages] += np.einsum("kmi,km,kmj->kij", C, Dr, C)
                U[stages] += np.einsum("kmi,km,kmj->kij", C, Dr, G)
                Gamma += np.einsum("kmi,km,kmj->ij", G, Dr, G)
        sl, Cx = self.term
        P_M += Cx.T @ (D[sl][:, None] * Cx)
        sl, G = self.glob
        Gamma += G.T @ (D[sl][:, None] * G)


def _objective(nlp: NlpDescription, xs, us, gamma) -> float:
    z = np.concatenate([xs[:-1], us], axis=1) - nlp.cost_ref
    total = 0.5 * float(np.einsum("ni,nij,nj->", z, nlp.cost_W, z))
    e = xs[nlp.horizon] - nlp.cost_ref_M
    total += 0.5 * float(e @ nlp.cost_P @ e)
    total += 0.5 * float(gamma @ nlp.gamma_weight @ gamma)
    total += float(nlp.gamma_linear @ gamma)
    return total


def _cost_gradients(nlp: NlpDescription, xs, us, gamma):
    z = np.concatenate([xs[:-1], us], axis=1) - nlp.cost_ref
    g = np.einsum("nij,nj->ni", nlp.cost_W, z)
    g_M = nlp.cost_P @ (xs[nlp.horizon] - nlp.cost_ref_M)
    return g, g_M, nlp.gamma_weight @ gamma + nlp.gamma_linear


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
        self.g_stage, self.g_term, self.g_gamma = _cost_gradients(nlp, xs, us, gamma)

        self.m = m = rows.n_rows
        self.w = np.zeros((M, nx + nu))   # (dx_n, du_n)
        self.wM = np.zeros(nx)
        self.dgamma = np.zeros(nlp.n_gamma)
        self.lam = np.zeros((M, nx))
        self.t = np.maximum(rows.vals, 0.0) + 0.01
        self.s = self.t - rows.vals           # = -vals + t >= 0.01
        # row dual z lives in (0, penalty + eps*t); the cap's dual
        # z0 = penalty + eps*t - z is derived, never stored independently.
        # a low dual start matches the mostly-inactive row prior
        self.z = np.full(m, min(1.0, 0.5 * penalty))

    @cached_property
    def band_template(self) -> np.ndarray:
        """The banded Newton system with only its entries that stay fixed
        across the IP iterations, F_n, F_n' and the -I couplings, scattered
        into zeroed band storage (flat; _Band has the layout). Each IP
        iteration factors a copy with H and P_M added. F_0's columns for
        x_0 are zero: x_0 is fixed, so its rows and columns hold the
        identity alone. Raises np.linalg.LinAlgError for a non-finite F."""
        F = self.F.copy()
        F[0, :, :self.nlp.nx] = 0.0
        if not np.all(np.isfinite(F)):
            raise np.linalg.LinAlgError("non-finite banded Newton system")
        band = self.rows.layout.band
        ab = np.zeros(band.n * band.ldab)
        ab[band.fixed_index] = np.concatenate(
            [F.ravel(), F.ravel(), np.full(2 * F.shape[0] * F.shape[1], -1.0)])
        return ab

    def stationarity(self):
        """Residuals of the QP stationarity equations at the current point."""
        nlp = self.nlp
        M, nx = nlp.horizon, nlp.nx
        F = np.einsum("nij,nj->ni", nlp.cost_W, self.w) + self.g_stage
        F_M = nlp.cost_P @ self.wM + self.g_term
        F_g = nlp.gamma_weight @ self.dgamma + self.g_gamma
        self.rows.add_transpose(self.z, F, F_M, F_g)
        # dynamics dual terms
        F[:, nx:] -= np.einsum("nji,nj->ni", self.B, self.lam)
        F[1:, :nx] += self.lam[:-1] - np.einsum("nji,nj->ni", self.A[1:], self.lam[1:])
        F_M += self.lam[M - 1]
        F[0, :nx] = 0.0   # x_0 pinned
        return F, F_M, F_g


def _band_factorize(sub: _Subproblem, D: np.ndarray):
    """LU factors of the Newton system of a problem without a global block,
    as one banded matrix (_Band has its layout): (band, lu, ipiv).

    With the Lagrangian term mu_n'(A_n dx_n + B_n du_n - dx_{n+1}), the rows
    of (x_n, u_n) are stationarity, H_n w_n + F_n' mu_n - mu_{n-1} (x rows
    only), with the stage Hessian H_n = cost_W + C'DC (_Rows.add_gram) and
    CONTROL_REG on its input diagonal: in exact arithmetic the Riccati
    sweep's regularized Q_uu. The rows of mu_n are the linearized dynamics,
    and x_M's rows are P_M dx_M - mu_{M-1}. x_0 is fixed: its rows and
    columns hold the identity alone, so its step is an exact zero. H and
    P_M go with one scatter into a copy of the QP's band_template, which
    holds the rest, and the LAPACK wrapper factors the copy in place.
    Raises np.linalg.LinAlgError for a non-finite band or a singular one
    (dgbtrf info > 0).
    """
    nlp = sub.nlp
    nx = nlp.nx
    H = nlp.cost_W.copy()
    P_M = nlp.cost_P.copy()
    sub.rows.add_gram(D, H, None, P_M, np.zeros((0, 0)))
    H[:, nx:, nx:] += CONTROL_REG * np.eye(nlp.nu)
    H[0, :nx] = H[0, :, :nx] = 0.0
    H[0, :nx, :nx] = np.eye(nx)
    vals = np.concatenate([H.ravel(), P_M.ravel()])
    if not np.all(np.isfinite(vals)):
        raise np.linalg.LinAlgError("non-finite banded Newton system")
    band = sub.rows.layout.band
    ab = sub.band_template.copy()
    ab[band.index] = vals
    lu, ipiv, info = lapack.dgbtrf(ab.reshape(band.n, band.ldab).T,
                                   band.kl, band.ku, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular banded Newton system (dgbtrf info {info})")
    return band, lu, ipiv


def _band_backsolve(sub: _Subproblem, fac, F, F_M, F_g, e: np.ndarray):
    """Solve one Newton system with _band_factorize's factors, one dgbtrs.

    The right-hand side is _backsolve's, e the eliminated-row offsets.
    Returns (dw (M, nz), dwM, dgamma, dlam (M, nx)) in _backsolve's sign
    convention: dgamma is empty and dlam = -mu. F_g is empty and unused."""
    band, lu, ipiv = fac
    nlp = sub.nlp
    M, nx, nz = nlp.horizon, nlp.nx, nlp.nx + nlp.nu
    r, r_M = -F, -F_M
    sub.rows.add_transpose(-e, r, r_M, np.zeros(0))
    b = np.zeros(band.n)
    b[:-nx].reshape(M, nz + nx)[:, :nz] = r
    b[:nx] = 0.0          # x_0 is fixed
    b[-nx:] = r_M
    x, _ = lapack.dgbtrs(lu, band.kl, band.ku, b, ipiv, overwrite_b=1)
    stages = x[:-nx].reshape(M, nz + nx)
    return stages[:, :nz], x[-nx:], np.zeros(0), -stages[:, nz:]


def _factorize(sub: _Subproblem, D: np.ndarray) -> dict:
    """Backward Riccati factorization of the reduced Newton system of a
    problem with a global block (q >= 1) and one input (nu = 1).

    Stage Hessians pick up the barrier-weighted row curvature C'DC; the
    global block couples through C'DG and its Schur complement is
    accumulated alongside. Returns gains and value-function quadratics for
    reuse across the predictor and corrector right-hand sides.

    The loop keeps only what needs the next stage's value function (P,
    Lam): Qzz, Qzg, the gains and the next P and Lam. The Schur complement
    terms Qug' Kg do not feed back into it: they are one batched np.matmul
    after the loop, subtracted from Gamma in the loop's stage order (see
    _subtract_in_order). np.einsum is not used for them: its sums would
    differ from the per-stage products in the last bits. The loop's own
    products use ndarray.dot, the BLAS call of `@` with less dispatch.

    Besides the arrays, it hands _backsolve the per-stage operands of its
    loops, split once per factorization and reused by every right-hand
    side: "backward" holds (FT_n, Quu_n^-1 as a float, Qxu_n (nx,)) from
    stage M-1 down to 0, "forward" holds (K_n (nx,), A_n, B_n (nx,)) from
    stage 0 up.

    Raises np.linalg.LinAlgError for a control Hessian that is not positive
    (at most 0), as _band_factorize does for a singular band: its inverse
    would carry the sweep to inf and NaN. A NaN Hessian, which only
    non-finite data give, inverts to NaN, and the solve ends without a
    feasible point.
    """
    nlp = sub.nlp
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma

    H = nlp.cost_W.copy()
    U = np.zeros((M, nx + nu, q))
    P_M = nlp.cost_P.copy()
    Gamma = nlp.gamma_weight.copy()
    sub.rows.add_gram(D, H, U, P_M, Gamma)

    F = sub.F
    FT = np.ascontiguousarray(F.transpose(0, 2, 1))
    Qzzs = np.empty((M, nx + nu, nx + nu))
    Quu_invs = np.empty((M, nu, nu))
    Ks = np.empty((M, nu, nx))
    Ps = np.empty((M + 1, nx, nx))
    Ps[M] = P = P_M
    Qzgs = np.empty((M, nx + nu, q))
    Kgs = np.empty((M, nu, q))
    Lams = np.empty((M + 1, nx, q))
    Lams[M] = Lam = np.zeros((nx, q))   # no terminal row reads gamma
    inverses = []     # Quu_n^-1 from stage M-1 down
    for n in range(M - 1, -1, -1):
        Qzz = np.add(H[n], FT[n].dot(P.dot(F[n])), out=Qzzs[n])
        Qxu = Qzz[:nx, nx:]
        # the 1x1 control Hessian 0.5 (Q + Q') + CONTROL_REG, inverted in
        # Python floats with the operations numpy would apply to the array:
        # its bits at a fraction of the overhead
        v = Qzz.item(nx, nx)
        v = 0.5 * (v + v) + CONTROL_REG
        if v <= 0.0:
            raise np.linalg.LinAlgError(
                f"non-positive control Hessian {v!r} at stage {n}")
        inverses.append(1.0 / v)
        Quu_inv = Quu_invs[n]
        Quu_inv[0, 0] = inverses[-1]
        Ks[n] = K = Quu_inv.dot(Qxu.T)
        Qzg = np.add(U[n], FT[n].dot(Lam), out=Qzgs[n])
        Kgs[n] = Kg = Quu_inv.dot(Qzg[nx:])
        Lams[n] = Lam = Qzg[:nx] - Qxu.dot(Kg)
        P = Qzz[:nx, :nx] - Qxu.dot(K)
        Ps[n] = P = 0.5 * (P + P.T)
    Qugs = Qzgs[:, nx:]
    Gamma = _subtract_in_order(Gamma, np.matmul(Qugs.transpose(0, 2, 1), Kgs))
    Gamma = 0.5 * (Gamma + Gamma.T)
    Qxus = np.ascontiguousarray(Qzzs[:, :nx, nx:])
    return {"FT": FT, "Ks": Ks, "Kgs": Kgs, "Quu_invs": Quu_invs,
            "Qxus": Qxus, "Qugs": Qugs, "Ps": Ps, "Lams": Lams, "Gamma": Gamma,
            "backward": list(zip(FT[::-1], inverses, Qxus[::-1, :, 0])),
            "forward": list(zip(Ks[:, 0], sub.A, sub.B[:, :, 0]))}


def _subtract_in_order(x, terms):
    """x - terms[M-1] - terms[M-2] - ... - terms[0], one subtraction at a
    time, as a backward sweep over the stages would accumulate it. A
    subtract reduction folds left in order (only add reductions are summed
    pairwise), so the result is the loop's bit for bit."""
    return np.subtract.reduce(np.concatenate([x[None], terms[::-1]]), axis=0)


def _backsolve(sub: _Subproblem, fac: dict, F, F_M, F_g, e: np.ndarray):
    """Solve one Newton system given the shared Riccati factorization.

    e are the eliminated-row offsets entering the right-hand side. Returns
    the directions (dw (M,nz), dwM, dgamma, dlam (M,nx)).

    Each sweep's loop keeps only its recursion: the value-function linear
    term p and the gain offset k backwards, the state and input steps
    forwards. What only reads the recursion's results is batched around
    the loops with np.matmul (not np.einsum, whose sums would move the last
    bits): the global-block right-hand side after the backward sweep
    (subtracted in stage order), Kg dgamma before the forward sweep and the
    multiplier steps after it.

    With one input, the loops' products of one term, Quu^-1 q_u, Qxu k and
    B_n du, are one IEEE multiplication whatever BLAS does, so they run on
    Python floats and elementwise. Only the sign of a zero product can
    differ from the dot's, which sums from +0.0: for two one-element
    operands (Quu^-1 q_u) numpy's dot multiplies without a sum, and qz and
    A_n dx, which Qxu k and B_n du enter, are never -0.0 (each adds a
    dot's sum), so the results keep their bits. The products that sum two
    or more terms, FT_n p, K_n dx and A_n dx, stay on ndarray.dot, the
    BLAS call of `@` with less dispatch: BLAS may fuse their multiply-adds,
    which Python floats would not.
    """
    nx = sub.nlp.nx

    r = -F
    r_M = -F_M
    r_g = -F_g
    sub.rows.add_transpose(-e, r, r_M, r_g)

    # backward linear sweep; p_n stores the value-function linear term
    ks = []           # from stage M-1 down
    ps = [-r_M]
    p = ps[0]
    for (FT, Quu_inv, Qxu), neg_r in zip(fac["backward"], (-r)[::-1]):
        qz = neg_r + FT.dot(p)
        ks.append(k := Quu_inv * qz.item(nx))
        ps.append(p := qz[:nx] - Qxu * k)
    ks.reverse()
    ps = np.array(ps[::-1])

    Qug_k = np.matmul(fac["Qugs"].transpose(0, 2, 1),
                      np.array(ks)[:, None, None])[:, :, 0]
    dgamma = -np.linalg.solve(fac["Gamma"], _subtract_in_order(-r_g, Qug_k))

    # forward sweep; -k - K dx is -(K dx) - k bit for bit (negation is
    # exact and rounding symmetric)
    Kg_dgamma = np.matmul(fac["Kgs"], dgamma)[:, 0].tolist()
    dus = []
    dxs = [np.zeros(nx)]
    dx = dxs[0]
    for (K, A, B), k, kg in zip(fac["forward"], ks, Kg_dgamma):
        dus.append(du := -k - K.dot(dx) - kg)
        dxs.append(dx := A.dot(dx) + B * du)
    dxs = np.array(dxs)
    lam_next = np.matmul(fac["Ps"][1:], dxs[1:, :, None])[:, :, 0] + ps[1:]
    lam_next = lam_next + np.matmul(fac["Lams"][1:], dgamma)
    return (np.concatenate([dxs[:-1], np.array(dus)[:, None]], axis=1), dx,
            dgamma, -lam_next)


def _timed(phase_s, phase, fn, *args):
    """fn(*args), its seconds added to phase_s[phase]."""
    t0 = time.perf_counter()
    out = fn(*args)
    phase_s[phase] += time.perf_counter() - t0
    return out


def _max_step(v, dv, tau):
    """The largest step in [0, 1] that keeps v + step dv at least (1 - tau) v
    wherever dv < 0: the fraction-to-boundary rule over the interior-point
    pairs (s, t, z, z0), stacked into v and their directions into dv, in one
    pass. The minimum of the ratios does not depend on how they are
    grouped, so for finite values it is the per-pair rule's bit for bit.
    The ratios are taken over the whole stack and masked, not gathered: a
    boolean gather branches on the directions' signs and costs more than
    the division. A ratio that overflows is inf: no bound."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = -tau * v / dv
    return float(np.min(np.where(dv < 0.0, ratio, 1.0), initial=1.0))


def _ip_solve(sub: _Subproblem, phase_s: dict):
    """Mehrotra predictor-corrector on the elastic Gauss-Newton QP; adds its
    factorize and backsolve seconds to phase_s. The Newton systems are
    solved by the Riccati sweep when the problem has a global block and by
    one banded LU when it has none: this is the one place that chooses.

    One loop serves every row count m: its row reductions start from 0.0
    and its duality measures divide by 2 max(m, 1), the plain forms' floats
    for m >= 1 (every term is nonnegative). With m = 0 it takes Newton
    steps, and a QP whose start is stationary ends before any factorization."""
    nlp, opts = sub.nlp, sub.opts
    pairs = 2.0 * max(sub.m, 1)
    rho, eps = sub.penalty, ELASTIC_REG
    factorize, backsolve = ((_factorize, _backsolve) if nlp.n_gamma
                            else (_band_factorize, _band_backsolve))

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
        eps_t = eps * t
        z0 = rho + eps_t - z
        sz, tz0 = s * z, t * z0
        mu = (s @ z + t @ z0) / pairs

        cw = sub.rows.product(sub.w, sub.wM, sub.dgamma)
        r1 = (-sub.rows.vals) - cw + t - s
        F, F_M, F_g = sub.stationarity()
        stat_inf = max(float(np.max(np.abs(F))),
                       float(np.max(np.abs(F_M))),
                       float(np.max(np.abs(F_g), initial=0.0)))
        prim_inf = float(np.max(np.abs(r1), initial=0.0))
        # row complementarity is measured against the outward-facing duals z;
        # the elastic pair (t, z0) only needs penalty-level tightness
        compl_inf = max(float(np.max(sz, initial=0.0))
                        / (1.0 + float(np.max(z, initial=0.0))),
                        float(np.max(tz0, initial=0.0)) / (1.0 + rho))
        err = max(stat_inf / thr_stat, prim_inf / thr_prim, compl_inf / thr_compl)
        if err < 0.97 * best_err:
            stalled = 0
        else:
            stalled += 1
        if err < best_err:
            best_err = err
            # s, t and z are rebound below, never written into
            best_state = (sub.w.copy(), sub.wM.copy(), sub.dgamma.copy(),
                          sub.lam.copy(), s, t, z)
        if err <= 1.0:
            break
        if stalled >= opts.ip_stall_limit:
            break

        zcap = z0 + eps_t                         # z0 + eps t > 0 throughout
        # effective row weight of the dual-bounded l1 penalty
        D = np.clip(1.0 / (t / zcap + s / z), 1e-12, 1e10)
        fac = _timed(phase_s, "factorize", factorize, sub, D)
        values = np.concatenate([s, t, z, z0])     # as _max_step takes them

        def newton(r2, r4):
            """The Newton step for the complementarity right-hand sides r2
            (of s z) and r4 (of t z0); its last item stacks (ds, dt, dz,
            dz0) as _max_step takes them."""
            e = -D * (r1 + r4 / zcap - r2 / z)
            dw, dxM, dgamma, dlam = _timed(phase_s, "backsolve", backsolve,
                                           sub, fac, F, F_M, F_g, e)
            cdw = sub.rows.product(dw, dxM, dgamma)
            dz = D * cdw + e
            dt = (r4 + t * dz) / zcap
            ds = (r2 - s * dz) / z
            dz0 = eps * dt - dz
            return dw, dxM, dgamma, dlam, dt, dz, ds, dz0, np.concatenate(
                [ds, dt, dz, dz0])

        # predictor; (-s) z is -(s z) bit for bit
        aff = newton(-sz, -tz0)
        a_aff = _max_step(values, aff[8], 1.0)
        mu_aff = ((s + a_aff * aff[6]) @ (z + a_aff * aff[5])
                  + (t + a_aff * aff[4]) @ (z0 + a_aff * aff[7])) / pairs
        sigma = min(max(mu_aff / max(mu, 1e-300), 0.0), 1.0) ** 3
        if stalled >= 3:
            # cycling near degeneracy: force a centering step
            sigma = max(sigma, 0.5)

        # corrector, falling back to plain centering when blocked
        r2 = sigma * mu - sz - aff[6] * aff[5]
        r4 = sigma * mu - tz0 - aff[4] * aff[7]
        dw, dxM, dgamma, dlam, dt, dz, ds, dz0, dv = newton(r2, r4)
        a = _max_step(values, dv, IP_TAU)
        if a < 0.05 and a < 0.25 * a_aff:
            sigma_c = max(sigma, 0.5)
            dw, dxM, dgamma, dlam, dt, dz, ds, dz0, dv = newton(
                sigma_c * mu - sz, sigma_c * mu - tz0)
            a = _max_step(values, dv, IP_TAU)

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


def _evaluate(nlp: NlpDescription, layout: _Layout, us, gamma):
    """Rollout, rows and objective of one point: one dyn_f and one
    stage_rows call."""
    xs = nlp.dyn_f(us)
    return xs, _Rows(nlp, layout, xs, us, gamma), _objective(nlp, xs, us, gamma)


def _start(nlp: NlpDescription):
    """A solve's start point, nlp.u_init (never written to) and gamma = 0,
    evaluated: (us, gamma, xs, rows, obj, layout, phase_s), with the
    evaluation's seconds in the fresh phase_s."""
    us, gamma = nlp.u_init, np.zeros(nlp.n_gamma)
    layout = _Layout(nlp)
    phase_s = dict.fromkeys(PHASES, 0.0)
    xs, rows, obj = _timed(phase_s, "evaluate", _evaluate, nlp, layout, us, gamma)
    return us, gamma, xs, rows, obj, layout, phase_s


def settled_infeasible(nlp: NlpDescription, t_start: float,
                       start=None) -> SolveReport:
    """The report of a solve settled infeasible before its first QP: the
    start point (evaluated here unless _start gave it) with its largest row
    violation, 0 SQP and 0 interior-point iterations, and inf KKT residuals,
    as no point was linearized. wall_time counts from t_start."""
    us, gamma, xs, rows, obj, _, phase_s = start or _start(nlp)
    inf = float("inf")
    return SolveReport(
        status=STATUS_INFEASIBLE, us=us, xs=xs, gamma=gamma, objective=obj,
        stationarity=inf, primal_infeasibility=inf, complementarity=inf,
        sqp_iterations=0, ip_iterations=0,
        wall_time=time.perf_counter() - t_start,
        infeasibility_measure=rows.violation_inf(), phase_s=phase_s)


def _pinned_exit(rows: _Rows, nx: int, opts: SolverOptions) -> float | None:
    """The pinned-row rule: the largest value of the stage-0 rows that read
    x_0 alone (_Rows.pinned_violation) when it exceeds
    max(INFEASIBILITY_TOL, tol_feasibility), the largest violation any exit
    accepts, else None."""
    violation = rows.pinned_violation(nx)
    if violation > max(INFEASIBILITY_TOL, opts.tol_feasibility):
        return violation
    return None


def pinned_row_exit(nlp: NlpDescription, xs: np.ndarray) -> float | None:
    """The pinned-row rule at nlp's start point, whose rollout xs
    (nlp.dyn_f of u_init) the caller gives: problems that share their start
    state and u_init share it. A value means that a solve with the default
    SolverOptions, the controller's, ends infeasible at the start, before
    its first QP. The rows are evaluated, the objective is not."""
    rows = _Rows(nlp, _Layout(nlp), xs, nlp.u_init, np.zeros(nlp.n_gamma))
    return _pinned_exit(rows, nlp.nx, SolverOptions())


def _kkt_met(kkt, opts: SolverOptions, tol_feasibility: float) -> bool:
    """The one optimality verdict, on the (stationarity, violation,
    complementarity) residuals of _nlp_kkt."""
    return (kkt[1] <= tol_feasibility
            and kkt[0] <= opts.tol_stationarity
            and kkt[2] <= opts.tol_complementarity)


def solve(nlp: NlpDescription, opts: SolverOptions | None = None) -> SolveReport:
    """Run the SQP loop on the given problem and report the outcome."""
    opts = opts or SolverOptions()
    t_start = time.perf_counter()
    start = _start(nlp)
    us, gamma, xs, rows, obj, layout, phase_s = start
    # the pinned-row exit: no point brings these rows within the violation
    # any exit accepts
    if _pinned_exit(rows, nlp.nx, opts) is not None:
        return settled_infeasible(nlp, t_start, start)

    penalty = opts.penalty_init
    total_ip = 0
    status = STATUS_MAX_ITER
    sqp_iters = 0
    final_kkt = (float("inf"), float("inf"), float("inf"))
    final_z = None    # the row duals final_kkt was checked with
    polish_streak = 0
    z_step = None     # row duals of the QP whose step gave the iterate

    for it in range(opts.max_sqp_iter):
        sqp_iters = it + 1
        viol1 = rows.violation_l1()
        viol_inf = rows.violation_inf()
        merit = obj + penalty * viol1

        sub = _Subproblem(nlp, xs, us, gamma, rows, penalty, opts)
        if z_step is not None and opts.multiplier_certificate:
            # multiplier certificate: the last QP's duals as the NLP's
            # multiplier estimate at the iterate its step reached
            final_kkt, final_z = _nlp_kkt(sub, z_step), z_step
            if _kkt_met(final_kkt, opts, opts.tol_feasibility):
                status = STATUS_OPTIMAL
                break
        z_step = None
        total_ip += _ip_solve(sub, phase_s)
        du = sub.w[:, nlp.nx:].copy()
        dgamma = sub.dgamma.copy()

        final_kkt, final_z = _nlp_kkt(sub, sub.z), sub.z

        if _kkt_met(final_kkt, opts, opts.tol_feasibility):
            status = STATUS_OPTIMAL
            break

        step_norm = max(float(np.max(np.abs(du))),
                        float(np.max(np.abs(dgamma), initial=0.0)))
        model_viol = float(np.sum(np.maximum(sub.t, 0.0)))
        # a bounded polish streak keeps stalled-but-feasible runs from cycling
        polish = viol_inf <= opts.tol_feasibility and step_norm <= 1e-3
        if step_norm > TOL_STEP and not (polish and polish_streak >= 3):
            # predicted merit reduction of the QP model (includes
            # curvature); nonpositive by construction since (0, current
            # violation) is feasible
            d_obj = (float(np.sum(sub.g_stage * sub.w)) + float(sub.g_term @ sub.wM)
                     + float(sub.g_gamma @ dgamma))
            curv = float(np.einsum("ni,nij,nj->", sub.w, nlp.cost_W, sub.w))
            curv += float(sub.wM @ nlp.cost_P @ sub.wM)
            curv += float(dgamma @ nlp.gamma_weight @ dgamma)
            descent = min((d_obj + 0.5 * curv)
                          - penalty * max(viol1 - model_viol, 0.0), -1e-16)

            # the watchdog's noise bound is at least the merit and the Armijo
            # bound at most, so a full step the watchdog rejects fails the
            # Armijo test too
            alpha = 1.0
            accepted = False
            while alpha >= MIN_STEP:
                us_new = us + alpha * du
                gamma_new = gamma + alpha * dgamma
                xs_new, rows_new, obj_new = _timed(phase_s, "evaluate", _evaluate,
                                                   nlp, layout, us_new, gamma_new)
                merit_new = obj_new + penalty * rows_new.violation_l1()
                if polish and alpha == 1.0:
                    bound = merit + 1e-6 * (1.0 + abs(merit))
                else:
                    bound = merit + ARMIJO_C1 * alpha * descent
                if merit_new <= bound:
                    us, gamma, xs, rows, obj = us_new, gamma_new, xs_new, rows_new, obj_new
                    z_step = sub.z
                    accepted = True
                    break
                alpha *= 0.5
            polish_streak = (polish_streak + 1
                             if polish and accepted and alpha == 1.0 else 0)
            # a step accepted in float terms but too small to count makes no
            # progress; nor does a converged restoration, where the
            # subproblem cannot reduce the violation from here
            if (accepted and alpha * step_norm > TOL_STEP
                    and not (viol_inf > INFEASIBILITY_TOL
                             and model_viol >= 0.999 * viol1)):
                continue

        # the no-progress verdict
        if viol_inf > INFEASIBILITY_TOL:
            if penalty < opts.penalty_max:
                # violation the subproblem itself cannot remove warrants the
                # aggressive escalation
                factor = 100.0 if model_viol >= 0.99 * viol1 else 10.0
                penalty = min(penalty * factor, opts.penalty_max)
                continue
            # a step this iteration accepted can have brought the point
            # within the tolerance: such a point is not shown infeasible
            if rows.violation_inf() > INFEASIBILITY_TOL:
                status = STATUS_INFEASIBLE
        elif _kkt_met(final_kkt, opts, INFEASIBILITY_TOL):
            # an iterate within INFEASIBILITY_TOL that makes no progress is
            # as feasible as the penalty can make it
            status = STATUS_OPTIMAL
        break

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
        duals=final_z,
    )


def _nlp_kkt(sub: _Subproblem, z: np.ndarray):
    """KKT residuals (stationarity, violation, complementarity) of the NLP at
    the subproblem's linearization point with row multipliers z, recomputed
    from primal/dual values alone.

    The loop keeps only the costate recursion; the input-gradient
    residuals grad_u + B'lam of every stage are one batched np.matmul after
    it, the products the per-stage B[n].T.dot would give, and their
    maximum does not depend on the order it is taken in."""
    nlp, rows = sub.nlp, sub.rows
    M, nx = nlp.horizon, nlp.nx

    grad = sub.g_stage.copy()
    grad_M = sub.g_term.copy()
    grad_g = sub.g_gamma.copy()
    rows.add_transpose(z, grad, grad_M, grad_g)
    grad_x, grad_u = grad[:, :nx], grad[:, nx:]

    lams = np.empty((M, nx))     # lams[n] multiplies stage n's dynamics
    lams[M - 1] = lam = grad_M
    for n in range(M - 1, 0, -1):
        lams[n - 1] = lam = grad_x[n] + sub.A[n].T.dot(lam)
    su = grad_u + np.matmul(sub.B.transpose(0, 2, 1), lams[:, :, None])[:, :, 0]
    stat = max(float(np.max(np.abs(grad_g), initial=0.0)),
               float(np.max(np.abs(su))))
    # z >= 0 (interior-point duals), so the reductions from 0.0 are the
    # plain ones whenever there are rows
    compl = (float(np.max(np.abs(z * np.minimum(rows.vals, 0.0)), initial=0.0))
             / (1.0 + float(np.max(z, initial=0.0))))
    return stat, rows.violation_inf(), compl
