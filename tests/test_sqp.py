import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmpc import sqp
from softmpc.sqp import (CONTROL_REG, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                         NlpDescription, SolverOptions, solve)


def _linear_nlp(A, B, Q, R, P, x0, M, rows=None, terminal_rows=None, **kw):
    """rows = (stage_rows, rows per stage), every row present at every stage."""
    nx, nu = B.shape
    W = np.zeros((M, nx + nu, nx + nu))
    W[:, :nx, :nx] = Q
    W[:, nx:, nx:] = R
    stage_rows, mask = None, None
    if rows is not None:
        stage_rows, m = rows
        mask = np.ones((M, m), dtype=bool)
    return NlpDescription(
        nx=nx, nu=nu, horizon=M, x0=x0,
        dyn_f=lambda n, x, u: A @ x + B @ u,
        dyn_jac=lambda xs, us: (np.broadcast_to(A, (M, nx, nx)),
                                np.broadcast_to(B, (M, nx, nu))),
        cost_W=W, cost_ref=np.zeros((M, nx + nu)),
        cost_P=P, cost_ref_M=np.zeros(nx),
        stage_rows=stage_rows, stage_row_mask=mask,
        terminal_rows=terminal_rows, **kw)


def _constant_rows(offset, C, G=None):
    """Affine stage rows C (x, u) + offset, the same at every stage."""
    def rows(xs, us):
        vals = np.concatenate([xs, us], axis=1) @ C.T + offset
        M = xs.shape[0]
        return (vals, np.broadcast_to(C, (M,) + C.shape),
                None if G is None else np.broadcast_to(G, (M,) + G.shape))
    return rows, C.shape[0]


def _riccati_lqr(A, B, Q, R, P, x0, M):
    """Textbook finite-horizon LQR recursion, independent of the solver."""
    Ps = [None] * (M + 1)
    Ks = [None] * M
    Ps[M] = P
    for n in range(M - 1, -1, -1):
        Pn1 = Ps[n + 1]
        K = np.linalg.solve(R + B.T @ Pn1 @ B, B.T @ Pn1 @ A)
        Ps[n] = Q + A.T @ Pn1 @ (A - B @ K)
        Ks[n] = K
    xs = [x0]
    us = []
    for n in range(M):
        u = -Ks[n] @ xs[-1]
        us.append(u)
        xs.append(A @ xs[-1] + B @ u)
    return np.array(us), np.array(xs)


def _random_lqr_instance(rng, nx, nu, M):
    A = rng.uniform(-1, 1, (nx, nx))
    A = A / max(1.0, 1.1 * np.max(np.abs(np.linalg.eigvals(A))))
    B = rng.uniform(-1, 1, (nx, nu))
    Q = np.diag(rng.uniform(0.1, 2.0, nx))
    R = np.diag(rng.uniform(0.5, 2.0, nu))
    P = np.diag(rng.uniform(0.1, 2.0, nx))
    x0 = rng.uniform(-2, 2, nx)
    return A, B, Q, R, P, x0


def test_unconstrained_lqr_matches_riccati():
    rng = np.random.default_rng(0)
    for _ in range(10):
        nx = int(rng.integers(2, 5))
        nu = int(rng.integers(1, 3))
        M = int(rng.integers(3, 30))
        A, B, Q, R, P, x0 = _random_lqr_instance(rng, nx, nu, M)
        rep = solve(_linear_nlp(A, B, Q, R, P, x0, M))
        us_ref, xs_ref = _riccati_lqr(A, B, Q, R, P, x0, M)
        assert rep.status == STATUS_OPTIMAL
        assert np.max(np.abs(rep.us - us_ref)) < 1e-6
        assert np.max(np.abs(rep.xs - xs_ref)) < 1e-6


def test_lqr_matches_batch_least_squares():
    # second independent oracle: condensed normal equations
    rng = np.random.default_rng(3)
    nx, nu, M = 3, 2, 12
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, nx, nu, M)
    rep = solve(_linear_nlp(A, B, Q, R, P, x0, M))

    # batch prediction x = Phi0 x0 + Phiu u
    Phi0 = np.zeros(((M + 1) * nx, nx))
    Phiu = np.zeros(((M + 1) * nx, M * nu))
    Ak = np.eye(nx)
    Phi0[:nx] = Ak
    for n in range(1, M + 1):
        Ak = A @ Ak
        Phi0[n * nx:(n + 1) * nx] = Ak
        for j in range(n):
            Phiu[n * nx:(n + 1) * nx, j * nu:(j + 1) * nu] = (
                np.linalg.matrix_power(A, n - 1 - j) @ B)
    Qbar = np.zeros(((M + 1) * nx, (M + 1) * nx))
    for n in range(M):
        Qbar[n * nx:(n + 1) * nx, n * nx:(n + 1) * nx] = Q
    Qbar[M * nx:, M * nx:] = P
    Rbar = np.kron(np.eye(M), R)
    H = Phiu.T @ Qbar @ Phiu + Rbar
    g = Phiu.T @ Qbar @ (Phi0 @ x0)
    u_dense = np.linalg.solve(H, -g).reshape(M, nu)
    assert np.max(np.abs(rep.us - u_dense)) < 1e-6


def _box_rows(umin, umax, xmin, xmax):
    nxv, nuv = xmin.size, umin.size
    Cx = np.vstack([np.zeros((2 * nuv, nxv)), np.eye(nxv), -np.eye(nxv)])
    Cu = np.vstack([np.eye(nuv), -np.eye(nuv), np.zeros((2 * nxv, nuv))])
    return _constant_rows(np.concatenate([-umax, umin, -xmax, xmin]),
                          np.hstack([Cx, Cu]))


def _enumerate_active_sets(H, g, Cin, din, tol=1e-9):
    """Brute-force QP oracle: try every active set, keep the best KKT point."""
    m = din.size
    best, best_val = None, np.inf
    for mask in range(1 << m):
        act = [i for i in range(m) if mask >> i & 1]
        KKT = H.copy()
        rhs = -g.copy()
        if act:
            Ca = Cin[act]
            KKT = np.block([[H, Ca.T], [Ca, np.zeros((len(act), len(act)))]])
            rhs = np.concatenate([-g, din[act]])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            continue
        x = sol[:H.shape[0]]
        lam = sol[H.shape[0]:]
        if np.any(Cin @ x - din > tol) or np.any(lam < -tol):
            continue
        val = 0.5 * x @ H @ x + g @ x
        if val < best_val - 1e-12:
            best, best_val = x, val
    return best


def test_box_constrained_double_integrator_matches_enumeration():
    rng = np.random.default_rng(7)
    dt = 0.2
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    Q = np.diag([1.0, 0.1])
    R = np.array([[0.2]])
    P = np.diag([2.0, 0.5])
    for _ in range(10):
        M = int(rng.integers(3, 6))
        x0 = rng.uniform(-1.5, 1.5, 2)
        umax = rng.uniform(0.4, 1.2)
        rows = _box_rows(np.array([-umax]), np.array([umax]),
                         np.array([-50.0, -50.0]), np.array([50.0, 50.0]))
        rep = solve(_linear_nlp(A, B, Q, R, P, x0, M, rows=rows))
        assert rep.status == STATUS_OPTIMAL

        # dense condensed QP for the oracle (state boxes never active here)
        Phiu = np.zeros(((M + 1) * 2, M))
        Phi0 = np.zeros(((M + 1) * 2, 2))
        Ak = np.eye(2)
        Phi0[:2] = Ak
        for n in range(1, M + 1):
            Ak = A @ Ak
            Phi0[n * 2:(n + 1) * 2] = Ak
            for j in range(n):
                Phiu[n * 2:(n + 1) * 2, j] = (np.linalg.matrix_power(A, n - 1 - j) @ B)[:, 0]
        Qbar = np.zeros(((M + 1) * 2, (M + 1) * 2))
        for n in range(M):
            Qbar[n * 2:(n + 1) * 2, n * 2:(n + 1) * 2] = Q
        Qbar[M * 2:, M * 2:] = P
        H = Phiu.T @ Qbar @ Phiu + np.kron(np.eye(M), R)
        g = Phiu.T @ Qbar @ (Phi0 @ x0)
        Cin = np.vstack([np.eye(M), -np.eye(M)])
        din = np.full(2 * M, umax)
        u_ref = _enumerate_active_sets(H, g, Cin, din)
        assert u_ref is not None
        assert np.max(np.abs(rep.us[:, 0] - u_ref)) < 1e-6


def test_contradictory_bounds_detected_infeasible():
    A = np.array([[1.0]])
    B = np.array([[1.0]])

    # x <= -1 and x >= +1 simultaneously
    rows = _constant_rows(np.array([1.0, 1.0]),
                          np.array([[1.0, 0.0], [-1.0, 0.0]]))

    nlp = _linear_nlp(A, B, np.eye(1), np.eye(1), np.eye(1),
                      np.array([0.0]), 4, rows=rows)
    rep = solve(nlp)
    assert rep.status == STATUS_INFEASIBLE
    assert rep.infeasibility_measure > 1e-6


def test_optimal_report_kkt_residuals():
    rng = np.random.default_rng(11)
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, 3, 1, 10)
    rows = _box_rows(np.array([-0.3]), np.array([0.3]),
                     np.full(3, -100.0), np.full(3, 100.0))
    rep = solve(_linear_nlp(A, B, Q, R, P, x0, 10, rows=rows))
    assert rep.status == STATUS_OPTIMAL
    assert rep.stationarity <= 1e-6
    assert rep.primal_infeasibility <= 1e-8
    assert rep.complementarity <= 1e-8


def test_infeasibility_measure_is_taken_at_the_returned_point():
    # the inputs start outside the box |u| <= 0.3; the one SQP iteration
    # allowed takes a step that removes the violation, so the report must
    # describe the point it returns, not the one it linearized at
    rng = np.random.default_rng(17)
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, 3, 1, 10)
    rows, m = _box_rows(np.array([-0.3]), np.array([0.3]),
                        np.full(3, -100.0), np.full(3, 100.0))
    nlp = _linear_nlp(A, B, Q, R, P, x0, 10, rows=(rows, m),
                      u_init=np.ones((10, 1)))
    rep = solve(nlp, SolverOptions(max_sqp_iter=1))
    assert rep.sqp_iterations == 1
    assert np.max(np.abs(rep.us - 1.0)) > 0.5     # the step was accepted
    vals, _, _ = rows(rep.xs[:-1], rep.us)
    assert rep.infeasibility_measure == max(float(np.max(vals)), 0.0)
    assert rep.infeasibility_measure < 0.1


def test_solution_invariant_under_row_permutation():
    rng = np.random.default_rng(13)
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q, R, P = np.diag([1.0, 0.2]), np.array([[0.1]]), np.diag([1.0, 0.2])
    x0 = np.array([1.2, -0.4])
    perm = rng.permutation(4)

    offset = np.array([-0.5, -0.5, -0.8, -0.8])
    C = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                  [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    rows_base = _constant_rows(offset, C)
    rows_perm = _constant_rows(offset[perm], C[perm])

    rep1 = solve(_linear_nlp(A, B, Q, R, P, x0, 12, rows=rows_base))
    rep2 = solve(_linear_nlp(A, B, Q, R, P, x0, 12, rows=rows_perm))
    assert rep1.status == rep2.status == STATUS_OPTIMAL
    assert np.max(np.abs(rep1.us - rep2.us)) < 1e-8


def test_rows_outside_the_layout_are_ignored():
    # the state box exists at even stages only; the values the provider
    # returns for the missing rows (NaN or real) must not matter
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q, R, P = np.diag([1.0, 0.2]), np.array([[0.1]]), np.diag([1.0, 0.2])
    x0 = np.array([1.2, -0.2])
    M = 12
    rows, m = _box_rows(np.array([-0.5]), np.array([0.5]),
                        np.array([-5.0, -0.3]), np.array([5.0, 0.3]))
    mask = np.ones((M, m), dtype=bool)
    mask[1::2, 2:] = False

    def rows_nan(xs, us):
        vals, C, G = rows(xs, us)
        vals = vals.copy()
        vals[~mask] = np.nan
        return vals, C, G

    reps = []
    for fn in (rows, rows_nan):
        nlp = _linear_nlp(A, B, Q, R, P, x0, M)
        nlp.stage_rows, nlp.stage_row_mask = fn, mask
        reps.append(solve(nlp))
    assert reps[0].status == reps[1].status == STATUS_OPTIMAL
    assert np.array_equal(reps[0].us, reps[1].us)
    assert np.all(np.abs(reps[0].xs[2:M:2, 1]) <= 0.3 + 1e-8)
    assert np.max(np.abs(reps[0].xs[1:M:2, 1])) > 0.3 + 1e-3


def test_global_slack_block_analytic_toy():
    # x+ = x + u with u pinned to zero; one row x - b <= gamma per stage.
    # With x0 above b the minimal slack is exactly the overshoot.
    x0, b = 2.0, 0.5
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    M = 5

    rows = _constant_rows(np.array([-b, 0.0, 0.0]),
                          np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                          G=np.array([[-1.0], [0.0], [0.0]]))

    nlp = _linear_nlp(A, B, np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)),
                      np.array([x0]), M, rows=rows,
                      n_gamma=1, gamma_weight=np.array([[2.0 * M]]),
                      gamma_lo=np.array([0.0]), gamma_hi=np.array([10.0]))
    rep = solve(nlp)
    assert rep.status == STATUS_OPTIMAL
    assert rep.gamma[0] == pytest.approx(x0 - b, abs=1e-6)

    # ceiling below the required slack turns the problem infeasible
    nlp_tight = _linear_nlp(A, B, np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)),
                            np.array([x0]), M, rows=rows,
                            n_gamma=1, gamma_weight=np.array([[2.0 * M]]),
                            gamma_lo=np.array([0.0]),
                            gamma_hi=np.array([0.5 * (x0 - b)]))
    rep2 = solve(nlp_tight)
    assert rep2.status == STATUS_INFEASIBLE


def test_terminal_rows_enforced():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q, R, P = np.diag([0.0, 0.0]), np.array([[1.0]]), np.zeros((2, 2))
    x0 = np.array([0.0, 1.0])

    def terminal(x):
        # v_M <= 0 and -v_M <= 0: standstill at the end
        vals = np.array([x[1], -x[1]])
        Cx = np.array([[0.0, 1.0], [0.0, -1.0]])
        return vals, Cx, None

    rep = solve(_linear_nlp(A, B, Q, R, P, x0, 10, terminal_rows=terminal))
    assert rep.status == STATUS_OPTIMAL
    assert abs(rep.xs[-1, 1]) < 1e-6


def test_nonlinear_dynamics_pendulum_swing():
    # damped pendulum regulation; checks the SQP loop on nonlinear dynamics
    dt = 0.05

    def f(n, x, u):
        th, om = x
        return np.array([th + dt * om, om + dt * (-9.81 * np.sin(th) - 0.2 * om + u[0])])

    def jac(xs, us):
        th = xs[:, 0]
        A = np.empty((th.size, 2, 2))
        A[:] = [[1.0, dt], [0.0, 1.0 - dt * 0.2]]
        A[:, 1, 0] = -dt * 9.81 * np.cos(th)
        B = np.broadcast_to([[0.0], [dt]], (th.size, 2, 1))
        return A, B

    M = 40
    W = np.zeros((M, 3, 3))
    W[:] = np.diag([5.0, 0.5, 0.05])
    nlp = NlpDescription(nx=2, nu=1, horizon=M, x0=np.array([0.6, 0.0]),
                         dyn_f=f, dyn_jac=jac,
                         cost_W=W, cost_ref=np.zeros((M, 3)),
                         cost_P=np.diag([20.0, 2.0]), cost_ref_M=np.zeros(2))
    rep = solve(nlp)
    assert rep.status == STATUS_OPTIMAL
    assert abs(rep.xs[-1, 0]) < 0.05
    assert rep.stationarity <= 1e-6


def test_phase_times_are_part_of_the_wall_time():
    rng = np.random.default_rng(2)
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, 4, 2, 1)
    rows = _box_rows(np.full(2, -0.5), np.full(2, 0.5),
                     np.full(4, -100.0), np.full(4, 100.0))
    # with rows (interior point) and without (one Newton step)
    for nlp in (_linear_nlp(A, B, Q, R, P, x0, 30, rows=rows),
                _linear_nlp(A, B, Q, R, P, x0, 30)):
        rep = solve(nlp)
        assert tuple(rep.phase_s) == sqp.PHASES
        assert all(t > 0.0 for t in rep.phase_s.values())
        assert sum(rep.phase_s.values()) <= rep.wall_time
        assert rep.to_dict()["phase_s"] == rep.phase_s


def test_factorization_time_scales_linearly_in_horizon():
    # runtime per iteration should roughly double when the horizon doubles.
    # The two horizons alternate and their fastest runs are compared, so a
    # slow stretch of a shared host cannot land on one horizon only
    rng = np.random.default_rng(5)
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, 4, 2, 1)
    rows = _box_rows(np.full(2, -0.5), np.full(2, 0.5),
                     np.full(4, -100.0), np.full(4, 100.0))
    nlps = {M: _linear_nlp(A, B, Q, R, P, x0, M, rows=rows) for M in (50, 100)}
    best = {M: np.inf for M in nlps}
    for repeat in range(11):
        for M, nlp in nlps.items():
            # CPU time of this process: time spent descheduled on a busy
            # host does not count
            t0 = time.process_time()
            rep = solve(nlp)
            per_iter = (time.process_time() - t0) / max(rep.ip_iterations, 1)
            if repeat:      # the first round warms up
                best[M] = min(best[M], per_iter)
    assert best[100] / best[50] <= 2.5

# ---------------------------------------------------------------------------
# Riccati sweeps against the plain per-stage loops, bit for bit
# ---------------------------------------------------------------------------
# The solver's sweeps batch every product that does not depend on the
# previous stage. The functions below are the plain loops they replaced,
# kept verbatim: every array the sweeps return must equal theirs exactly,
# since decisions and oracle labels are compared bit for bit downstream.


def _reference_factorize(sub, D):
    nlp = sub.nlp
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma
    reg_eye = CONTROL_REG * np.eye(nu)

    H = nlp.cost_W.copy()
    U = np.zeros((M, nx + nu, q)) if q else None
    P_M = nlp.cost_P.copy()
    U_M = np.zeros((nx, q)) if q else None
    Gamma = nlp.gamma_weight.copy() if q else None
    sub.rows.add_gram(D, H, U, P_M, U_M, Gamma)

    Ks = np.empty((M, nu, nx))
    Kgs = np.empty((M, nu, q)) if q else None
    Quu_invs = np.empty((M, nu, nu))
    Qxus = np.empty((M, nx, nu))
    Qugs = np.empty((M, nu, q)) if q else None
    Ps = np.empty((M + 1, nx, nx))
    Lams = np.empty((M + 1, nx, q)) if q else None
    Ps[M] = P_M
    if q:
        Lams[M] = U_M
    P = P_M
    Lam = U_M
    for n in range(M - 1, -1, -1):
        F = sub.F[n]
        FT = sub.FT[n]
        Qzz = H[n] + FT @ (P @ F)
        Qxx = Qzz[:nx, :nx]
        Qxu = Qzz[:nx, nx:]
        Quu = 0.5 * (Qzz[nx:, nx:] + Qzz[nx:, nx:].T) + reg_eye
        Quu_inv = _reference_inv_pd(Quu)
        K = Quu_inv @ Qxu.T
        Quu_invs[n] = Quu_inv
        Ks[n] = K
        Qxus[n] = Qxu
        if q:
            Qzg = U[n] + FT @ Lam
            Qxg, Qug = Qzg[:nx], Qzg[nx:]
            Kg = Quu_inv @ Qug
            Kgs[n] = Kg
            Qugs[n] = Qug
            Gamma = Gamma - Qug.T @ Kg
            Lam = Qxg - Qxu @ Kg
            Lams[n] = Lam
        P = Qxx - Qxu @ K
        P = 0.5 * (P + P.T)
        Ps[n] = P
    if q:
        Gamma = 0.5 * (Gamma + Gamma.T)
    return {"Ks": Ks, "Kgs": Kgs, "Quu_invs": Quu_invs, "Qxus": Qxus,
            "Qugs": Qugs, "Ps": Ps, "Lams": Lams, "Gamma": Gamma}


def _reference_inv_pd(Q):
    n = Q.shape[0]
    if n == 1:
        v = Q[0, 0]
        return np.array([[1.0 / (v if v > 1e-300 else 1e-300)]])
    if n == 2:
        a, b = Q[0, 0], Q[0, 1]
        c, d = Q[1, 0], Q[1, 1]
        det = a * d - b * c
        if det > 1e-300 and a > 0.0:
            return np.array([[d, -b], [-c, a]]) / det
        bump = 1e-12 * max(a + d, 1.0)
        for _ in range(40):
            a2, d2 = a + bump, d + bump
            det = a2 * d2 - b * c
            if det > 1e-300 and a2 > 0.0:
                return np.array([[d2, -b], [-c, a2]]) / det
            bump *= 10.0
        raise np.linalg.LinAlgError("could not regularize control Hessian")
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


def _reference_backsolve(sub, fac, F, F_M, F_g, e):
    nlp = sub.nlp
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma

    r = -F.copy()
    r_M = -F_M.copy()
    r_g = -F_g.copy() if q else np.zeros(0)
    sub.rows.add_transpose(-e, r, r_M, r_g)

    # backward linear sweep
    ks = np.empty((M, nu))
    ps = np.empty((M + 1, nx))
    ps[M] = -r_M
    p = -r_M          # p_n stores the value-function linear term (= -r at M)
    qg = -r_g if q else None
    Quu_invs = fac["Quu_invs"]
    Qxus = fac["Qxus"]
    for n in range(M - 1, -1, -1):
        qz = -r[n] + sub.FT[n] @ p
        qx, qu = qz[:nx], qz[nx:]
        k = Quu_invs[n] @ qu
        ks[n] = k
        if q:
            qg = qg - fac["Qugs"][n].T @ k
        p = qx - Qxus[n] @ k
        ps[n] = p

    if q:
        dgamma = -np.linalg.solve(fac["Gamma"], qg)
    else:
        dgamma = np.zeros(0)

    dw = np.zeros((M, nx + nu))
    dlam = np.empty((M, nx))
    dx = np.zeros(nx)
    for n in range(M):
        du = -(fac["Ks"][n] @ dx) - ks[n]
        if q:
            du = du - fac["Kgs"][n] @ dgamma
        dw[n, :nx] = dx
        dw[n, nx:] = du
        dx = sub.A[n] @ dx + sub.B[n] @ du
        lam_next = fac["Ps"][n + 1] @ dx + ps[n + 1]
        if q:
            lam_next = lam_next + fac["Lams"][n + 1] @ dgamma
        dlam[n] = -lam_next
    return dw, dx, dgamma, dlam


def _random_subproblem(rng, nx, nu, q, M, terminal, uu_shift=0.0):
    """A Gauss-Newton subproblem with random time-varying dynamics, stage
    rows on a random layout, optional terminal rows and a global block of q
    channels. uu_shift is added to the input block of the stage weights."""
    nz = nx + nu
    A = rng.normal(size=(M, nx, nx))
    B = rng.normal(size=(M, nx, nu))
    L = rng.normal(size=(M, nz, nz))
    W = L @ L.transpose(0, 2, 1) / nz
    W[:, nx:, nx:] += uu_shift * np.eye(nu)
    m = 3
    C = rng.normal(size=(M, m, nz))
    G = rng.normal(size=(M, m, q)) if q else None

    def stage_rows(xs, us):
        vals = np.einsum("nmi,ni->nm", C, np.concatenate([xs, us], axis=1))
        return vals - 1.0, C, G

    Cx = rng.normal(size=(2, nx))
    Cg = rng.normal(size=(2, q)) if q else None

    def terminal_rows(x):
        return Cx @ x - 1.0, Cx, Cg

    Lg = rng.normal(size=(q, q))
    kw = dict(n_gamma=q, gamma_weight=Lg @ Lg.T + np.eye(q),
              gamma_lo=-np.ones(q), gamma_hi=np.ones(q)) if q else {}
    nlp = NlpDescription(
        nx=nx, nu=nu, horizon=M, x0=rng.normal(size=nx),
        dyn_f=lambda n, x, u: A[n] @ x + B[n] @ u,
        dyn_jac=lambda xs, us: (A, B),
        cost_W=W, cost_ref=rng.normal(size=(M, nz)),
        cost_P=np.eye(nx), cost_ref_M=rng.normal(size=nx),
        stage_rows=stage_rows, stage_row_mask=rng.random((M, m)) < 0.7,
        terminal_rows=terminal_rows if terminal else None, **kw)
    us = rng.normal(size=(M, nu))
    gamma = rng.uniform(-0.5, 0.5, q)
    xs = sqp._rollout(nlp, us)
    rows = sqp._Rows(nlp, sqp._Layout(nlp), xs, us, gamma)
    return sqp._Subproblem(nlp, xs, us, gamma, rows, 1e2, SolverOptions())


def _assert_sweeps_match_reference(sub, rng, D_max=1e2):
    nlp, m = sub.nlp, sub.rows.n_rows
    D = rng.uniform(1e-3 * D_max, D_max, m)
    F = rng.normal(size=(nlp.horizon, nlp.nx + nlp.nu))
    F_M = rng.normal(size=nlp.nx)
    F_g = rng.normal(size=nlp.n_gamma)
    e = rng.normal(size=m)

    fac = sqp._factorize(sub, D)
    ref = _reference_factorize(sub, D)
    for key, want in ref.items():
        got = fac[key]
        assert (got is None) == (want is None), key
        assert want is None or np.array_equal(got, want), key
    got = sqp._backsolve(sub, fac, F, F_M, F_g, e)
    want = _reference_backsolve(sub, ref, F, F_M, F_g, e)
    for name, g, w in zip(("dw", "dx", "dgamma", "dlam"), got, want):
        assert np.array_equal(g, w), name


@given(nx=st.integers(1, 7), nu=st.sampled_from([1, 2]),
       q=st.sampled_from([0, 1, 4]), M=st.integers(1, 40),
       terminal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_riccati_sweeps_equal_the_plain_loops_bit_for_bit(nx, nu, q, M,
                                                          terminal, seed):
    rng = np.random.default_rng(seed)
    sub = _random_subproblem(rng, nx, nu, q, M, terminal)
    _assert_sweeps_match_reference(sub, rng)


@pytest.mark.parametrize("q", [0, 4])
def test_riccati_sweeps_equal_the_plain_loops_on_an_indefinite_input_block(
        q, monkeypatch):
    # a negative input weight and tiny row weights leave Quu indefinite, so
    # the 2x2 inverse takes its bump fallback
    inverted = []
    inv_pd = sqp._inv_pd

    def spy(Q):
        inverted.append(np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))))
        return inv_pd(Q)
    monkeypatch.setattr(sqp, "_inv_pd", spy)
    rng = np.random.default_rng(11)
    sub = _random_subproblem(rng, 3, 2, q, 12, True, uu_shift=-50.0)
    _assert_sweeps_match_reference(sub, rng, D_max=1e-6)
    assert min(inverted) < 0.0
