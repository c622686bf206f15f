import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmpc import sqp
from softmpc.sqp import (CONTROL_REG, STATUS_INFEASIBLE, STATUS_MAX_ITER,
                         STATUS_OPTIMAL, NlpDescription, SolverOptions, solve)


def _stepper(step, x0):
    """Whole-horizon dyn_f from x0 for a one-stage step(n, x, u)."""
    x0 = np.array(x0, dtype=float)

    def dyn_f(us):
        xs = np.empty((len(us) + 1, x0.size))
        xs[0] = x0
        for n, u in enumerate(us):
            xs[n + 1] = step(n, xs[n], u)
        return xs
    return dyn_f


def _no_rows(M, nz):
    """The stage_rows and stage_row_mask of a problem without stage rows:
    a provider of m = 0 rows and an (M, 0) mask."""
    def rows(xs, us):
        return np.zeros((M, 0)), np.zeros((M, 0, nz)), None
    return dict(stage_rows=rows, stage_row_mask=np.zeros((M, 0), dtype=bool))


def _linear_nlp(A, B, Q, R, P, x0, M, rows=None, **kw):
    """rows = (stage_rows, rows per stage), every row present at every stage;
    without rows, none. u_init defaults to zeros."""
    nx, nu = B.shape
    W = np.zeros((M, nx + nu, nx + nu))
    W[:, :nx, :nx] = Q
    W[:, nx:, nx:] = R
    if rows is None:
        kw.update(_no_rows(M, nx + nu))
    else:
        stage_rows, m = rows
        kw.update(stage_rows=stage_rows,
                  stage_row_mask=np.ones((M, m), dtype=bool))
    kw.setdefault("u_init", np.zeros((M, nu)))
    return NlpDescription(
        nx=nx, nu=nu, horizon=M,
        dyn_f=_stepper(lambda n, x, u: A @ x + B @ u, x0),
        dyn_jac=lambda xs, us: (np.broadcast_to(A, (M, nx, nx)),
                                np.broadcast_to(B, (M, nx, nu))),
        cost_W=W, cost_ref=np.zeros((M, nx + nu)),
        cost_P=P, cost_ref_M=np.zeros(nx), **kw)


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


def _box_rows(umin, umax, xmin, xmax, G=None):
    """Rows u <= umax, -u <= -umin, x <= xmax, -x <= -xmin, in this order,
    with G their global-block columns."""
    nxv, nuv = xmin.size, umin.size
    Cx = np.vstack([np.zeros((2 * nuv, nxv)), np.eye(nxv), -np.eye(nxv)])
    Cu = np.vstack([np.eye(nuv), -np.eye(nuv), np.zeros((2 * nxv, nuv))])
    return _constant_rows(np.concatenate([-umax, umin, -xmax, xmin]),
                          np.hstack([Cx, Cu]), G)


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


_DI_DT = 0.2
_DI = (np.array([[1.0, _DI_DT], [0.0, 1.0]]),       # A, B, Q, R, P
       np.array([[0.5 * _DI_DT * _DI_DT], [_DI_DT]]),
       np.diag([1.0, 0.1]), np.array([[0.2]]), np.diag([2.0, 0.5]))


def _box_double_integrators():
    """Ten double integrators with a random input box |u| <= umax and a
    state box that never binds: (nlp, x0, umax) each."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = int(rng.integers(3, 6))
        x0 = rng.uniform(-1.5, 1.5, 2)
        umax = rng.uniform(0.4, 1.2)
        rows = _box_rows(np.array([-umax]), np.array([umax]),
                         np.array([-50.0, -50.0]), np.array([50.0, 50.0]))
        yield _linear_nlp(*_DI, x0, M, rows=rows), x0, umax


def test_box_constrained_double_integrator_matches_enumeration():
    A, B, Q, R, P = _DI
    for nlp, x0, umax in _box_double_integrators():
        M = nlp.horizon
        rep = solve(nlp)
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
    # the slack moves the violated rows, so the penalty ladder decides
    assert rep2.sqp_iterations > 0


def _terminal_standstill_nlp(rows=None):
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q, R, P = np.diag([0.0, 0.0]), np.array([[1.0]]), np.zeros((2, 2))
    x0 = np.array([0.0, 1.0])
    # v_M <= 0 and -v_M <= 0: standstill at the end
    return _linear_nlp(A, B, Q, R, P, x0, 10, rows=rows,
                       terminal_C=np.array([[0.0, 1.0], [0.0, -1.0]]),
                       terminal_offset=np.zeros(2))


def test_terminal_rows_enforced():
    rep = solve(_terminal_standstill_nlp())
    assert rep.status == STATUS_OPTIMAL
    assert abs(rep.xs[-1, 1]) < 1e-6


def _count_point_calls(nlp) -> dict:
    """Wraps nlp's dyn_f and stage_rows to count their calls in the dict
    returned."""
    calls = {"dyn_f": 0, "stage_rows": 0}
    for name in calls:
        fn = getattr(nlp, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)
        setattr(nlp, name, counted)
    return calls


def test_each_point_is_one_rollout_and_one_row_call(monkeypatch):
    # what depends on the point comes in one whole-horizon call each, and
    # the terminal rows are data: a point costs one dyn_f and one
    # stage_rows call, whatever the horizon
    points = []
    evaluate = sqp._evaluate

    def evaluate_spy(nlp, layout, us, gamma):
        points.append(us)
        return evaluate(nlp, layout, us, gamma)
    monkeypatch.setattr(sqp, "_evaluate", evaluate_spy)
    nlp = _terminal_standstill_nlp(rows=_box_rows(
        np.array([-3.0]), np.array([3.0]), np.full(2, -50.0), np.full(2, 50.0)))
    calls = _count_point_calls(nlp)
    rep = solve(nlp)
    assert rep.status == STATUS_OPTIMAL
    assert len(points) > 1
    assert calls == {"dyn_f": len(points), "stage_rows": len(points)}


def _pinned_row_nlp(x0, c_u=0.0, c_gamma=0.0, M=10):
    """The double integrator from x0 = (p, v) with the stage rows
    p + c_u u - c_gamma gamma <= 1, -p <= 1 and |u| <= 5. With c_u = c_gamma
    = 0 the first two read the position alone: at stage 0, x0 pins them."""
    C = np.array([[1.0, 0.0, c_u], [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    kw, G = {}, None
    if c_gamma:
        G = np.array([[-c_gamma], [0.0], [0.0], [0.0]])
        kw = dict(n_gamma=1, gamma_weight=np.eye(1), gamma_lo=np.zeros(1),
                  gamma_hi=np.full(1, 10.0))
    rows = _constant_rows(np.array([-1.0, -1.0, -5.0, -5.0]), C, G)
    return _linear_nlp(*_DI, np.array(x0, dtype=float), M, rows=rows, **kw)


def test_pinned_row_exit_settles_at_the_start_point():
    # p0 = 2 breaks p <= 1 at stage 0 by 1, whatever the inputs: the solve
    # ends infeasible at the start point after its one evaluation
    nlp = _pinned_row_nlp([2.0, 0.0])
    calls = _count_point_calls(nlp)
    rep = solve(nlp)
    assert rep.status == STATUS_INFEASIBLE
    assert (rep.sqp_iterations, rep.ip_iterations) == (0, 0)
    assert rep.infeasibility_measure == 1.0
    assert calls == {"dyn_f": 1, "stage_rows": 1}
    assert np.array_equal(rep.us, np.zeros((nlp.horizon, 1)))
    assert rep.stationarity == rep.primal_infeasibility == np.inf
    assert rep.complementarity == np.inf
    assert rep.phase_s["factorize"] == rep.phase_s["backsolve"] == 0.0


@pytest.mark.parametrize("x0, kw, opts", [
    ([2.0, 0.0], dict(c_u=1.0), None),
    ([2.0, 0.0], dict(c_gamma=1.0), None),
    ([1.0 + 1e-6, 0.0], {}, None),
    ([1.0 + 1e-4, 0.0], {}, SolverOptions(tol_feasibility=1e-3)),
], ids=["row-reads-the-input", "row-reads-the-global-block",
        "within-infeasibility-tol", "within-tol-feasibility"])
def test_pinned_row_exit_needs_a_row_no_variable_moves(x0, kw, opts):
    # a step-0 row the input or the global block can move, or a violation
    # that some exit accepts, leaves the solve to the SQP loop
    rep = solve(_pinned_row_nlp(x0, **kw), opts)
    assert rep.sqp_iterations > 0
    if kw:
        assert rep.status == STATUS_OPTIMAL


@example(p0=1.0 + 2e-6, v0=0.0)
@example(p0=-3.0, v0=2.0)
@given(p0=st.floats(-3.0, 3.0), v0=st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_solves_the_pinned_row_exit_settles_end_unusable(p0, v0):
    # the same problem with the exit switched off: where it would settle the
    # solve, the SQP loop ends neither optimal nor within the 1e-6 violation
    # any caller accepts; elsewhere the exit changes nothing
    nlp = _pinned_row_nlp([p0, v0])
    rep = solve(nlp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sqp._Rows, "pinned_violation", lambda rows, nx: 0.0)
        full = solve(nlp)
    if rep.sqp_iterations == 0:
        assert full.sqp_iterations > 0
        assert full.status != STATUS_OPTIMAL
        assert full.infeasibility_measure > 1e-6
    else:
        assert (full.status, full.sqp_iterations) == (rep.status,
                                                       rep.sqp_iterations)
        assert np.array_equal(full.us, rep.us)


def _pendulum_nlp(theta0=0.6):
    # damped pendulum regulation, no rows
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
    return NlpDescription(nx=2, nu=1, horizon=M,
                          dyn_f=_stepper(f, [theta0, 0.0]), dyn_jac=jac,
                          cost_W=W, cost_ref=np.zeros((M, 3)),
                          cost_P=np.diag([20.0, 2.0]), cost_ref_M=np.zeros(2),
                          u_init=np.zeros((M, 1)), **_no_rows(M, 3))


def test_nonlinear_dynamics_pendulum_swing():
    # checks the SQP loop on nonlinear dynamics
    rep = solve(_pendulum_nlp())
    assert rep.status == STATUS_OPTIMAL
    assert abs(rep.xs[-1, 0]) < 0.05
    assert rep.stationarity <= 1e-6


def test_polish_streak_meets_the_no_progress_verdict(monkeypatch):
    # no iterate meets a stationarity target of 1e-15. The Gauss-Newton
    # steps of the pendulum swung out to 1.5 rad shrink only linearly, so
    # three full polish steps (feasible, at most 1e-3) are accepted in a
    # row, and the fourth, still above TOL_STEP, ends the streak: the
    # no-progress verdict returns max-iter without trying it
    steps, points = [], []
    ip_solve, evaluate = sqp._ip_solve, sqp._evaluate

    def ip_spy(sub, phase_s):
        iters = ip_solve(sub, phase_s)
        steps.append(float(np.max(np.abs(sub.w[:, sub.nlp.nx:]))))
        return iters

    def evaluate_spy(nlp, layout, us, gamma):
        points.append(us)
        return evaluate(nlp, layout, us, gamma)
    monkeypatch.setattr(sqp, "_ip_solve", ip_spy)
    monkeypatch.setattr(sqp, "_evaluate", evaluate_spy)
    rep = solve(_pendulum_nlp(theta0=1.5), SolverOptions(tol_stationarity=1e-15))
    assert rep.status == STATUS_MAX_ITER
    assert rep.sqp_iterations == len(steps) < SolverOptions().max_sqp_iter
    assert all(sqp.TOL_STEP < s <= 1e-3 for s in steps[-4:])
    assert steps[-5] > 1e-3
    # the starting point, then one full step per iteration but the last
    assert len(points) == rep.sqp_iterations
    moved = [float(np.max(np.abs(b - a))) for a, b in zip(points, points[1:])]
    np.testing.assert_allclose(moved[-3:], steps[-4:-1], rtol=1e-6)


# the exits without the multiplier certificate and with the 25-iteration
# stall exit the controller used before
TWO_QP_EXITS = SolverOptions(ip_stall_limit=25, multiplier_certificate=False)


@pytest.mark.parametrize("problems", [
    lambda: [nlp for nlp, _, _ in _box_double_integrators()],
    lambda: [_pendulum_nlp()],
    lambda: [_terminal_standstill_nlp()],
], ids=["box-double-integrator", "pendulum", "terminal-rows"])
def test_multiplier_certificate_skips_the_confirming_qp(problems):
    for nlp in problems():
        before = solve(nlp, TWO_QP_EXITS)
        # the certificate alone returns the same point: the QP it skips would
        # only have confirmed it. The skipped linearization still counts
        cert = solve(nlp, SolverOptions(ip_stall_limit=25))
        assert cert.status == before.status == STATUS_OPTIMAL
        assert np.max(np.abs(cert.us - before.us)) <= 1e-9
        assert cert.ip_iterations < before.ip_iterations
        assert cert.sqp_iterations == before.sqp_iterations
        assert cert.stationarity <= 1e-6 and cert.complementarity <= 1e-8
        # with the 6-iteration stall exit too, a stalled QP returns an
        # earlier iterate: the box problems' inputs move by up to 4e-7,
        # inside the stationarity target
        rep = solve(nlp)
        assert rep.status == STATUS_OPTIMAL
        assert np.max(np.abs(rep.us - before.us)) <= 1e-6
        assert rep.ip_iterations < before.ip_iterations


def test_inactive_rows_end_optimal_in_fewer_ip_iterations():
    # a double integrator whose rows all stay at least 2 inside their
    # bounds, like a cycle with no road user. The first QP stalls on row
    # complementarity: with the 25-iteration stall exit it ran 31 IP
    # iterations and a second QP confirmed in 6 more (37); now the stall
    # exit ends it after 12 and its duals certify the step's iterate
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    rows, m = _box_rows(np.array([-3.0]), np.array([3.0]),
                        np.array([-100.0, -3.0]), np.array([100.0, 3.0]))
    nlp = _linear_nlp(A, B, np.diag([1.0, 0.1]), np.array([[0.2]]),
                      np.diag([2.0, 0.5]), np.array([1.0, -0.5]), 30,
                      rows=(rows, m))
    before = solve(nlp, TWO_QP_EXITS)
    rep = solve(nlp)
    assert before.status == rep.status == STATUS_OPTIMAL
    assert (before.ip_iterations, rep.ip_iterations) == (37, 12)
    vals, _, _ = rows(rep.xs[:-1], rep.us)
    assert np.max(vals) < -2.0


def test_phase_times_are_part_of_the_wall_time():
    rng = np.random.default_rng(2)
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, 4, 2, 1)
    rows = _box_rows(np.full(2, -0.5), np.full(2, 0.5),
                     np.full(4, -100.0), np.full(4, 100.0))
    # with rows and without, both on the one interior-point loop
    for nlp in (_linear_nlp(A, B, Q, R, P, x0, 30, rows=rows),
                _linear_nlp(A, B, Q, R, P, x0, 30)):
        rep = solve(nlp)
        assert tuple(rep.phase_s) == sqp.PHASES
        assert all(t > 0.0 for t in rep.phase_s.values())
        assert sum(rep.phase_s.values()) <= rep.wall_time
        assert rep.to_dict()["phase_s"] == rep.phase_s


def _time_per_iteration_ratio(q: int) -> float:
    """CPU time per IP iteration at M=100 over the one at M=50, for a
    box-constrained LQR: with two inputs and no global block (q = 0, the
    banded LU), or with one input and one slack channel on its state box
    (q = 1, the Riccati sweep). Each round times the two horizons back to
    back, in alternating order, and the median of the rounds' ratios is
    returned: a slow stretch of a shared host moves the rounds it spans,
    not the median."""
    rng = np.random.default_rng(5)
    nu = 1 if q else 2
    A, B, Q, R, P, x0 = _random_lqr_instance(rng, 4, nu, 1)
    kw, G = {}, None
    if q:
        # the slack loosens the state box
        G = np.concatenate([np.zeros((2 * nu, 1)), -np.ones((8, 1))])
        kw = dict(n_gamma=1, gamma_weight=np.eye(1), gamma_lo=np.zeros(1),
                  gamma_hi=np.ones(1))
    rows = _box_rows(np.full(nu, -0.5), np.full(nu, 0.5),
                     np.full(4, -100.0), np.full(4, 100.0), G)
    nlps = {M: _linear_nlp(A, B, Q, R, P, x0, M, rows=rows, **kw)
            for M in (50, 100)}
    ratios = []
    for repeat in range(12):
        per_iter = {}
        for M in (50, 100) if repeat % 2 else (100, 50):
            # CPU time of this process: time spent descheduled on a busy
            # host does not count
            t0 = time.process_time()
            rep = solve(nlps[M])
            per_iter[M] = ((time.process_time() - t0)
                           / max(rep.ip_iterations, 1))
        if repeat:      # the first round warms up
            ratios.append(per_iter[100] / per_iter[50])
    return float(np.median(ratios))


def _assert_time_per_iteration_scales_linearly(q: int) -> None:
    # runtime per iteration should roughly double when the horizon doubles.
    # process_time counts every thread of the process, BLAS threads too, so
    # the loop runs in a child process that imports perfbench/run.py first:
    # it sets the variables of its BLAS_THREAD_VARS to 1 before numpy loads
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    paths = [os.path.join(root, "perfbench"), os.path.join(root, "src"), here]
    code = (f"import sys; sys.path[:0] = {paths!r}\n"
            "import run\n"
            "import test_sqp\n"
            f"print(test_sqp._time_per_iteration_ratio({q}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300)
    ratio = float(out.stdout.split()[-1])
    assert ratio <= 2.5, f"M=100 over M=50 per iteration: {ratio:.3f}"


def test_factorization_time_scales_linearly_in_horizon():
    # no global block: the banded LU
    _assert_time_per_iteration_scales_linearly(0)


def test_riccati_factorization_time_scales_linearly_in_horizon():
    # a global block and one input: the Riccati sweep and its Schur
    # complement
    _assert_time_per_iteration_scales_linearly(1)

# ---------------------------------------------------------------------------
# Riccati sweeps against the plain per-stage loops, bit for bit
# ---------------------------------------------------------------------------
# The solver's sweeps batch every product that does not depend on the
# previous stage and make the per-stage ones with ndarray.dot. The functions
# below are the plain loops they replaced, kept verbatim with `@` (the KKT
# residual loop too): every array the sweeps return must equal theirs
# exactly, since oracle labels are compared bit for bit downstream. Like
# the sweeps, they take the problems with a global block, which have one
# input (q >= 1, nu = 1; NlpDescription accepts no other shape with one).


def _reference_factorize(sub, D):
    nlp = sub.nlp
    M, nx, nu, q = nlp.horizon, nlp.nx, nlp.nu, nlp.n_gamma
    reg_eye = CONTROL_REG * np.eye(nu)

    H = nlp.cost_W.copy()
    U = np.zeros((M, nx + nu, q))
    P_M = nlp.cost_P.copy()
    Gamma = nlp.gamma_weight.copy()
    sub.rows.add_gram(D, H, U, P_M, Gamma)

    FTs = np.ascontiguousarray(sub.F.transpose(0, 2, 1))
    Ks = np.empty((M, nu, nx))
    Kgs = np.empty((M, nu, q))
    Quu_invs = np.empty((M, nu, nu))
    Qxus = np.empty((M, nx, nu))
    Qugs = np.empty((M, nu, q))
    Ps = np.empty((M + 1, nx, nx))
    Lams = np.empty((M + 1, nx, q))
    Ps[M] = P_M
    Lams[M] = Lam = np.zeros((nx, q))
    P = P_M
    for n in range(M - 1, -1, -1):
        F = sub.F[n]
        FT = FTs[n]
        Qzz = H[n] + FT @ (P @ F)
        Qxx = Qzz[:nx, :nx]
        Qxu = Qzz[:nx, nx:]
        Quu = 0.5 * (Qzz[nx:, nx:] + Qzz[nx:, nx:].T) + reg_eye
        Quu_inv = _reference_inv_pd(Quu)
        K = Quu_inv @ Qxu.T
        Quu_invs[n] = Quu_inv
        Ks[n] = K
        Qxus[n] = Qxu
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
    Gamma = 0.5 * (Gamma + Gamma.T)
    return {"FT": FTs, "Ks": Ks, "Kgs": Kgs, "Quu_invs": Quu_invs,
            "Qxus": Qxus, "Qugs": Qugs, "Ps": Ps, "Lams": Lams, "Gamma": Gamma}


def _reference_inv_pd(Q):
    v = Q[0, 0]
    if v <= 0.0:
        raise np.linalg.LinAlgError("non-positive control Hessian")
    return np.array([[1.0 / v]])


def _reference_backsolve(sub, fac, F, F_M, F_g, e):
    nlp = sub.nlp
    M, nx, nu = nlp.horizon, nlp.nx, nlp.nu

    r = -F.copy()
    r_M = -F_M.copy()
    r_g = -F_g.copy()
    sub.rows.add_transpose(-e, r, r_M, r_g)

    # backward linear sweep
    ks = np.empty((M, nu))
    ps = np.empty((M + 1, nx))
    ps[M] = -r_M
    p = -r_M          # p_n stores the value-function linear term (= -r at M)
    qg = -r_g
    Quu_invs = fac["Quu_invs"]
    Qxus = fac["Qxus"]
    for n in range(M - 1, -1, -1):
        qz = -r[n] + fac["FT"][n] @ p
        qx, qu = qz[:nx], qz[nx:]
        k = Quu_invs[n] @ qu
        ks[n] = k
        qg = qg - fac["Qugs"][n].T @ k
        p = qx - Qxus[n] @ k
        ps[n] = p

    dgamma = -np.linalg.solve(fac["Gamma"], qg)

    dw = np.zeros((M, nx + nu))
    dlam = np.empty((M, nx))
    dx = np.zeros(nx)
    for n in range(M):
        du = -(fac["Ks"][n] @ dx) - ks[n]
        du = du - fac["Kgs"][n] @ dgamma
        dw[n, :nx] = dx
        dw[n, nx:] = du
        dx = sub.A[n] @ dx + sub.B[n] @ du
        lam_next = fac["Ps"][n + 1] @ dx + ps[n + 1]
        lam_next = lam_next + fac["Lams"][n + 1] @ dgamma
        dlam[n] = -lam_next
    return dw, dx, dgamma, dlam


def _reference_nlp_kkt(sub, z):
    nlp, rows = sub.nlp, sub.rows
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

    k = 2 if terminal else 0
    Lg = rng.normal(size=(q, q))
    kw = dict(n_gamma=q, gamma_weight=Lg @ Lg.T + np.eye(q),
              gamma_lo=-np.ones(q), gamma_hi=np.ones(q)) if q else {}
    nlp = NlpDescription(
        nx=nx, nu=nu, horizon=M,
        dyn_f=_stepper(lambda n, x, u: A[n] @ x + B[n] @ u,
                       rng.normal(size=nx)),
        dyn_jac=lambda xs, us: (A, B),
        cost_W=W, cost_ref=rng.normal(size=(M, nz)),
        cost_P=np.eye(nx), cost_ref_M=rng.normal(size=nx),
        stage_rows=stage_rows, stage_row_mask=rng.random((M, m)) < 0.7,
        u_init=np.zeros((M, nu)), terminal_C=rng.normal(size=(k, nx)),
        terminal_offset=np.ones(k), **kw)
    us = rng.normal(size=(M, nu))
    gamma = rng.uniform(-0.5, 0.5, q)
    xs = nlp.dyn_f(us)
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
    z = rng.uniform(0.0, D_max, m)
    assert sqp._nlp_kkt(sub, z) == _reference_nlp_kkt(sub, z)
    return fac


@given(nx=st.integers(1, 7), q=st.sampled_from([1, 2, 4]),
       M=st.integers(1, 40), terminal=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# the shapes the sweeps run at: the oracle's longitudinal E1/E2 and lateral
# E3 problems
@example(nx=3, q=1, M=100, terminal=True, seed=3)
@example(nx=3, q=2, M=100, terminal=True, seed=4)
@example(nx=4, q=4, M=100, terminal=False, seed=5)
@settings(max_examples=80, deadline=None)
def test_riccati_sweeps_equal_the_plain_loops_bit_for_bit(nx, q, M, terminal,
                                                          seed):
    rng = np.random.default_rng(seed)
    sub = _random_subproblem(rng, nx, 1, q, M, terminal)
    _assert_sweeps_match_reference(sub, rng)


@pytest.mark.parametrize("nu, q, accepted", [
    (0, 0, False),
    (2, 1, False),
    (2, 0, True),
    (1, 1, True),
], ids=["no-input", "two-inputs-and-a-global-block", "two-inputs",
        "one-input-and-a-global-block"])
def test_a_global_block_needs_one_input(nu, q, accepted):
    # the banded LU takes any number of inputs; the Riccati sweep, which
    # serves the problems with a global block, inverts a 1x1 control Hessian
    args = (np.eye(2), np.ones((2, nu)), np.eye(2), np.eye(nu), np.eye(2),
            np.zeros(2), 5)
    kw = dict(n_gamma=q, gamma_weight=np.eye(q), gamma_lo=np.zeros(q),
              gamma_hi=np.ones(q)) if q else {}
    if not accepted:
        with pytest.raises(ValueError, match="nu must be at least 1, and 1 "
                                             "with a global block"):
            _linear_nlp(*args, **kw)
        return
    nlp = _linear_nlp(*args, **kw)
    assert (nlp.nu, nlp.n_gamma) == (nu, q)


@pytest.mark.parametrize("q", [1, 4])
@pytest.mark.parametrize("M", [1, 5])
def test_riccati_sweeps_and_the_plain_loops_raise_on_an_indefinite_input_block(
        q, M):
    # a negative input weight and tiny row weights leave the 1x1 Quu
    # negative: the sweep raises, as the banded LU does for a singular band,
    # instead of carrying an inverse of it into the next stages
    rng = np.random.default_rng(11)
    sub = _random_subproblem(rng, 3, 1, q, M, True, uu_shift=-50.0)
    D = rng.uniform(1e-9, 1e-6, sub.rows.n_rows)
    for factorize in (sqp._factorize, _reference_factorize):
        with pytest.raises(np.linalg.LinAlgError,
                           match="non-positive control Hessian"):
            factorize(sub, D)


def _reference_max_step(pairs, tau):
    """The fraction-to-boundary rule pair by pair, as the interior-point
    loop applied it before it stacked the pairs into one pass."""
    alpha = 1.0
    for v, dv in pairs:
        neg = dv < 0.0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-tau * v[neg] / dv[neg])))
    return min(alpha, 1.0)


@st.composite
def _ip_pairs(draw):
    """Four (value, direction) pairs of one length, as the interior-point
    loop holds (s, t, z, z0): values nonnegative, directions of any sign,
    some exactly zero."""
    size = draw(st.integers(1, 12))
    value = st.floats(0.0, 1e6)
    direction = st.one_of(st.floats(-1e6, 1e6), st.just(0.0),
                          st.floats(-1e-8, 1e-8))
    pair = st.tuples(st.lists(value, min_size=size, max_size=size),
                     st.lists(direction, min_size=size, max_size=size))
    return draw(st.lists(pair, min_size=4, max_size=4))


_NO_DESCENT = [([1.0, 0.0, 2.0], [0.0, 0.5, 0.0])] * 4   # and zero directions


@given(pairs=_ip_pairs(), tau=st.sampled_from([1.0, sqp.IP_TAU]))
@example(pairs=_NO_DESCENT, tau=1.0)
@example(pairs=_NO_DESCENT, tau=sqp.IP_TAU)
@settings(max_examples=200, deadline=None)
def test_max_step_in_one_pass_is_the_per_pair_rule(pairs, tau):
    pairs = [(np.array(v), np.array(dv)) for v, dv in pairs]
    got = sqp._max_step(np.concatenate([v for v, _ in pairs]),
                        np.concatenate([dv for _, dv in pairs]), tau)
    # a ratio over a subnormal direction overflows to inf: no bound
    with np.errstate(over="ignore"):
        want = _reference_max_step(pairs, tau)
    assert type(got) is float
    assert got.hex() == want.hex()


# ---------------------------------------------------------------------------
# The banded Newton step against the same system assembled densely
# ---------------------------------------------------------------------------
# A problem without a global block solves its Newton systems with one banded
# LU. _newton_system assembles that system densely from its definition, with
# the solver's sign convention (mu_n = -dlam_n), and np.linalg.solve (a dense
# LU) solves it in another order of operations, so the two steps agree to
# within rounding and the system's conditioning, not bit for bit.

BAND_RESIDUAL = 1e-12    # a banded step's residual, relative to |K| |x| + |b|
RECORDED_RTOL = 1e-10    # banded against dense steps of controller systems


def _newton_system(sub, D, F, F_M, e):
    """(K, b) of the Newton system of sub (no global block), unknowns
    ordered per stage as (dx_n, du_n, mu_n), then dx_M: stationarity
    H_n w_n + [A_n B_n]' mu_n - (mu_{n-1}, 0) = r_n with H_n = cost_W +
    C'DC + CONTROL_REG on the input diagonal, the linearized dynamics
    A_n dx_n + B_n du_n - dx_{n+1} = 0, P_M dx_M - mu_{M-1} = r_M, and
    dx_0 = 0 in place of x_0's stationarity rows."""
    nlp = sub.nlp
    M, nx, nu = nlp.horizon, nlp.nx, nlp.nu
    nz, s = nx + nu, 2 * nx + nu
    H, P_M = nlp.cost_W.copy(), nlp.cost_P.copy()
    _reference_add_gram(sub.rows, D, H, None, P_M, None)
    r, r_M = -F, -F_M
    sub.rows.add_transpose(-e, r, r_M, np.zeros(0))
    K = np.zeros((M * s + nx, M * s + nx))
    b = np.zeros(M * s + nx)
    for n in range(M):
        w = slice(n * s, n * s + nz)
        mu = slice(n * s + nz, (n + 1) * s)
        nxt = slice((n + 1) * s, (n + 1) * s + nx)
        K[w, w] = H[n] + np.diag(np.r_[np.zeros(nx), np.full(nu, CONTROL_REG)])
        K[mu, w] = sub.F[n]
        K[w, mu] = sub.F[n].T
        K[mu, nxt] = K[nxt, mu] = -np.eye(nx)
        b[w] = r[n]
    K[M * s:, M * s:] = P_M
    b[M * s:] = r_M
    K[:nx] = 0.0
    K[:nx, :nx] = np.eye(nx)
    b[:nx] = 0.0
    return K, b


def _as_vector(step):
    """A step (dw, dwM, dgamma, dlam) in _newton_system's unknowns."""
    dw, dwM, _, dlam = step
    return np.concatenate([np.concatenate([dw, -dlam], axis=1).ravel(), dwM])


def _band_step(sub, D, F, F_M, e):
    """The banded step of one Newton system as a vector, and the system
    (K, b). The step must meet the system to BAND_RESIDUAL, with dx_0 an
    exact zero."""
    K, b = _newton_system(sub, D, F, F_M, e)
    fac = sqp._band_factorize(sub, D)
    step = sqp._band_backsolve(sub, fac, F, F_M, np.zeros(0), e)
    assert step[2].size == 0
    assert not np.any(step[0][0, :sub.nlp.nx])
    band = _as_vector(step)
    scale = (np.max(np.sum(np.abs(K), axis=1)) * np.max(np.abs(band))
             + np.max(np.abs(b)))
    assert np.max(np.abs(K @ band - b)) <= BAND_RESIDUAL * scale
    return band, K, b


@given(nx=st.integers(1, 7), nu=st.integers(1, 3), M=st.integers(1, 40),
       terminal=st.booleans(), seed=st.integers(0, 2**32 - 1))
# the controller's nominal and relaxed problems
@example(nx=7, nu=2, M=100, terminal=True, seed=1)
@settings(max_examples=40, deadline=None)
def test_banded_step_meets_the_dense_newton_solve(nx, nu, M, terminal, seed):
    # the random problems' dynamics are unstable and D spans 22 decades, so
    # the system is ill-conditioned: the banded and the dense step may
    # differ by as much as their residuals allow, band - dense =
    # K^-1 (residual_band - residual_dense), with a factor 2 for the
    # rounding of those terms. The banded path takes any number of inputs
    rng = np.random.default_rng(seed)
    sub = _random_subproblem(rng, nx, nu, 0, M, terminal)
    D = 10.0 ** rng.uniform(-12.0, 10.0, sub.rows.n_rows)
    F = rng.normal(size=(M, nx + nu))
    F[0, :nx] = 0.0          # as _Subproblem.stationarity leaves it
    rhs = (F, rng.normal(size=nx), rng.normal(size=sub.rows.n_rows))
    band, K, b = _band_step(sub, D, *rhs)
    dense = np.linalg.solve(K, b)
    residuals = np.max(np.abs(K @ band - b)) + np.max(np.abs(K @ dense - b))
    K_inv = np.max(np.sum(np.abs(np.linalg.inv(K)), axis=1))
    assert np.max(np.abs(band - dense)) <= (2.0 * K_inv * residuals
                                            + 1e-15 * np.max(np.abs(dense)))
    # the KKT residual loop serves both paths
    z = rng.uniform(0.0, 1e2, sub.rows.n_rows)
    assert sqp._nlp_kkt(sub, z) == _reference_nlp_kkt(sub, z)


def test_banded_steps_match_the_dense_solve_on_recorded_cutin_systems(
        monkeypatch):
    # the first 40 Newton systems the controller solves in the cut-in
    # benchmark's cycle k = 67 (scenario1, oracle route, from the plant
    # state the full closed loop reaches there)
    import json
    from softmpc import simkit
    from softmpc.environment import build_profile
    config = simkit.load_scenario(os.path.join(CONFIGS, "scenario1.ini"))
    with open(os.path.join(os.path.dirname(CONFIGS), "perfbench",
                           "reference", "cutin.json")) as f:
        k, x = next((w["start"], np.array(w["x0"]))
                    for w in json.load(f)["windows"] if w["start"] == 67)
    recorded, last_D = [], {}
    band_factorize, band_backsolve = sqp._band_factorize, sqp._band_backsolve

    def factorize_spy(sub, D):
        last_D[id(sub)] = D.copy()
        return band_factorize(sub, D)

    def backsolve_spy(sub, fac, F, F_M, F_g, e):
        if len(recorded) < 40:
            recorded.append((sub, last_D[id(sub)], F.copy(), F_M.copy(),
                             e.copy()))
        return band_backsolve(sub, fac, F, F_M, F_g, e)
    monkeypatch.setattr(sqp, "_band_factorize", factorize_spy)
    monkeypatch.setattr(sqp, "_band_backsolve", backsolve_spy)
    ctrl = simkit.build_controller(config, use_oracle=True)
    t_s = config.horizon.t_s
    ctrl.step(x, build_profile(
        ctrl.path, config.cut_in.state_at(k * t_s, config.ego_s0),
        config.horizon.n_constraint, t_s, config.growth, ctrl.stack.d_safe,
        evasive=config.evasive))
    assert len(recorded) == 40
    assert max(float(np.max(D)) for _, D, _, _, _ in recorded) >= 1e8
    for sub, D, F, F_M, e in recorded:
        band, K, b = _band_step(sub, D, F, F_M, e)
        dense = np.linalg.solve(K, b)
        assert (np.max(np.abs(band - dense))
                <= RECORDED_RTOL * np.max(np.abs(dense)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["terminal-D", "stage-D", "stage-C",
                                   "stage-A"])
def test_a_non_finite_band_raises(where, bad):
    # D[-1] weighs a terminal row; the stage row and the state Jacobian
    # entry sit at the last row and stage of the first stage group, past
    # stage 0 (whose state rows the band replaces by the identity), so the
    # banded path's stage-group Gram, one matmul, carries them into H. The
    # dynamics entry sits in A_5, the last stage's, which the QP's band
    # template holds in F_5 = [A_5 B_5] and F_5'
    rng = np.random.default_rng(4)
    sub = _random_subproblem(rng, 3, 2, 0, 6, True)
    D = np.ones(sub.rows.n_rows)
    stages, ridx, C, _ = sub.rows.groups[0]
    assert stages[-1] > 0
    if where == "terminal-D":
        D[-1] = bad
    elif where == "stage-D":
        D[ridx[-1, -1]] = bad
    elif where == "stage-C":
        C[-1, -1, 0] = bad
    else:
        sub.A[5, 1, 0] = sub.F[5, 1, 0] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        sqp._band_factorize(sub, D)


def test_a_band_template_survives_the_factorizations_of_its_qp():
    # each IP iteration factors a copy of the QP's band template in place
    # (dgbtrf overwrites its input): factoring one subproblem with two D in
    # turn gives the LU and steps of two fresh subproblems, bit for bit,
    # and leaves the template as it was made
    sub = _random_subproblem(np.random.default_rng(8), 3, 2, 0, 7, True)
    rng = np.random.default_rng(9)
    template = sub.band_template.copy()
    for _ in range(2):
        D = 10.0 ** rng.uniform(-6.0, 6.0, sub.rows.n_rows)
        F = rng.normal(size=(7, 5))
        F[0, :3] = 0.0
        rhs = (F, rng.normal(size=3), np.zeros(0),
               rng.normal(size=sub.rows.n_rows))
        fresh = _random_subproblem(np.random.default_rng(8), 3, 2, 0, 7, True)
        got, want = sqp._band_factorize(sub, D), sqp._band_factorize(fresh, D)
        assert all(_same_bits(g, w) for g, w in zip(got[1:], want[1:]))
        steps = zip(sqp._band_backsolve(sub, got, *rhs),
                    sqp._band_backsolve(fresh, want, *rhs))
        assert all(_same_bits(g, w) for g, w in steps)
        assert _same_bits(sub.band_template, template)


def test_a_singular_band_raises():
    # no state cost and an input weight that cancels CONTROL_REG exactly:
    # the last input moves only x_M, which nothing weighs, so the Newton
    # system has no curvature in it, and dgbtrf meets a zero pivot. The one
    # row, x <= 10, reads the state alone and keeps the start from being a
    # stationary point (without rows the QP would end before factorizing)
    one = np.eye(1)
    rows = _constant_rows(np.array([-10.0]), np.array([[1.0, 0.0]]))
    nlp = _linear_nlp(one, one, 0.0 * one, -CONTROL_REG * one, 0.0 * one,
                      np.ones(1), 4, rows=rows)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve(nlp)


def test_a_row_free_qp_that_starts_at_its_optimum_ends_unfactorized():
    # the one interior-point loop with no rows: at x0 = 0 the zero plan is
    # the LQR optimum, so the first iterate meets every target and the
    # solve ends optimal without a factorization or a back-solve
    nlp = _linear_nlp(*_DI, np.zeros(2), 10)
    assert nlp.stage_row_mask.shape == (10, 0)
    rep = solve(nlp)
    assert rep.status == STATUS_OPTIMAL
    assert (rep.sqp_iterations, rep.ip_iterations) == (1, 1)
    assert rep.phase_s["factorize"] == rep.phase_s["backsolve"] == 0.0
    assert not np.any(rep.us)


@pytest.mark.parametrize("kw, path", [
    (dict(), "band"),
    (dict(rows=True), "band"),
    (dict(rows=True, q=1), "riccati"),
], ids=["no-rows", "rows", "rows-and-global-block"])
def test_the_global_block_alone_chooses_the_newton_path(kw, path,
                                                         monkeypatch):
    calls = dict.fromkeys(("_factorize", "_backsolve", "_band_factorize",
                           "_band_backsolve"), 0)
    for name in calls:
        def counted(*args, fn=getattr(sqp, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(sqp, name, counted)
    nlp = (_pinned_row_nlp([0.5, 0.0], c_gamma=float(kw.get("q", 0)))
           if kw else _linear_nlp(*_DI, np.array([0.5, 0.0]), 10))
    assert nlp.n_gamma == kw.get("q", 0)
    rep = solve(nlp)
    assert rep.status == STATUS_OPTIMAL
    used = {"band": ("_band_factorize", "_band_backsolve"),
            "riccati": ("_factorize", "_backsolve")}[path]
    assert all(calls[name] > 0 for name in used)
    assert all(calls[name] == 0 for name in calls if name not in used)


# _Rows.add_gram sums each stage group's C'DC with one batched matmul when
# there is no global block (the banded path) and with the einsums the
# oracle's labels were recorded with when there is one (the Riccati path).
# Those einsums are the reference: bit for bit with a global block, and
# within the rounding of two sums of the same terms without one.


def _reference_add_gram(rows, D, H, U, P_M, Gamma):
    for stages, ridx, C, G in rows.groups:
        Dr = D[ridx]
        H[stages] += np.einsum("kmi,km,kmj->kij", C, Dr, C)
        if G is not None:
            U[stages] += np.einsum("kmi,km,kmj->kij", C, Dr, G)
            Gamma += np.einsum("kmi,km,kmj->ij", G, Dr, G)
    if rows.term is not None:
        sl, Cx = rows.term
        P_M += Cx.T @ (D[sl][:, None] * Cx)
    if rows.glob is not None:
        sl, G = rows.glob
        Gamma += G.T @ (D[sl][:, None] * G)


def _same_bits(got, want) -> bool:
    return (got is None) == (want is None) and (
        got is None or (got.shape == want.shape
                        and got.tobytes() == want.tobytes()))


def _gram_targets(rng, nlp):
    """Targets H, U, P_M, Gamma of the shapes _factorize passes, holding
    nonzero, +0.0 and -0.0 entries."""
    M, nz, q = nlp.horizon, nlp.nx + nlp.nu, nlp.n_gamma
    H = rng.normal(size=(M, nz, nz))
    H[rng.random(H.shape) < 0.4] = 0.0
    H[rng.random(H.shape) < 0.1] = -0.0
    U = np.zeros((M, nz, q)) if q else None
    if q:
        U[rng.random(U.shape) < 0.1] = -0.0
    Gamma = np.where(rng.random((q, q)) < 0.3, 0.0, 1e-3) if q else None
    return H, U, rng.normal(size=(nlp.nx, nlp.nx)), Gamma


def _copies(targets):
    return [None if t is None else t.copy() for t in targets]


def _gram_mismatches(rows, D, targets, got) -> list:
    """The names of the targets whose sums got (add_gram's, onto copies of
    targets) miss the reference's. With a global block every sum must equal
    it bit for bit. Without one, P_M must, and each stage group's H must lie
    within 2 (m + 1) 2^-52 (|H_0| + |C|' |D| |C|) of it, H_0 the target
    before the call and m the group's row count: two sums of the m terms
    and H_0, each in its own order, each term a product of three floats."""
    want = _copies(targets)
    _reference_add_gram(rows, D, *want)
    names = ("H", "U", "P_M", "Gamma")
    if rows.glob is not None:
        return [n for n, g, w in zip(names, got, want) if not _same_bits(g, w)]
    H_0 = targets[0]
    bound = np.zeros_like(H_0)
    for stages, ridx, C, _ in rows.groups:
        C_abs = np.abs(C)
        bound[stages] = 2 * (ridx.shape[1] + 1) * 2.0**-52 * (
            np.abs(H_0[stages])
            + np.einsum("kmi,km,kmj->kij", C_abs, np.abs(D[ridx]), C_abs))
    out = [] if _same_bits(got[2], want[2]) else ["P_M"]
    if not np.all(np.abs(got[0] - want[0]) <= bound):
        out.append("H")
    return out


def _patterned_rows_nlp(rng, nx, nu, q, M, m, patterns, terminal):
    """A problem whose stage rows have a row pattern: each row reads 1-4
    columns, each zero at a random share of the stages, with exact 0.0 and
    -0.0 entries; each row reads at most one slack channel, and the stages
    fall into up to `patterns` groups that all add into one Gamma."""
    nz = nx + nu
    C = np.zeros((M, m, nz))
    for r in range(m):
        cols = rng.choice(nz, size=min(nz, int(rng.integers(1, 5))),
                          replace=False)
        vals = rng.normal(size=(M, cols.size)) * 10.0 ** rng.integers(
            -4, 5, size=(M, cols.size))
        vals[rng.random(vals.shape) < rng.random(cols.size)] = 0.0
        vals[rng.random(vals.shape) < 0.1] = -0.0
        C[:, r, cols] = vals
    G = None
    if q:
        G = np.zeros((M, m, q))
        for r in np.flatnonzero(rng.random(m) < 0.7):
            G[:, r, rng.integers(q)] = rng.choice([-1.0, 1.0, 2.5, -0.0, 0.0])
    masks = rng.random((patterns, m)) < 0.7
    mask = masks[rng.integers(patterns, size=M)]

    def stage_rows(xs, us):
        return np.zeros((M, m)), C, G

    k = 2 if terminal else 0
    kw = dict(n_gamma=q, gamma_weight=np.eye(q), gamma_lo=-np.ones(q),
              gamma_hi=np.ones(q)) if q else {}
    return NlpDescription(
        nx=nx, nu=nu, horizon=M, dyn_f=lambda us: np.zeros((M + 1, nx)),
        dyn_jac=None, cost_W=np.zeros((M, nz, nz)),
        cost_ref=np.zeros((M, nz)), cost_P=np.eye(nx),
        cost_ref_M=np.zeros(nx), stage_rows=stage_rows, stage_row_mask=mask,
        u_init=np.zeros((M, nu)), terminal_C=rng.normal(size=(k, nx)),
        terminal_offset=np.ones(k), **kw)


def _rows_at_start(nlp):
    us, gamma = nlp.u_init, np.zeros(nlp.n_gamma)
    return sqp._Rows(nlp, sqp._Layout(nlp), nlp.dyn_f(us), us, gamma)


@given(nx=st.integers(1, 7), nu=st.sampled_from([1, 2]),
       q=st.integers(0, 4), M=st.integers(1, 30), m=st.integers(1, 9),
       patterns=st.integers(1, 3), terminal=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# the controller's stage groups (80 x 35 x 9 and 20 x 23 x 9 at M = 100)
# and the oracle's longitudinal and lateral ones, with their slack blocks
@example(nx=7, nu=2, q=0, M=100, m=35, patterns=2, terminal=True, seed=1)
@example(nx=3, nu=1, q=2, M=100, m=9, patterns=1, terminal=True, seed=2)
@example(nx=4, nu=1, q=4, M=100, m=22, patterns=2, terminal=False, seed=3)
@settings(max_examples=80, deadline=None)
def test_row_gram_matches_the_einsum(nx, nu, q, M, m, patterns, terminal,
                                     seed):
    nu = 1 if q else nu     # a global block comes with one input
    rng = np.random.default_rng(seed)
    nlp = _patterned_rows_nlp(rng, nx, nu, q, M, m, patterns, terminal)
    rows = _rows_at_start(nlp)
    targets = _gram_targets(rng, nlp)
    D = 10.0 ** rng.uniform(-12.0, 10.0, rows.n_rows)
    got = _copies(targets)
    rows.add_gram(D, *got)
    assert _gram_mismatches(rows, D, targets, got) == []


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_row_gram_matches_the_einsum_on_recorded_problems(monkeypatch):
    # every add_gram call of short closed loops of the shipped configs and
    # of a few oracle labels, against the einsum on the same targets
    import dataclasses
    from softmpc import dynamics as dyn
    from softmpc import simkit
    from softmpc.environment import build_profile
    from softmpc.oracle import generate_dataset
    checked = []
    add_gram = sqp._Rows.add_gram

    def compared(rows, D, H, U, P_M, Gamma):
        targets = _copies((H, U, P_M, Gamma))
        add_gram(rows, D, H, U, P_M, Gamma)
        checked.append((max(int(np.max(np.sum(np.any(C != 0.0, axis=0), axis=1)))
                            for _, _, C, _ in rows.groups),
                        Gamma is not None,
                        not _gram_mismatches(rows, D, targets,
                                             (H, U, P_M, Gamma))))

    monkeypatch.setattr(sqp._Rows, "add_gram", compared)
    configs = {name: simkit.load_scenario(os.path.join(CONFIGS, name + ".ini"))
               for name in ("scenario1", "scenario2")}
    for config in configs.values():
        t_s = config.horizon.t_s
        simkit.run(dataclasses.replace(config, duration=3 * t_s),
                   use_oracle=True)
    # scenario2's controller at a steering state, where its comfort rows
    # read three columns; the cycle escalates to E3
    config = configs["scenario2"]
    ctrl = simkit.build_controller(config, use_oracle=True)
    ctrl.step(dyn.state(s=config.ego_s0, v=config.ego_v0, delta=0.02,
                        e_psi=0.02),
              build_profile(ctrl.path, None, config.horizon.n_constraint,
                            config.horizon.t_s, config.growth,
                            ctrl.stack.d_safe, evasive=config.evasive))
    for name, mode_name in (("scenario1", "E2"), ("scenario2", "E3")):
        config = configs[name]
        mode, kind, _ = next(s for s in config.mode_specs
                             if s[0].name == mode_name)
        generate_dataset(simkit.scenario_template(config, kind), mode, 3,
                         seed=1000, workers=1)
    assert len(checked) > 300
    assert all(ok for _, _, ok in checked)
    assert {cols for cols, _, _ in checked} >= {2, 3}
    assert {glob for _, glob, _ in checked} == {False, True}
