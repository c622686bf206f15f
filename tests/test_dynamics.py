import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmpc import dynamics as dyn
from softmpc.dynamics import VehicleParams, comfort_quantities, f_discrete, jacobians, state
from softmpc.path import PathRangeError, circular_path, clothoid_path, straight_path

PARAMS = VehicleParams()


def _xdot(x, u, path, params=PARAMS):
    """The continuous-time derivative dynamics.f_continuous."""
    return dyn.f_continuous(x, u, path, params)


def test_steady_straight_driving():
    path = straight_path(300.0)
    xdot = _xdot(state(v=10.0), np.zeros(2), path)
    np.testing.assert_allclose(xdot, [10.0, 0, 0, 0, 0, 0, 0], atol=1e-14)


def test_accel_filter_at_equilibrium():
    path = straight_path(300.0)
    xdot = _xdot(state(v=10.0, a=2.0), np.array([0.0, 2.0]), path)
    assert xdot[dyn.IDX_S] == pytest.approx(10.0)
    assert xdot[dyn.IDX_V] == pytest.approx(2.0)
    assert xdot[dyn.IDX_A] == pytest.approx(0.0)  # a_req == a


def test_continuous_model_against_symbolic_evaluation():
    # circle R=100, x=(0, 0.5, 0.02, 0.01, 0, 15, 0), u=(0.01, 0); values frozen
    # from an independent symbolic evaluation of the model equations.
    path = circular_path(radius=100.0, arc=200.0)
    x = state(s=0.0, e_y=0.5, e_psi=0.02, delta=0.01, alpha=0.0, v=15.0, a=0.0)
    u = np.array([0.01, 0.0])
    xdot = _xdot(x, u, path)
    expected = [15.072361909546399, 0.2999800003999962, -0.09899775695753016,
                0.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(xdot, expected, rtol=1e-12, atol=1e-13)


def test_singularity_raises():
    path = circular_path(radius=10.0, arc=50.0)
    with pytest.raises(dyn.FrenetSingularity):
        _xdot(state(e_y=10.0, v=5.0), np.zeros(2), path)


def test_discrete_zero_step_limit():
    path = straight_path(100.0)
    x = state(s=5.0, e_y=0.1, e_psi=0.02, delta=0.01, alpha=0.05, v=12.0, a=0.5)
    x_next = f_discrete(x, np.array([0.02, 1.0]), path, PARAMS, t_s=1e-9)
    np.testing.assert_allclose(x_next, x, atol=1e-7)


def test_discrete_matches_fine_step_euler():
    # one RK4 step vs a t_s/1000 Euler oracle; t_s small enough that both
    # resolve the fast steering filter to the 1e-6 comparison level
    path = straight_path(100.0)
    x = state(s=5.0, e_y=0.2, e_psi=0.01, delta=0.02, alpha=0.0, v=15.0, a=0.0)
    u = np.array([0.03, 1.5])
    t_s = 0.01
    x_rk4 = f_discrete(x, u, path, PARAMS, t_s)
    x_euler = x.copy()
    n_sub = 20_000  # first-order oracle needs h ~ 5e-7 to sit below the 1e-6 bar
    for _ in range(n_sub):
        x_euler = x_euler + (t_s / n_sub) * _xdot(x_euler, u, path)
    np.testing.assert_allclose(x_rk4, x_euler, atol=1e-6)


def test_standstill_speed_projection():
    path = straight_path(100.0)
    x = state(s=5.0, v=0.0)
    x_next = f_discrete(x, np.array([0.0, PARAMS.accel_max]), path, PARAMS, 0.1,
                        project_speed=True)
    assert x_next[dyn.IDX_V] >= 0.0
    # hard braking from standstill must not produce reverse motion
    x_brake = f_discrete(state(s=5.0, v=0.0, a=-1.0),
                         np.array([0.0, PARAMS.accel_min]),
                         path, PARAMS, 0.1, project_speed=True)
    assert x_brake[dyn.IDX_V] == 0.0


def test_rk4_order_of_accuracy():
    # halving the step should shrink the one-step error by >= 16x (O(h^5) local)
    path = clothoid_path(200.0, 1e-4, spacing=0.2)
    x = state(s=20.0, e_y=0.3, e_psi=0.02, delta=0.03, alpha=0.1, v=18.0, a=0.5)
    u = np.array([0.05, 1.0])

    def reference(x0, h, substeps=400):
        xs = x0.copy()
        for _ in range(substeps):
            xs = f_discrete(xs, u, path, PARAMS, h / substeps)
        return xs

    errs = []
    for h in (0.2, 0.1):
        err = np.linalg.norm(f_discrete(x, u, path, PARAMS, h) - reference(x, h))
        errs.append(err)
    assert errs[0] / errs[1] >= 16.0


def _fd_jacobians(x, u, path, t_s, h=1e-6):
    A = np.zeros((dyn.NX, dyn.NX))
    B = np.zeros((dyn.NX, dyn.NU))
    for j in range(dyn.NX):
        dx = np.zeros(dyn.NX)
        dx[j] = h
        A[:, j] = (f_discrete(x + dx, u, path, PARAMS, t_s)
                   - f_discrete(x - dx, u, path, PARAMS, t_s)) / (2.0 * h)
    for j in range(dyn.NU):
        du = np.zeros(dyn.NU)
        du[j] = h
        B[:, j] = (f_discrete(x, u + du, path, PARAMS, t_s)
                   - f_discrete(x, u - du, path, PARAMS, t_s)) / (2.0 * h)
    return A, B


def test_jacobians_match_finite_differences_on_random_states():
    path = clothoid_path(400.0, 5e-5, spacing=0.5)
    rng = np.random.default_rng(42)
    t_s = 0.1
    xs, us = [], []
    for _ in range(200):
        xs.append(state(
            s=rng.uniform(5.0, 360.0),
            e_y=rng.uniform(-1.5, 1.5),
            e_psi=rng.uniform(-0.25, 0.25),
            delta=rng.uniform(-0.4, 0.4),
            alpha=rng.uniform(-0.5, 0.5),
            v=rng.uniform(0.0, 30.0),
            a=rng.uniform(-6.0, 3.0),
        ))
        us.append(np.array([rng.uniform(-0.4, 0.4), rng.uniform(-6.0, 3.0)]))
    As, Bs = jacobians(np.array(xs), np.array(us), path, PARAMS, t_s)
    for x, u, A, B in zip(xs, us, As, Bs):
        # the stages of a horizon pass do not mix: one point alone gives
        # the same bits
        A1, B1 = jacobians(x[None], u[None], path, PARAMS, t_s)
        assert np.array_equal(A1[0], A) and np.array_equal(B1[0], B)
        A_fd, B_fd = _fd_jacobians(x, u, path, t_s)
        scale_A = np.maximum(np.abs(A_fd), 1.0)
        scale_B = np.maximum(np.abs(B_fd), 1.0)
        assert np.max(np.abs(A - A_fd) / scale_A) < 1e-4
        assert np.max(np.abs(B - B_fd) / scale_B) < 1e-4


def test_jacobian_lateral_coupling_block():
    # straight path, delta=0: de_y+/de_psi equals v*t_s to first order in t_s
    path = straight_path(200.0)
    v = 20.0
    t_s = 0.01
    A, _ = jacobians(state(s=10.0, v=v)[None], np.zeros((1, 2)), path,
                     PARAMS, t_s)
    assert A[0, dyn.IDX_EY, dyn.IDX_EPSI] == pytest.approx(v * t_s, rel=1e-3)


def test_horizon_jacobians_keep_range_and_singularity_checks():
    # one bad point among good ones stops the whole pass
    path = circular_path(radius=10.0, arc=50.0)
    xs = np.array([state(s=5.0, v=5.0)] * 3)
    us = np.zeros((3, 2))
    beyond = xs.copy()
    beyond[1, dyn.IDX_S] = 60.0
    with pytest.raises(PathRangeError):
        jacobians(beyond, us, path, PARAMS, 0.1)
    singular = xs.copy()
    singular[2, dyn.IDX_EY] = 10.0
    with pytest.raises(dyn.FrenetSingularity):
        jacobians(singular, us, path, PARAMS, 0.1)


def test_input_column_structure():
    path = straight_path(200.0)
    x = state(s=10.0, v=15.0)
    _, _, B_cont = dyn._derivatives(x[None], np.zeros((1, 2)), path, PARAMS)
    # a_req only drives the acceleration row in continuous time
    col = B_cont[:, 1]
    assert col[dyn.IDX_A] == pytest.approx(PARAMS.accel_tc)
    assert np.all(col[:dyn.IDX_A] == 0.0)


def test_comfort_quantities():
    assert comfort_quantities(state(v=0.0, delta=0.3, alpha=1.0), PARAMS) == (0.0, 0.0)
    a_y, j_y = comfort_quantities(state(v=20.0, delta=0.01), PARAMS)
    assert a_y == pytest.approx(1.3793563236782354, rel=1e-12)
    assert j_y == 0.0
    a_y, j_y = comfort_quantities(state(v=10.0, delta=0.0, alpha=0.1), PARAMS)
    assert a_y == 0.0
    assert j_y == pytest.approx(3.4482758620689653, rel=1e-12)


def test_comfort_even_in_speed_sign():
    x_pos = state(v=12.0, delta=0.1, alpha=0.2)
    x_neg = state(v=-12.0, delta=0.1, alpha=0.2)
    assert comfort_quantities(x_pos, PARAMS) == comfort_quantities(x_neg, PARAMS)


def test_comfort_jacobians_match_fd():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = state(v=rng.uniform(0, 30), delta=rng.uniform(-0.4, 0.4),
                  alpha=rng.uniform(-0.5, 0.5))
        g_ay, g_jy = dyn.comfort_jacobians(x, PARAMS)
        h = 1e-7
        for j in range(dyn.NX):
            dx = np.zeros(dyn.NX)
            dx[j] = h
            ay_p, jy_p = comfort_quantities(x + dx, PARAMS)
            ay_m, jy_m = comfort_quantities(x - dx, PARAMS)
            assert g_ay[j] == pytest.approx((ay_p - ay_m) / (2 * h), abs=1e-5)
            assert g_jy[j] == pytest.approx((jy_p - jy_m) / (2 * h), abs=1e-5)


# ---------------------------------------------------------------------------
# The float RK4 step against the array form, bit for bit
# ---------------------------------------------------------------------------
# The model steps one state at a time on Python floats. The functions below
# are the array-form step it replaced, kept verbatim (the curvature lookup
# with them): rollout and f_discrete must return exactly what they return,
# and raise the same error, since decisions and oracle labels are compared
# bit for bit downstream.


def _reference_curvature_at(path, s):
    s = path._check_range(s)
    return float(np.interp(s, path.s, path.curvature))


def _reference_f_continuous(x, u, path, params):
    s, e_y, e_psi, delta, alpha, v, a = x.tolist()
    u0, u1 = u
    kappa = _reference_curvature_at(path, s)
    den = 1.0 - kappa * e_y
    if abs(den) < 1e-9:
        raise dyn.FrenetSingularity(f"kappa*e_y = {kappa * e_y:.6g} at s = {s:.6g}")
    s_dot = v * math.cos(e_psi) / den
    return np.array([
        s_dot,
        v * math.sin(e_psi),
        v * math.tan(delta) / params.wheelbase - s_dot * kappa,
        alpha,
        params.steer_w0 ** 2 * (u0 - delta) - 2.0 * params.steer_w0 * params.steer_w1 * alpha,
        a,
        params.accel_tc * (u1 - a),
    ])


def reference_f_discrete(x, u, path, params, t_s, project_speed=False):
    if t_s <= 0.0:
        raise ValueError("t_s must be positive")
    u = np.asarray(u, dtype=float)
    k1 = _reference_f_continuous(x, u, path, params)
    k2 = _reference_f_continuous(x + 0.5 * t_s * k1, u, path, params)
    k3 = _reference_f_continuous(x + 0.5 * t_s * k2, u, path, params)
    k4 = _reference_f_continuous(x + t_s * k3, u, path, params)
    x_next = x + (t_s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if project_speed and x_next[dyn.IDX_V] < 0.0:
        x_next = x_next.copy()
        x_next[dyn.IDX_V] = 0.0
    return x_next


def _reference_rollout(x0, us, path, params, t_s):
    xs = np.empty((len(us) + 1, dyn.NX))
    xs[0] = x0
    for n, u in enumerate(us):
        xs[n + 1] = reference_f_discrete(xs[n], u, path, params, t_s)
    return xs


# the circle's radius is reachable by e_y: kappa * e_y = 1 is the singularity
_RADIUS = 12.0
_PATHS = {"straight": straight_path(150.0),
          "circle": circular_path(radius=_RADIUS, arc=150.0),
          "clothoid": clothoid_path(150.0, 2e-3, spacing=0.37)}


def _outcome(fn, *args, **kw):
    """fn's array, or the type and message of the model error it raised."""
    try:
        return fn(*args, **kw)
    except (dyn.FrenetSingularity, PathRangeError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    """The same error, or the same floats by float.hex: np.array_equal
    would take -0.0 for 0.0 and no NaN for itself."""
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert ([v.hex() for v in got.ravel().tolist()]
                == [v.hex() for v in want.ravel().tolist()])


@given(path_name=st.sampled_from(sorted(_PATHS)),
       x0=st.tuples(*(st.floats(lo, hi) for lo, hi in (
           (0.0, 140.0), (-14.0, 14.0), (-0.4, 0.4), (-0.5, 0.5), (-0.6, 0.6),
           (-5.0, 36.0), (-9.0, 3.0)))),
       M=st.integers(1, 40), project_speed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(path_name="circle", x0=(20.0, _RADIUS, 0.0, 0.0, 0.0, 10.0, 0.0),
         M=3, project_speed=False, seed=0)       # FrenetSingularity at k1
@example(path_name="straight", x0=(149.0, 0.0, 0.0, 0.0, 0.0, 30.0, 0.0),
         M=3, project_speed=False, seed=0)       # PathRangeError at k2
@example(path_name="straight", x0=(5.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0),
         M=5, project_speed=True, seed=1)        # projected standstill
# the straight path's lookup: s within 1e-9 of each end is in range (k1)
@example(path_name="straight", x0=(-5e-10, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0),
         M=3, project_speed=False, seed=2)
@example(path_name="straight", x0=(150.0 + 5e-10, 0.0, 0.0, 0.0, 0.0, -5.0,
                                   0.0), M=3, project_speed=False, seed=2)
# ... and just beyond that band it raises: at k1 and, from 150 at a
# 3e-8 m/s creep, at k2
@example(path_name="straight", x0=(-2e-9, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0),
         M=3, project_speed=False, seed=2)
@example(path_name="straight", x0=(150.0, 0.0, 0.0, 0.0, 0.0, 3e-8, 0.0),
         M=3, project_speed=False, seed=2)
# a NaN heading error makes s NaN after the first stage: NaN, not an error
@example(path_name="straight", x0=(5.0, 0.0, math.nan, 0.0, 0.0, 10.0, 0.0),
         M=3, project_speed=True, seed=2)
@settings(max_examples=150, deadline=None)
def test_rollout_and_step_equal_the_array_form_bit_for_bit(path_name, x0, M,
                                                           project_speed, seed):
    path = _PATHS[path_name]
    rng = np.random.default_rng(seed)
    x0 = np.array(x0)
    us = np.column_stack([rng.uniform(-0.5, 0.5, M), rng.uniform(-9.0, 3.0, M)])
    _assert_same_outcome(_outcome(dyn.rollout, x0, us, path, PARAMS, 0.1),
                         _outcome(_reference_rollout, x0, us, path, PARAMS, 0.1))
    _assert_same_outcome(
        _outcome(f_discrete, x0, us[0], path, PARAMS, 0.1, project_speed),
        _outcome(reference_f_discrete, x0, us[0], path, PARAMS, 0.1, project_speed))
    _assert_same_outcome(_outcome(_xdot, x0, us[0], path, PARAMS),
                         _outcome(_reference_f_continuous, x0, us[0], path, PARAMS))
