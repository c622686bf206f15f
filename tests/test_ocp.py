import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmpc import dynamics as dyn
from softmpc import ocp
from softmpc.dynamics import VehicleParams
from softmpc.controller import HARD_ROW_TOL, PriorityController
from softmpc.environment import NO_BOUND, DisturbanceProfile, nominal_profile
from softmpc.oracle import ScenarioTemplate, build_theta, oracle_solve
from softmpc.path import straight_path
from softmpc.sqp import STATUS_INFEASIBLE, STATUS_OPTIMAL, solve

PARAMS = VehicleParams()
PATH = straight_path(600.0)
HORIZON = ocp.HorizonConfig(n_cost=8, n_constraint=40, t_s=0.1)
STACK = ocp.ConstraintStack(params=PARAMS)
TERMINAL = ocp.TerminalSets()

MODE_E1 = ocp.RelaxationMode(
    name="E1", priority=1, relax={"g_follow": "delta_g"},
    ceilings={"delta_g": 30.0})
MODE_E2 = ocp.RelaxationMode(
    name="E2", priority=2,
    relax={"g_follow": "delta_g", "a_req_comfort_lb": "delta_a"},
    ceilings={"delta_g": 30.0, "delta_a": 6.0})
MODE_E3 = ocp.RelaxationMode(
    name="E3", priority=3,
    relax={"a_y_ub": "d_ay_hi", "a_y_lb": "d_ay_lo",
           "j_y_ub": "d_jy_hi", "j_y_lb": "d_jy_lo"},
    ceilings={"d_ay_hi": 4.0, "d_ay_lo": 4.0, "d_jy_hi": 12.0, "d_jy_lo": 12.0},
    drop=("g_lon_safe", "g_follow"))


def _weights(v_ref=7.0):
    return ocp.terminal_weights(PATH, PARAMS, HORIZON.t_s, v_ref)


def _refs(x0_s, v_ref=7.0, e_y_ref=0.0):
    return ocp.build_reference(x0_s, v_ref, e_y_ref, HORIZON, PARAMS)


def _free_profile():
    return nominal_profile(HORIZON.n_constraint, PATH.lane_width)


def test_horizon_config_validation():
    with pytest.raises(ValueError):
        ocp.HorizonConfig(n_cost=10, n_constraint=5)
    with pytest.raises(ValueError):
        ocp.HorizonConfig(t_s=0.0)


def test_mode_selector_row_sums():
    for mode in (MODE_E1, MODE_E2, MODE_E3):
        E = mode.selector()
        relaxed_rows = [ocp.ROW_LABELS.index(lbl) for lbl in mode.relax]
        sums = E.sum(axis=1)
        for k in range(len(ocp.ROW_LABELS)):
            assert sums[k] == (1.0 if k in relaxed_rows else 0.0)


def test_mode_requires_known_labels_and_ceilings():
    with pytest.raises(ValueError, match="unknown row label"):
        ocp.RelaxationMode(name="x", priority=1, relax={"nope": "c"},
                           ceilings={"c": 1.0})
    with pytest.raises(ValueError, match="ceiling"):
        ocp.RelaxationMode(name="x", priority=1, relax={"g_follow": "c"},
                           ceilings={})


def _one_step_profile(sigma, beta_lo=-1.75, beta_hi=1.75):
    return DisturbanceProfile(yield_bound=[sigma], corridor_lo=[beta_lo],
                              corridor_hi=[beta_hi], window=None)


def test_eval_constraint_examples():
    # worked arithmetic for the headway and yield rows
    x = dyn.state(s=40.0, v=10.0)
    u = np.zeros(2)
    vals, _ = STACK.evaluate(x[None], u[None], _one_step_profile(45.0))
    i = {lbl: k for k, lbl in enumerate(ocp.ROW_LABELS)}
    assert vals[0, i["g_lon_safe"]] == pytest.approx(-5.0)
    assert vals[0, i["g_follow"]] == pytest.approx(40.0 + 1.5 * 10.0 - 45.0)  # +10
    assert vals[0, i["g_lat_ub"]] == pytest.approx(-1.75)
    assert vals[0, i["g_lat_lb"]] == pytest.approx(-1.75)


def test_eval_constraints_window_sentinel():
    x = dyn.state(s=40.0, v=10.0)
    vals, _ = STACK.evaluate(x[None], np.zeros((1, 2)),
                             _one_step_profile(NO_BOUND))
    i = {lbl: k for k, lbl in enumerate(ocp.ROW_LABELS)}
    assert vals[0, i["g_lon_safe"]] == -np.inf
    assert vals[0, i["g_follow"]] == -np.inf


def _scalar_rows(x, u, sigma, beta_lo, beta_hi):
    """Reference: every row of the stack written out at one step."""
    p = PARAMS
    s, e_y, e_psi, delta, alpha, v, a = x
    u0, u1 = u
    a_y = v * v * math.tan(delta) / p.wheelbase
    j_y = v * v * alpha * (1.0 + math.tan(delta) ** 2) / p.wheelbase
    return np.array([
        e_psi - p.e_psi_max, -e_psi - p.e_psi_max,
        delta - p.delta_max, -delta - p.delta_max,
        u0 - p.delta_max, -u0 - p.delta_max,
        v - p.v_max, -v,
        a - p.accel_max, p.accel_min - a,
        u1 - p.accel_max, p.accel_min - u1,
        STACK.a_req_comfort_min - u1,
        alpha - p.alpha_max, -alpha - p.alpha_max,
        a_y - p.lat_accel_max, -a_y - p.lat_accel_max,
        j_y - p.lat_jerk_max, -j_y - p.lat_jerk_max,
        s - sigma if math.isfinite(sigma) else -np.inf,
        e_y - beta_hi, beta_lo - e_y,
        s + STACK.t_gap * v - sigma if math.isfinite(sigma) else -np.inf,
    ])


def test_stack_rows_match_the_scalar_formulas():
    rng = np.random.default_rng(8)
    n = 40
    xs = rng.uniform(-1.0, 1.0, (n, dyn.NX)) * [50, 2, 0.3, 0.5, 0.6, 30, 6]
    us = rng.uniform(-1.0, 1.0, (n, dyn.NU)) * [0.5, 6]
    sigma = np.where(rng.random(n) < 0.3, NO_BOUND, rng.uniform(0, 80, n))
    lo = rng.uniform(-3, 1, n)
    profile = DisturbanceProfile(yield_bound=sigma, corridor_lo=lo,
                                 corridor_hi=lo + 3.5, window=None)
    vals, _ = STACK.evaluate(xs, us, profile)
    ref = np.array([_scalar_rows(xs[k], us[k], sigma[k], lo[k], lo[k] + 3.5)
                    for k in range(n)])
    # the vectorized tan may differ from the scalar one in the last bit
    np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=1e-12)


def test_stack_linearization_matches_finite_differences():
    rng = np.random.default_rng(2)
    n = 25
    xs = np.stack([rng.uniform(5, 50, n), rng.uniform(-1, 1, n),
                   rng.uniform(-0.2, 0.2, n), rng.uniform(-0.3, 0.3, n),
                   rng.uniform(-0.4, 0.4, n), rng.uniform(0, 25, n),
                   rng.uniform(-4, 2, n)], axis=1)
    us = np.stack([rng.uniform(-0.3, 0.3, n), rng.uniform(-5, 2, n)], axis=1)
    profile = DisturbanceProfile(yield_bound=np.full(n, 60.0),
                                 corridor_lo=np.full(n, -1.75),
                                 corridor_hi=np.full(n, 1.75), window=None)
    _, C = STACK.evaluate(xs, us, profile)
    h = 1e-7
    z = np.concatenate([xs, us], axis=1)
    for j in range(dyn.NX + dyn.NU):
        dz = np.zeros(dyn.NX + dyn.NU)
        dz[j] = h
        fp, _ = STACK.evaluate((z + dz)[:, :dyn.NX], (z + dz)[:, dyn.NX:], profile)
        fm, _ = STACK.evaluate((z - dz)[:, :dyn.NX], (z - dz)[:, dyn.NX:], profile)
        np.testing.assert_allclose(C[:, :, j], (fp - fm) / (2 * h), atol=1e-5)


def test_reference_is_kinematically_consistent():
    x_refs, u_refs = ocp.build_reference(10.0, 15.0, 0.0, HORIZON, PARAMS)
    t_s = HORIZON.t_s
    v = x_refs[:, dyn.IDX_V]
    s = x_refs[:, dyn.IDX_S]
    np.testing.assert_allclose(np.diff(s), 0.5 * (v[1:] + v[:-1]) * t_s, atol=1e-12)
    assert v[HORIZON.n_cost] == 15.0  # cruise portion untouched
    assert v[-1] == pytest.approx(max(15.0 - 2.5 * (HORIZON.n_constraint - HORIZON.n_cost) * t_s, 0.0))


def test_terminal_weights_block_structure():
    w = _weights()
    P = w.P
    lon, lat = list(dyn.LON_IDX), list(dyn.LAT_IDX)
    # no coupling between the chains
    assert np.max(np.abs(P[np.ix_(lon, lat)])) == 0.0
    assert np.all(np.linalg.eigvalsh(P) > 0.0)


def test_terminal_cost_lyapunov_decrease():
    # p(x+) - p(x) <= -q(x, Kx) on the linearized model, 1000 tube samples
    w = _weights()
    x_ref = dyn.state(s=1.0, v=7.0)  # same operating point the weights use
    A, B = (J[0] for J in dyn.jacobians(x_ref[None], np.zeros((1, 2)), PATH,
                                         PARAMS, HORIZON.t_s))
    rng = np.random.default_rng(4)
    scale = np.array([1.0, 0.5, 0.1, 0.1, 0.2, 1.0, 0.5])
    for _ in range(1000):
        e = rng.uniform(-1.0, 1.0, dyn.NX) * scale
        u = -w.K @ e
        e_next = A @ e + B @ u
        p_now = e @ w.P @ e
        p_next = e_next @ w.P @ e_next
        q_now = e @ w.Q @ e + u @ w.R @ u
        assert p_next - p_now <= -q_now + 1e-8


def test_nominal_problem_reduces_to_tracking_without_ru():
    weights = _weights()
    x0 = dyn.state(s=5.0, e_y=0.3, v=7.0)
    x_refs, u_refs = _refs(5.0)
    nlp = ocp.build_nominal(x0, PATH, PARAMS, weights, HORIZON, STACK,
                            _free_profile(), TERMINAL, x_refs, u_refs,
                            u_init=u_refs)
    rep = solve(nlp)
    assert rep.status == STATUS_OPTIMAL
    # lateral error regulated toward the reference
    assert abs(rep.xs[HORIZON.n_cost, dyn.IDX_EY]) < 0.1
    # standstill terminal reached (within the tolerance band)
    assert abs(rep.xs[-1, dyn.IDX_V]) < 2e-4


def test_variable_count_is_inputs_times_horizon():
    weights = _weights()
    x_refs, u_refs = _refs(0.0)
    nlp = ocp.build_nominal(dyn.state(v=7.0), PATH, PARAMS, weights, HORIZON,
                            STACK, _free_profile(), TERMINAL, x_refs, u_refs)
    assert nlp.horizon * nlp.nu == 2 * HORIZON.n_constraint
    assert nlp.n_gamma == 0


def test_zero_slack_relaxed_equals_nominal_feasible_set():
    # identical accept/reject verdicts on random candidate trajectories
    weights = _weights()
    rng = np.random.default_rng(9)
    profile = _free_profile()
    x_refs, u_refs = _refs(0.0)
    x0 = dyn.state(s=0.0, v=7.0)
    for _ in range(100):
        us = np.stack([rng.uniform(-0.05, 0.05, HORIZON.n_constraint),
                       rng.uniform(-4.0, 2.0, HORIZON.n_constraint)], axis=1)
        xs = [x0]
        for n in range(HORIZON.n_constraint):
            xs.append(dyn.f_discrete(xs[-1], us[n], PATH, PARAMS, HORIZON.t_s))
        xs = np.array(xs)
        res_nom = ocp.eval_constraints(xs, us, STACK, profile)
        E = MODE_E2.selector()
        lift = E @ np.zeros(MODE_E2.n_channels)
        res_rel = res_nom - lift[:, None]
        assert np.array_equal(res_nom <= 1e-9, res_rel <= 1e-9)


def _hard_rows(mode, slack):
    """The rows the controller's hard-row gate checks (see
    PriorityController._residuals): neither lifted by a positive commanded
    slack nor dropped by the mode."""
    hard = ~(mode.selector() @ slack > 0.0)
    hard[[ocp.ROW_LABELS.index(lbl) for lbl in mode.drop]] = False
    return hard


def test_relaxed_lifts_only_selected_rows():
    weights = _weights()
    x0 = dyn.state(s=0.0, v=7.0)
    x_refs, u_refs = _refs(0.0)
    # lead vehicle at 5 m/s whose yield bound starts inside the desired
    # headway: g_follow violated at the fixed initial state
    M = HORIZON.n_constraint
    sigma = 8.0 + 5.0 * HORIZON.t_s * np.arange(M + 1)
    profile = DisturbanceProfile(yield_bound=sigma,
                                 corridor_lo=np.full(M + 1, -1.75),
                                 corridor_hi=np.full(M + 1, 1.75),
                                 window=(0, M))
    nom = ocp.build_nominal(x0, PATH, PARAMS, weights, HORIZON, STACK, profile,
                            TERMINAL, x_refs, u_refs, u_init=u_refs)
    rep_nom = solve(nom)
    # headway violated at stage 0 (8 < 0 + 1.5*7) and not relaxable
    assert rep_nom.status == STATUS_INFEASIBLE

    slack = np.array([8.0])  # lifts g_follow enough at the initial state
    rel = ocp.build_relaxed(x0, PATH, PARAMS, weights, HORIZON, STACK, profile,
                            TERMINAL, MODE_E1, slack, x_refs, u_refs,
                            u_init=u_refs)
    rep_rel = solve(rel)
    assert rep_rel.status == STATUS_OPTIMAL
    res = ocp.eval_constraints(rep_rel.xs, rep_rel.us, STACK, profile)
    hard = _hard_rows(MODE_E1, slack)
    assert hard.sum() == 22
    assert np.max(res[hard]) <= 1e-6
    follow = ocp.ROW_LABELS.index("g_follow")
    assert np.max(res[follow]) <= slack[0] + 1e-6
    assert np.max(res[follow]) > 1e-3  # the lift was actually used


def test_row_layout_follows_profile_mode_and_tube():
    # yield bound from step 20 on; the tube's 6 finite widths add 12 rows
    # beyond the cost horizon (n_cost 8)
    M = HORIZON.n_constraint
    sigma = np.where(np.arange(M + 1) >= 20, 300.0, NO_BOUND)
    profile = DisturbanceProfile(yield_bound=sigma,
                                 corridor_lo=np.full(M + 1, -1.75),
                                 corridor_hi=np.full(M + 1, 1.75),
                                 window=(20, M))
    x_refs, u_refs = _refs(0.0)
    args = (dyn.state(v=7.0), PATH, PARAMS, _weights(), HORIZON, STACK,
            profile, TERMINAL)
    nom = ocp.build_nominal(*args, x_refs, u_refs)
    counts = nom.stage_row_mask.sum(axis=1)
    assert list(counts[:8]) == [21] * 8
    assert list(counts[8:20]) == [33] * 12
    assert list(counts[20:]) == [35] * 20
    # E3 drops both yield rows wherever they are
    rel = ocp.build_relaxed(*args, MODE_E3, np.zeros(4), x_refs, u_refs)
    assert list(rel.stage_row_mask.sum(axis=1)) == [21] * 8 + [33] * 32


def _rows_bytes(nlp, xs, us):
    """Every row value, Jacobian and the row layout of a problem at one
    trajectory, as raw bytes."""
    vals, C, G = nlp.stage_rows(xs[:-1], us)
    t_vals, t_C, t_G = nlp.terminal_rows(xs[-1])
    return (vals.tobytes(), C.tobytes(), G is None,
            nlp.stage_row_mask.tobytes(), t_vals.tobytes(), t_C.tobytes(),
            t_G is None)


@st.composite
def states_and_yield_bounds(draw):
    """(x0, yield bound per step, trajectory xs (M+1, NX), us (M, NU))."""
    M = HORIZON.n_constraint
    x0 = dyn.state(s=draw(st.floats(0.0, 50.0)), e_y=draw(st.floats(-1.5, 1.5)),
                   v=draw(st.floats(0.0, 30.0)), a=draw(st.floats(-6.0, 2.5)))
    sigma = np.array(draw(st.lists(
        st.one_of(st.floats(-20.0, 300.0), st.just(NO_BOUND)),
        min_size=M + 1, max_size=M + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = x0 + rng.normal(scale=0.5, size=(M + 1, dyn.NX))
    us = rng.normal(scale=0.5, size=(M, dyn.NU))
    return x0, sigma, xs, us


@given(states_and_yield_bounds(), st.floats(0.0, 30.0))
@settings(max_examples=40, deadline=None)
def test_zero_lift_builds_the_nominal_rows_bit_for_bit(case, x):
    # the controller solves a problem once per cycle, keyed by the mode's
    # dropped rows and the lift on each stack row; equal keys must build
    # equal rows
    x0, sigma, xs, us = case
    M = HORIZON.n_constraint
    profile = DisturbanceProfile(yield_bound=sigma,
                                 corridor_lo=np.full(M + 1, -1.75),
                                 corridor_hi=np.full(M + 1, 1.75), window=None)
    x_refs, u_refs = _refs(float(x0[dyn.IDX_S]))
    args = (x0, PATH, PARAMS, _weights(), HORIZON, STACK, profile, TERMINAL)
    nominal = _rows_bytes(ocp.build_nominal(*args, x_refs, u_refs), xs, us)
    for mode in (MODE_E1, MODE_E2):
        rel = ocp.build_relaxed(*args, mode, np.zeros(mode.n_channels),
                                x_refs, u_refs)
        assert _rows_bytes(rel, xs, us) == nominal
    e1 = ocp.build_relaxed(*args, MODE_E1, np.array([x]), x_refs, u_refs)
    e2 = ocp.build_relaxed(*args, MODE_E2, np.array([x, 0.0]), x_refs, u_refs)
    assert _rows_bytes(e1, xs, us) == _rows_bytes(e2, xs, us)


def test_relaxed_rejects_slack_beyond_ceiling():
    weights = _weights()
    x_refs, u_refs = _refs(0.0)
    with pytest.raises(ValueError, match="ceiling"):
        ocp.build_relaxed(dyn.state(v=15.0), PATH, PARAMS, weights, HORIZON,
                          STACK, _free_profile(), TERMINAL, MODE_E1,
                          np.array([31.0]), x_refs, u_refs)


def test_mode_e3_drops_longitudinal_rows():
    weights = _weights()
    x0 = dyn.state(s=50.0, v=7.0)
    x_refs, u_refs = _refs(50.0)
    M = HORIZON.n_constraint
    # yield bound behind the vehicle: impossible unless the rows are dropped
    profile = DisturbanceProfile(yield_bound=np.full(M + 1, 10.0),
                                 corridor_lo=np.full(M + 1, -1.75),
                                 corridor_hi=np.full(M + 1, 1.75),
                                 window=(0, M))
    nom = ocp.build_nominal(x0, PATH, PARAMS, weights, HORIZON, STACK, profile,
                            TERMINAL, x_refs, u_refs, u_init=u_refs)
    assert solve(nom).status == STATUS_INFEASIBLE
    rel = ocp.build_relaxed(x0, PATH, PARAMS, weights, HORIZON, STACK, profile,
                            TERMINAL, MODE_E3, np.zeros(4), x_refs, u_refs,
                            u_init=u_refs)
    assert solve(rel).status == STATUS_OPTIMAL


def _oracle_slack_in_relaxed_problem(kind, mode, x0, profile, v_ref):
    """Minimal slack of the oracle's decoupled subproblem, used as the fixed
    lift of the relaxed problem on the full model with the same profile.
    Returns the number of hard rows the solution was checked on."""
    template = ScenarioTemplate(kind=kind, horizon=HORIZON, params=PARAMS,
                                stack=STACK, terminal=TERMINAL, v_ref=v_ref)
    feasible, slack, _ = oracle_solve(template, mode,
                                      build_theta(template, x0, profile))
    assert feasible
    assert np.max(slack) > 0.0
    center = 0.5 * (profile.corridor_lo[-1] + profile.corridor_hi[-1])
    x_refs, u_refs = ocp.build_reference(x0[dyn.IDX_S], v_ref, center,
                                         HORIZON, PARAMS)
    rel = ocp.build_relaxed(x0, PATH, PARAMS, _weights(v_ref), HORIZON, STACK,
                            profile, TERMINAL, mode, slack, x_refs, u_refs,
                            u_init=u_refs)
    rep = solve(rel)
    assert PriorityController._solve_usable(rep)
    res = ocp.eval_constraints(rep.xs, rep.us, STACK, profile)
    res = np.where(np.isfinite(res), res, -np.inf)
    hard = _hard_rows(mode, slack)
    assert np.max(res[hard]) <= HARD_ROW_TOL
    return int(hard.sum())


def test_lon_oracle_slack_solves_the_relaxed_problem():
    # headway violated at the fixed initial state (8 < 0 + 1.5*7): the
    # oracle's lift of g_follow must let the full model hold every hard row
    M = HORIZON.n_constraint
    sigma = 8.0 + 5.0 * HORIZON.t_s * np.arange(M + 1)
    profile = DisturbanceProfile(yield_bound=sigma,
                                 corridor_lo=np.full(M + 1, -1.75),
                                 corridor_hi=np.full(M + 1, 1.75),
                                 window=(0, M))
    # every row but the lifted g_follow is hard
    assert _oracle_slack_in_relaxed_problem(
        "lon", MODE_E1, dyn.state(s=0.0, v=7.0), profile, v_ref=7.0) == 22


def test_lat_oracle_slack_solves_the_relaxed_problem():
    # the road user invades the ego lane from step 20: merging left in time
    # needs the comfort lift the lateral oracle labels
    M = HORIZON.n_constraint
    invaded = np.arange(M + 1) >= 20
    profile = DisturbanceProfile(yield_bound=np.full(M + 1, NO_BOUND),
                                 corridor_lo=np.where(invaded, 1.75, -1.75),
                                 corridor_hi=np.where(invaded, 5.25, 1.75),
                                 window=None)
    # E3 drops two rows and every one of its four lateral lifts is used
    assert _oracle_slack_in_relaxed_problem(
        "lat", MODE_E3, dyn.state(s=10.0, v=8.0), profile, v_ref=8.0) == 17
