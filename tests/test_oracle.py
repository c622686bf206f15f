import json

import numpy as np
import pytest

from softmpc import dynamics as dyn
from softmpc import oracle
from softmpc.dynamics import VehicleParams
from softmpc.ocp import ConstraintStack, HorizonConfig, RelaxationMode, TerminalSets
from softmpc.oracle import (LatSampler, LonSampler, ScenarioTemplate,
                            generate_dataset, load_dataset, oracle_solve,
                            sample_thetas, save_dataset)
from softmpc.path import straight_path

PARAMS = VehicleParams()
HORIZON = HorizonConfig(n_cost=10, n_constraint=40, t_s=0.1)
STACK = ConstraintStack(params=PARAMS)
TERMINAL = TerminalSets()

LON_TEMPLATE = ScenarioTemplate(kind="lon", horizon=HORIZON, params=PARAMS,
                                stack=STACK, terminal=TERMINAL, v_ref=8.0)
LAT_TEMPLATE = ScenarioTemplate(kind="lat", horizon=HORIZON, params=PARAMS,
                                stack=STACK, terminal=TERMINAL, v_ref=8.0)

MODE_E1 = RelaxationMode(name="E1", priority=1, relax={"g_follow": "delta_g"},
                         ceilings={"delta_g": 30.0})
MODE_E2 = RelaxationMode(
    name="E2", priority=2,
    relax={"g_follow": "delta_g", "a_req_comfort_lb": "delta_a"},
    ceilings={"delta_g": 30.0, "delta_a": 6.0})
MODE_E3 = RelaxationMode(
    name="E3", priority=3,
    relax={"a_y_ub": "d_ay_hi", "a_y_lb": "d_ay_lo",
           "j_y_ub": "d_jy_hi", "j_y_lb": "d_jy_lo"},
    ceilings={"d_ay_hi": 4.0, "d_ay_lo": 4.0, "d_jy_hi": 12.0, "d_jy_lo": 12.0},
    drop=("g_lon_safe", "g_follow"))


def _lon_theta(gap0, lead_speed, v0, a0=0.0, drop=0.0, drop_start=0.0,
               drop_len=1.0, lead_after=None):
    p = {"gap0": gap0, "lead_speed": lead_speed, "v0": v0, "a0": a0,
         "drop": drop, "drop_start": drop_start, "drop_len": drop_len,
         "lead_speed_after": lead_speed if lead_after is None else lead_after}
    return oracle._lon_theta_from_params(LON_TEMPLATE, p)


def test_far_obstacle_zero_slack():
    theta = _lon_theta(gap0=80.0, lead_speed=8.0, v0=8.0)
    feasible, slack, rep = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert feasible
    np.testing.assert_array_equal(slack, 0.0)


def test_headway_violation_requires_slack():
    # lead vehicle close: headway violated at the fixed initial state by
    # (0 + t_gap*v - gap0); minimal blocked slack must cover at least that
    theta = _lon_theta(gap0=6.0, lead_speed=6.0, v0=8.0)
    feasible, slack, rep = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert feasible
    need0 = 0.0 + STACK.t_gap * 8.0 - 6.0  # 6.0
    assert slack[0] >= need0 - 1e-6


def test_cut_in_e1_and_e2_labels():
    # lead inside the desired headway but receding: the initial state
    # violates the following row, so E1 carries positive slack; comfortable
    # braking suffices, so E2 needs no extra deceleration authority
    theta = _lon_theta(gap0=12.5, lead_speed=8.5, v0=9.0)
    feas1, slack1, _ = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert feas1 and slack1[0] > 0.0
    feas2, slack2, _ = oracle_solve(LON_TEMPLATE, MODE_E2, theta)
    assert feas2
    i_dg = MODE_E2.channels.index("delta_g")
    i_da = MODE_E2.channels.index("delta_a")
    assert slack2[i_dg] > 0.0
    assert slack2[i_da] == 0.0


def test_impossible_stop_is_infeasible_for_lon_modes():
    # yield bound closing in faster than the physical braking limit allows:
    # stopping distance v^2 / (2*9) plus margin exceeds the gap
    theta = _lon_theta(gap0=8.0, lead_speed=0.0, v0=20.0)
    feas1, _, _ = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    feas2, _, _ = oracle_solve(LON_TEMPLATE, MODE_E2, theta)
    assert not feas1
    assert not feas2


def test_oracle_monotone_in_ceiling():
    theta = _lon_theta(gap0=10.0, lead_speed=5.0, v0=10.0)
    small = RelaxationMode(name="E1s", priority=1, relax={"g_follow": "delta_g"},
                           ceilings={"delta_g": 2.0})
    feas_small, _, _ = oracle_solve(LON_TEMPLATE, small, theta)
    feas_big, slack_big, _ = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    if feas_small:
        assert feas_big  # enlarging the ceiling never flips feasible->infeasible
    assert feas_big
    assert slack_big[0] > 2.0  # explains why the small ceiling fails
    assert not feas_small


def test_lat_nominal_corridor_zero_slack():
    theta = oracle._lat_theta_from_params(
        LAT_TEMPLATE, {"v": 15.0, "e_y": 0.0, "e_psi": 0.0, "delta": 0.0,
                       "alpha": 0.0, "invade_start": 200.0})
    feasible, slack, _ = oracle_solve(LAT_TEMPLATE, MODE_E3, theta)
    assert feasible
    np.testing.assert_array_equal(slack, 0.0)


def test_lat_slack_monotone_in_invasion_onset():
    # a later corridor switch leaves more time to merge: the comfort slack
    # shrinks monotonically with the onset step
    def slack_for(onset):
        theta = oracle._lat_theta_from_params(
            LAT_TEMPLATE, {"v": 15.0, "e_y": 0.0, "e_psi": 0.0, "delta": 0.0,
                           "alpha": 0.0, "invade_start": onset})
        feasible, slack, _ = oracle_solve(LAT_TEMPLATE, MODE_E3, theta)
        assert feasible
        return float(np.max(slack))
    early = slack_for(12.0)
    late = slack_for(35.0)
    assert early > late - 1e-9
    assert early > 0.05


def test_lat_abrupt_invasion_needs_comfort_slack():
    theta = oracle._lat_theta_from_params(
        LAT_TEMPLATE, {"v": 15.0, "e_y": 0.0, "e_psi": 0.0, "delta": 0.0,
                       "alpha": 0.0, "invade_start": 12.0})
    feasible, slack, _ = oracle_solve(LAT_TEMPLATE, MODE_E3, theta)
    assert feasible
    assert np.max(slack) > 0.05


def test_theta_dimension_guard():
    with pytest.raises(ValueError, match="theta"):
        oracle_solve(LON_TEMPLATE, MODE_E1, np.zeros(5))


def test_latin_hypercube_stratification():
    rng = np.random.default_rng(0)
    u = oracle._latin_hypercube(rng, 50, 3)
    for j in range(3):
        strata = np.floor(u[:, j] * 50).astype(int)
        assert sorted(strata) == list(range(50))


def test_sampling_deterministic_under_seed():
    a = sample_thetas(LON_TEMPLATE, LonSampler(), 20, seed=5)
    b = sample_thetas(LON_TEMPLATE, LonSampler(), 20, seed=5)
    np.testing.assert_array_equal(a, b)
    c = sample_thetas(LON_TEMPLATE, LonSampler(), 20, seed=6)
    assert not np.array_equal(a, c)


def test_generate_single_sample():
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E1, count=1, seed=3)
    assert len(rows) == 1
    assert balance in (0.0, 1.0)


def test_dataset_files_byte_identical_under_seed(tmp_path):
    for run in ("a", "b"):
        rows, balance = generate_dataset(LON_TEMPLATE, MODE_E1, count=8, seed=11)
        save_dataset(rows, str(tmp_path / f"{run}.csv"), LON_TEMPLATE, MODE_E1,
                     seed=11, balance=balance, sampler=LonSampler())
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_dataset_round_trip(tmp_path):
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E2, count=6, seed=2)
    fname = str(tmp_path / "ds.csv")
    save_dataset(rows, fname, LON_TEMPLATE, MODE_E2, seed=2, balance=balance,
                 sampler=LonSampler())
    thetas, feas, slacks = load_dataset(fname)
    assert thetas.shape == (6, LON_TEMPLATE.theta_dim)
    assert slacks.shape == (6, 2)
    for i in range(6):
        np.testing.assert_allclose(thetas[i], rows[i][0])
        assert feas[i] == rows[i][1]
        if rows[i][2] is None:
            assert np.all(np.isnan(slacks[i]))
    meta = json.loads((tmp_path / "ds.json").read_text())
    assert meta["mode"] == "E2"
    assert meta["channels"] == ["delta_g", "delta_a"]


def test_class_balance_strictly_mixed():
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E2, count=40, seed=7)
    assert 0.0 < balance < 1.0


def test_feasible_relaxed_self_consistency():
    # re-checking a feasible sample with its recovered slack must succeed
    theta = _lon_theta(gap0=10.0, lead_speed=5.0, v0=10.0)
    feasible, slack, _ = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert feasible
    nlp = oracle._subproblem_nlp(LON_TEMPLATE, theta, MODE_E1)
    assert (nlp.nx, nlp.nu, nlp.n_gamma) == (3, 1, 1)
    # shrink the ceiling to just above the found slack: still feasible
    tight = RelaxationMode(name="E1t", priority=1, relax={"g_follow": "delta_g"},
                           ceilings={"delta_g": float(slack[0]) + 0.05})
    feas2, slack2, _ = oracle_solve(LON_TEMPLATE, tight, theta)
    assert feas2
    assert slack2[0] <= slack[0] + 0.05 + 1e-9


def test_lon_discrete_is_the_longitudinal_block_of_the_rk4_step():
    # the closed form stands in for the full model's RK4 step on the
    # longitudinal chain: on a straight path at rest the two agree
    A_d, B_d = oracle._lon_discrete(PARAMS, HORIZON.t_s)
    A, B = dyn.jacobians(dyn.state(), np.zeros(2), straight_path(100.0),
                         PARAMS, HORIZON.t_s)
    np.testing.assert_allclose(A_d, A[np.ix_(dyn.LON_IDX, dyn.LON_IDX)],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(B_d, B[np.ix_(dyn.LON_IDX, (1,))],
                               rtol=0.0, atol=1e-15)


def _toy_min_slack_bruteforce(gap0, lead_speed, v0, template, mode,
                              grid_step=1e-3):
    """Independent oracle: scan the blocked slack on a grid; feasibility per
    candidate checked by forward simulation of a maximal-braking policy.

    With the headway row lifted by delta, the best strategy against the
    remaining rows is to brake as hard as allowed; if even that violates the
    lifted row somewhere, delta is insufficient.
    """
    h = template.horizon
    p = template.params
    st = template.stack
    M = h.n_constraint
    t_s = h.t_s
    A_d, B_d = oracle._lon_discrete(p, t_s)
    sigma = gap0 + lead_speed * t_s * np.arange(M + 1)

    def feasible_with(delta):
        x = np.array([0.0, v0, 0.0])
        for n in range(M + 1):
            if x[0] - sigma[n] > 1e-9:                      # hard yield row
                return False
            if x[0] + st.t_gap * x[1] - sigma[n] > delta + 1e-9:
                return False
            if n == M:
                break
            u = p.accel_min if x[1] > 1e-9 else 0.0         # brake, then hold
            x = A_d @ x + B_d @ np.array([u])
            x[1] = max(x[1], 0.0)
            x[2] = min(max(x[2], p.accel_min), p.accel_max)
        # standstill resting point must stay behind the final yield bound
        return x[0] <= sigma[M] - template.terminal.stop_margin + 1e-9

    ceiling = mode.ceiling_vector()[0]
    for delta in np.arange(0.0, ceiling + grid_step, grid_step):
        if feasible_with(delta):
            return float(delta)
    return None


def test_oracle_matches_bruteforce_grid():
    # full-braking feasibility is exact for the single-channel headway mode
    # when the comfort row is dropped from both sides of the comparison
    mode = RelaxationMode(name="E1p", priority=1, relax={"g_follow": "delta_g"},
                          ceilings={"delta_g": 30.0})
    template = ScenarioTemplate(
        kind="lon", horizon=HORIZON, params=PARAMS,
        stack=ConstraintStack(params=PARAMS, a_req_comfort_min=PARAMS.accel_min),
        terminal=TERMINAL, v_ref=8.0)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(25):
        gap0 = rng.uniform(3.0, 40.0)
        lead_speed = rng.uniform(0.0, 10.0)
        v0 = rng.uniform(3.0, 18.0)
        theta = oracle._lon_theta_from_params(
            template, {"gap0": gap0, "lead_speed": lead_speed, "v0": v0,
                       "a0": 0.0, "drop": 0.0, "drop_start": 0.0,
                       "drop_len": 1.0, "lead_speed_after": lead_speed})
        ref = _toy_min_slack_bruteforce(gap0, lead_speed, v0, template, mode)
        feasible, slack, _ = oracle_solve(template, mode, theta)
        if ref is None:
            assert not feasible
        else:
            assert feasible
            assert abs(slack[0] - ref) <= 1e-3 + 1e-9
        checked += 1
    assert checked == 25
