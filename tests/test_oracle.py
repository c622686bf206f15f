import contextlib
import dataclasses
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmpc import dynamics as dyn
from softmpc import oracle, simkit, sqp
from softmpc.dynamics import VehicleParams
from softmpc.ocp import STOP_MARGIN, ConstraintStack, HorizonConfig, RelaxationMode
from softmpc.oracle import (ScenarioTemplate, generate_dataset, load_dataset,
                            oracle_solve, sample_thetas, save_dataset)
from softmpc.path import straight_path
from test_dynamics import reference_f_discrete

PARAMS = VehicleParams()
HORIZON = HorizonConfig(n_cost=10, n_constraint=40, t_s=0.1)
STACK = ConstraintStack(params=PARAMS)
LANE_WIDTH = 3.5

LON_TEMPLATE = ScenarioTemplate(kind="lon", horizon=HORIZON, stack=STACK,
                                v_ref=8.0, lane_width=LANE_WIDTH)
LAT_TEMPLATE = ScenarioTemplate(kind="lat", horizon=HORIZON, stack=STACK,
                                v_ref=8.0, lane_width=LANE_WIDTH)

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
    for mode in (MODE_E1, MODE_E2):
        feasible, slack, rep = oracle_solve(LON_TEMPLATE, mode, theta)
        assert not feasible and slack is None
        # the certificate decided: the SQP did not run
        assert rep.status == sqp.STATUS_INFEASIBLE
        assert rep.sqp_iterations == rep.ip_iterations == 0
        assert rep.infeasibility_measure > 1e-6


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


def _doubled(mode):
    return dataclasses.replace(
        mode, ceilings={ch: 2.0 * c for ch, c in mode.ceilings.items()})


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from([(LON_TEMPLATE, MODE_E1), (LON_TEMPLATE, MODE_E2),
                             (LAT_TEMPLATE, MODE_E3)]))
# seeds whose draws hold feasible samples of each mode
@example(seed=1, case=(LON_TEMPLATE, MODE_E1))
@example(seed=2, case=(LON_TEMPLATE, MODE_E2))
@example(seed=1, case=(LAT_TEMPLATE, MODE_E3))
# its fifth sample's doubled solve accepts a step to a violation of 3e-10 in
# the iteration that meets the no-progress verdict at the penalty ceiling
@example(seed=440, case=(LAT_TEMPLATE, MODE_E3))
def test_a_feasible_label_stays_feasible_under_doubled_ceilings(seed, case):
    # only feasibility is asserted: the minimal slack itself can move when
    # a ceiling is raised, since channels share the work of lifting rows
    template, mode = case
    for theta in sample_thetas(template, 6, seed):
        if oracle_solve(template, mode, theta)[0]:
            assert oracle_solve(template, _doubled(mode), theta)[0]


def test_lat_nominal_corridor_zero_slack():
    theta = oracle._lat_theta_from_params(
        LAT_TEMPLATE, {"v": 15.0, "e_y": 0.0, "e_psi": 0.0, "delta": 0.0,
                       "alpha": 0.0, "invade_start": 200.0})
    feasible, slack, _ = oracle_solve(LAT_TEMPLATE, MODE_E3, theta)
    assert feasible
    np.testing.assert_array_equal(slack, 0.0)


def test_lat_slack_monotone_in_invasion_onset(monkeypatch):
    # a later corridor switch leaves more time to merge: the comfort slack
    # shrinks monotonically with the onset step. One of these solves has a
    # full polish step that the watchdog rejects; the line search goes on
    # from half the step, so no point is evaluated twice
    points = []
    evaluate = sqp._evaluate

    def evaluate_spy(nlp, layout, us, gamma):
        points.append(us.tobytes())
        return evaluate(nlp, layout, us, gamma)
    monkeypatch.setattr(sqp, "_evaluate", evaluate_spy)

    def slack_for(onset):
        points.clear()
        theta = oracle._lat_theta_from_params(
            LAT_TEMPLATE, {"v": 15.0, "e_y": 0.0, "e_psi": 0.0, "delta": 0.0,
                           "alpha": 0.0, "invade_start": onset})
        feasible, slack, _ = oracle_solve(LAT_TEMPLATE, MODE_E3, theta)
        assert feasible
        assert len(set(points)) == len(points)
        return float(np.max(slack))
    early = slack_for(12.0)
    late = slack_for(35.0)
    assert early > late - 1e-9
    assert early > 0.05


def _embedded_lateral_rollout(theta, us):
    """The lateral chain stepped one embedded state at a time: each step
    puts the lateral states into a full state at s = 0, a = 0 and theta's
    speed, takes one full-model RK4 step on the straight path (the array-form
    reference step of test_dynamics, which shares no code with the rollout)
    and keeps the lateral states."""
    nw = LAT_TEMPLATE.n_window
    lat = np.array(dyn.LAT_IDX)
    xs = [theta[2 * nw + 1:]]
    for u in us:
        x = dyn.state(v=theta[2 * nw])
        x[lat] = xs[-1]
        xs.append(reference_f_discrete(x, np.array([u[0], 0.0]), oracle._STRAIGHT,
                                       PARAMS, HORIZON.t_s)[lat])
    return np.array(xs)


def test_lat_rollout_equals_the_embedded_step_bit_for_bit():
    # the subproblem rolls the full model out once and keeps the lateral
    # states: with zero curvature the position never feeds back, and the
    # speed stays at theta's, so it must equal the embedded step exactly
    rng = np.random.default_rng(4)
    M = HORIZON.n_constraint
    for theta in sample_thetas(LAT_TEMPLATE, 200, seed=9):
        us = rng.normal(scale=0.3, size=(M, 1))
        nlp = oracle._subproblem_nlp(LAT_TEMPLATE, theta, MODE_E3)
        assert np.array_equal(nlp.dyn_f(us),
                              _embedded_lateral_rollout(theta, us))


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
    a = sample_thetas(LON_TEMPLATE, 20, seed=5)
    b = sample_thetas(LON_TEMPLATE, 20, seed=5)
    np.testing.assert_array_equal(a, b)
    c = sample_thetas(LON_TEMPLATE, 20, seed=6)
    assert not np.array_equal(a, c)


def test_generate_single_sample():
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E1, count=1, seed=3)
    assert len(rows) == 1
    assert balance in (0.0, 1.0)


def test_dataset_files_byte_identical_under_seed(tmp_path):
    for run in ("a", "b"):
        rows, balance = generate_dataset(LON_TEMPLATE, MODE_E1, count=8, seed=11)
        save_dataset(rows, str(tmp_path / f"{run}.csv"), LON_TEMPLATE, MODE_E1,
                     seed=11, balance=balance)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_dataset_round_trip(tmp_path):
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E2, count=6, seed=2)
    fname = str(tmp_path / "ds.csv")
    save_dataset(rows, fname, LON_TEMPLATE, MODE_E2, seed=2, balance=balance)
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


@pytest.mark.parametrize("workers, count, started", [(64, 9, 9), (2, 9, 2)])
def test_labeling_starts_at_most_one_worker_per_sample(monkeypatch, workers,
                                                       count, started):
    # 64 workers for 9 samples used to start 64 processes. The spy pool
    # labels in this process and the labels are stubs: nothing is forked
    import multiprocessing
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(oracle, "_label", lambda template, mode, theta: (True, None))
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E1, count=count,
                                     seed=3, workers=workers)
    assert sizes == [started]
    assert len(rows) == count and balance == 1.0


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
    A, B = dyn.jacobians(dyn.state()[None], np.zeros((1, 2)),
                         straight_path(100.0), PARAMS, HORIZON.t_s)
    np.testing.assert_allclose(A_d, A[0][np.ix_(dyn.LON_IDX, dyn.LON_IDX)],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(B_d, B[0][np.ix_(dyn.LON_IDX, (1,))],
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
    p = template.stack.params
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
        return x[0] <= sigma[M] - STOP_MARGIN + 1e-9

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
        kind="lon", horizon=HORIZON,
        stack=ConstraintStack(params=PARAMS, a_req_comfort_min=PARAMS.accel_min),
        v_ref=8.0, lane_width=LANE_WIDTH)
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


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
MODE_E1_NO_COMFORT = RelaxationMode(
    name="E1c", priority=1, relax={"g_follow": "delta_g"},
    ceilings={"delta_g": 30.0}, drop=("a_req_comfort_lb",))


def test_every_shipped_mode_builds_one_input_and_its_channels():
    # the oracle's problems are the only ones with a global block, so they
    # are the Riccati sweep's whole traffic: one input, one slack channel
    # per relaxed channel of the mode
    seen = set()
    for name in ("baseline", "scenario1", "scenario2"):
        config = simkit.load_scenario(os.path.join(CONFIGS, name + ".ini"))
        for mode, kind, _ in config.mode_specs:
            template = simkit.scenario_template(config, kind)
            theta = sample_thetas(template, 1, seed=3)[0]
            nlp = oracle._subproblem_nlp(template, theta, mode)
            assert nlp.nu == 1 and nlp.n_gamma == mode.n_channels > 0
            seen.add((name, mode.name))
    assert {("scenario1", "E1"), ("scenario1", "E2"),
            ("scenario2", "E3")} <= seen


@contextlib.contextmanager
def _sqp_only():
    """The oracle with neither certificate firing: every label the SQP's."""
    with mock.patch.object(oracle, "_lp_certifies_infeasible",
                           lambda nlp: False), \
            mock.patch.object(oracle, "_zero_slack_certified",
                              lambda nlp: None):
        yield


@pytest.mark.parametrize("mode_name", ["E1", "E2"])
def test_certificate_leaves_the_dataset_files_byte_identical(
        tmp_path, mode_name):
    config = simkit.load_scenario(os.path.join(CONFIGS, "scenario1.ini"))
    mode = next(m for m, _, _ in config.mode_specs if m.name == mode_name)
    template = simkit.scenario_template(config, "lon")
    certificate = oracle._lp_certifies_infeasible
    fired = []

    def spy(nlp):
        fired.append(certificate(nlp))
        return fired[-1]

    # in-process with the spy, so that its record is this process's; the
    # other run on two labeling workers
    with mock.patch.object(oracle, "_lp_certifies_infeasible", spy):
        rows, balance = generate_dataset(template, mode, count=24, seed=3,
                                         workers=1)
    save_dataset(rows, str(tmp_path / "certified.csv"), template, mode,
                 seed=3, balance=balance)
    assert 0.0 < balance < 1.0 and any(fired)
    with _sqp_only():
        rows, balance = generate_dataset(template, mode, count=24, seed=3,
                                         workers=2)
    save_dataset(rows, str(tmp_path / "sqp.csv"), template, mode,
                 seed=3, balance=balance)
    for ext in (".csv", ".json"):
        assert ((tmp_path / f"certified{ext}").read_bytes()
                == (tmp_path / f"sqp{ext}").read_bytes())


@settings(max_examples=30, deadline=None)
@given(params=st.fixed_dictionaries(
           {name: st.floats(lo, hi)
            for name, (lo, hi) in oracle.SAMPLE_RANGES["lon"].items()}),
       mode=st.sampled_from([MODE_E1, MODE_E2, MODE_E1_NO_COMFORT]))
@example(params={"v0": 28.0, "a0": 0.0, "gap0": 2.0, "lead_speed": 0.0,
                 "drop": 0.0, "drop_start": 0.0, "drop_len": 1.0,
                 "lead_speed_after": 0.0}, mode=MODE_E2)
def test_certificate_fires_only_where_the_sqp_labels_infeasible(params, mode):
    theta = oracle._lon_theta_from_params(LON_TEMPLATE, params)
    feasible, slack, rep = oracle_solve(LON_TEMPLATE, mode, theta)
    with _sqp_only():
        sqp_feasible, sqp_slack, _ = oracle_solve(LON_TEMPLATE, mode, theta)
    if rep.proof == "lp":     # the infeasibility certificate decided
        assert not sqp_feasible
    assert feasible == sqp_feasible
    assert (slack is None and sqp_slack is None
            or slack.tobytes() == sqp_slack.tobytes())


def test_pinned_row_exit_leaves_the_lateral_labels_unchanged():
    # lateral samples drawn with e_y beyond the right lane's edge break the
    # step-0 corridor row, which reads e_y alone: the SQP's pinned-row exit
    # settles them, and every label is the one of the full SQP run
    pinned = sqp._Rows.pinned_violation
    fired = []

    def spy(rows, nx):
        fired.append(pinned(rows, nx) > sqp.INFEASIBILITY_TOL)
        return pinned(rows, nx)

    with mock.patch.object(sqp._Rows, "pinned_violation", spy):
        rows, balance = generate_dataset(LAT_TEMPLATE, MODE_E3, count=12,
                                         seed=5, workers=1)
    with mock.patch.object(sqp._Rows, "pinned_violation",
                           lambda rows, nx: 0.0):
        full, full_balance = generate_dataset(LAT_TEMPLATE, MODE_E3,
                                              count=12, seed=5, workers=1)
    assert 0 < sum(fired) < len(fired) == 12
    assert balance == full_balance
    for (theta, feasible, slack), (theta_f, feasible_f, slack_f) in zip(rows,
                                                                      full):
        assert theta.tobytes() == theta_f.tobytes()
        assert feasible == feasible_f
        assert (slack is None and slack_f is None
                or slack.tobytes() == slack_f.tobytes())


def test_non_finite_theta_is_left_to_the_sqp():
    # linprog rejects NaN data; the SQP labels such a sample infeasible
    theta = _lon_theta(gap0=8.0, lead_speed=0.0, v0=20.0)
    theta[-2] = np.nan
    assert not oracle._lp_certifies_infeasible(
        oracle._subproblem_nlp(LON_TEMPLATE, theta, MODE_E1))
    feasible, slack, rep = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert not feasible and slack is None and rep.sqp_iterations > 0


def test_building_the_oracle_route_controller_leaves_scipy_optimize_unimported():
    # the certificate imports scipy.optimize on first use: imported with the
    # package it would add about a quarter to the controller's set-up time
    code = ("import sys\n"
            "from softmpc import simkit\n"
            "simkit.build_controller(simkit.load_scenario(sys.argv[1]),"
            " use_oracle=True)\n"
            "sys.exit('scipy.optimize' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(oracle.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(CONFIGS, "scenario1.ini")],
        env=env, timeout=120)
    assert proc.returncode == 0


# the zero-slack certificate

_ZERO_SLACK_PARAMS = {"gap0": 80.0, "lead_speed": 8.0, "v0": 8.0, "a0": 0.0,
                      "drop": 0.0, "drop_start": 0.0, "drop_len": 1.0,
                      "lead_speed_after": 8.0}


@settings(max_examples=30, deadline=None)
@given(params=st.fixed_dictionaries(
           {name: st.floats(lo, hi)
            for name, (lo, hi) in oracle.SAMPLE_RANGES["lon"].items()}),
       mode=st.sampled_from([MODE_E1, MODE_E2]))
@example(params=_ZERO_SLACK_PARAMS, mode=MODE_E2)
def test_a_zero_slack_certified_sample_is_labeled_zero_by_the_sqp(params,
                                                                  mode):
    theta = oracle._lon_theta_from_params(LON_TEMPLATE, params)
    nlp = oracle._subproblem_nlp(LON_TEMPLATE, theta, mode)
    rep = oracle._zero_slack_certified(nlp)
    if rep is None:
        return
    # the proof's witness: the point (u*, 0) with a slack box multiplier of
    # at least half the linear slack cost at the lower bound, 0 at the upper
    q = mode.n_channels
    assert rep.proof == "zero-slack" and rep.status == sqp.STATUS_OPTIMAL
    assert rep.gamma.tobytes() == np.zeros(q).tobytes()
    assert np.all(rep.duals[-2 * q:-q] >= 0.5 * nlp.gamma_linear)
    assert not rep.duals[-q:].any()
    with _sqp_only():
        feasible, slack, sqp_rep = oracle_solve(LON_TEMPLATE, mode, theta)
    assert feasible and slack.tobytes() == np.zeros(q).tobytes()
    assert sqp_rep.proof == "sqp"


def test_a_sample_that_needs_slack_is_not_zero_slack_certified():
    # the headway broken at the start: no input repairs it, so the
    # slack-free problem ends infeasible
    theta = _lon_theta(gap0=6.0, lead_speed=6.0, v0=8.0)
    nlp = oracle._subproblem_nlp(LON_TEMPLATE, theta, MODE_E1)
    assert oracle._zero_slack_certified(nlp) is None
    feasible, slack, rep = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert feasible and slack[0] > 0.0 and rep.proof == "sqp"

    # braking for a road user stopped 30 m ahead: the slack-free problem
    # ends optimal, its comfort rows' duals summing to about 4e-3. Below
    # that linear cost, a positive delta_a lowers the objective, and the
    # multiplier test refuses the zero
    theta = _lon_theta(gap0=30.0, lead_speed=0.0, v0=10.0)
    nlp = oracle._subproblem_nlp(LON_TEMPLATE, theta, MODE_E2)
    assert oracle._zero_slack_certified(nlp) is not None
    i_da = MODE_E2.channels.index("delta_a")
    linear = nlp.gamma_linear.copy()
    linear[i_da] = 1e-3
    cheap = dataclasses.replace(nlp, gamma_linear=linear)
    assert oracle._zero_slack_certified(cheap) is None
    assert sqp.solve(cheap, oracle.ORACLE_SOLVER_OPTS).gamma[i_da] > 0.0


def test_lat_and_non_finite_samples_are_never_zero_slack_certified(
        monkeypatch):
    certified = oracle._zero_slack_certified
    calls = []
    monkeypatch.setattr(oracle, "_zero_slack_certified",
                        lambda nlp: calls.append(nlp) or certified(nlp))
    # a lateral zero label: the lateral problem is nonlinear, so a KKT
    # point of its slack-free problem proves nothing, and the SQP labels it
    theta = oracle._lat_theta_from_params(
        LAT_TEMPLATE, {"v": 15.0, "e_y": 0.0, "e_psi": 0.0, "delta": 0.0,
                       "alpha": 0.0, "invade_start": 200.0})
    feasible, slack, rep = oracle_solve(LAT_TEMPLATE, MODE_E3, theta)
    assert feasible and not slack.any() and rep.proof == "sqp"
    assert calls == []
    # a sample certified as it stands, with a NaN speed: the banded LU
    # raises on the non-finite Newton system, and the SQP labels it
    theta = oracle._lon_theta_from_params(LON_TEMPLATE, _ZERO_SLACK_PARAMS)
    assert oracle_solve(LON_TEMPLATE, MODE_E1, theta)[2].proof == "zero-slack"
    theta[-2] = np.nan
    calls.clear()
    feasible, slack, rep = oracle_solve(LON_TEMPLATE, MODE_E1, theta)
    assert len(calls) == 1 and certified(calls[0]) is None
    assert not feasible and slack is None and rep.proof == "sqp"


def test_the_recorded_closed_loop_gates_are_zero_slack_certified():
    # every oracle gate that the benchmark's cutin (k=21-32) and evasive
    # (k=37-40) windows pass feasible, recorded with its theta
    path = os.path.join(os.path.dirname(__file__), "data",
                        "oracle_gate_thetas.json")
    with open(path) as fh:
        recorded = json.load(fh)
    for workload, cycles in (("cutin", range(21, 33)),
                             ("evasive", range(37, 41))):
        config = simkit.load_scenario(
            os.path.join(CONFIGS, recorded[workload]["config"]))
        template = simkit.scenario_template(config, "lon")
        modes = {mode.name: mode for mode, _, _ in config.mode_specs}
        gates = recorded[workload]["gates"]
        assert [gate["k"] for gate in gates] == list(cycles)
        for gate in gates:
            mode = modes[gate["mode"]]
            theta = np.array([float.fromhex(v) for v in gate["theta"]])
            feasible, slack, rep = oracle_solve(template, mode, theta)
            assert rep.proof == "zero-slack", (workload, gate["k"])
            assert feasible
            assert slack.tobytes() == np.zeros(mode.n_channels).tobytes()
