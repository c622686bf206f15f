from types import SimpleNamespace

import numpy as np
import pytest

from softmpc import controller
from softmpc import dynamics as dyn
from softmpc import ocp
from softmpc.controller import (BRANCH_FAILURE, BRANCH_NOMINAL, HARD_ROW_TOL,
                                ControlDecision, ModeRuntime,
                                PriorityController)
from softmpc.dynamics import VehicleParams
from softmpc.environment import (DisturbanceProfile, NO_BOUND, RoadUserState,
                                 build_profile, nominal_profile)
from softmpc.oracle import LonSampler, ScenarioTemplate, generate_dataset
from softmpc.path import straight_path
from softmpc.sqp import STATUS_OPTIMAL
from softmpc.surrogate import LipschitzBudget, train_mode_model

PARAMS = VehicleParams()
PATH = straight_path(600.0)
HORIZON = ocp.HorizonConfig(n_cost=8, n_constraint=40, t_s=0.1)
STACK = ocp.ConstraintStack(params=PARAMS)
TERMINAL = ocp.TerminalSets()
V_REF = 7.0
WEIGHTS = ocp.terminal_weights(PATH, PARAMS, HORIZON.t_s, V_REF)

MODE_E1 = ocp.RelaxationMode(name="E1", priority=1, relax={"g_follow": "delta_g"},
                             ceilings={"delta_g": 30.0})
MODE_E2 = ocp.RelaxationMode(
    name="E2", priority=2,
    relax={"g_follow": "delta_g", "a_req_comfort_lb": "delta_a"},
    ceilings={"delta_g": 30.0, "delta_a": 6.0})
LON_TEMPLATE = ScenarioTemplate(kind="lon", horizon=HORIZON, params=PARAMS,
                                stack=STACK, terminal=TERMINAL, v_ref=V_REF)


def _controller(modes=None, **kw):
    if modes is None:
        modes = [ModeRuntime(mode=MODE_E1, template=LON_TEMPLATE),
                 ModeRuntime(mode=MODE_E2, template=LON_TEMPLATE)]
    return PriorityController(PATH, PARAMS, WEIGHTS, HORIZON, STACK, TERMINAL,
                              modes, v_ref=V_REF, use_oracle=True, **kw)


def _profile_from_ru(ru, ego_lane="right"):
    return build_profile(PATH, ru, HORIZON.n_constraint, HORIZON.t_s,
                         growth=(0.25, 0.3), d_safe=6.0, ego_lane=ego_lane)


def test_consistent_cycles_take_nominal_branch():
    ctrl = _controller()
    x = dyn.state(s=0.0, v=V_REF)
    ru = RoadUserState(lon=60.0, lat=0.0, v_lon=7.0)
    for k in range(4):
        profile = _profile_from_ru(
            RoadUserState(lon=60.0 + 0.7 * k, lat=0.0, v_lon=7.0))
        decision = ctrl.step(x, profile)
        assert decision.branch == BRANCH_NOMINAL
        assert decision.slack == {}
        assert decision.hard_residual <= 1e-6
        x = dyn.f_discrete(x, decision.u, PATH, PARAMS, HORIZON.t_s,
                           project_speed=True)


def test_duplicate_priorities_rejected():
    modes = [ModeRuntime(mode=MODE_E1, template=LON_TEMPLATE),
             ModeRuntime(mode=ocp.RelaxationMode(
                 name="X", priority=1, relax={"g_follow": "c"},
                 ceilings={"c": 5.0}), template=LON_TEMPLATE)]
    with pytest.raises(ValueError, match="unique"):
        _controller(modes=modes)


def test_model_required_without_oracle():
    with pytest.raises(ValueError, match="trained model"):
        PriorityController(PATH, PARAMS, WEIGHTS, HORIZON, STACK, TERMINAL,
                           [ModeRuntime(mode=MODE_E1, template=LON_TEMPLATE)],
                           v_ref=V_REF, use_oracle=False)


def test_cut_in_escalates_and_respects_hard_rows():
    ctrl = _controller()
    x = dyn.state(s=0.0, v=V_REF)
    # consistent first cycle
    d0 = ctrl.step(x, _profile_from_ru(RoadUserState(lon=50.0, lat=0.0, v_lon=7.0)))
    assert d0.branch == BRANCH_NOMINAL
    # sudden cut-in: the yield bound collapses inside the desired headway
    d1 = ctrl.step(x, _profile_from_ru(RoadUserState(lon=14.0, lat=0.0, v_lon=6.5)))
    assert d1.branch in ("E1", "E2")
    assert not d1.consistency.consistent
    assert d1.hard_residual <= 1e-6
    assert d1.slack["delta_g"] > 0.0
    # ceilings always respected
    for ch, val in d1.slack.items():
        assert val <= MODE_E2.ceilings.get(ch, MODE_E1.ceilings.get(ch)) + 1e-12


def test_failure_when_no_mode_feasible():
    ctrl = _controller(modes=[ModeRuntime(mode=MODE_E1, template=LON_TEMPLATE)])
    x = dyn.state(s=0.0, v=20.0)  # fast approach, tiny gap, short horizon
    ctrl.step(x, _profile_from_ru(RoadUserState(lon=100.0, lat=0.0, v_lon=20.0)))
    decision = ctrl.step(x, _profile_from_ru(RoadUserState(lon=6.0, lat=0.0, v_lon=0.0)))
    assert decision.branch == BRANCH_FAILURE
    assert decision.u is None
    assert decision.mode_gates["E1"]["predicted_feasible"] is False


def test_hard_row_gate_fails_nan_and_inf_residuals(monkeypatch):
    # a predicted trajectory that holds every row, then the same one with a
    # NaN lateral error at step 5 and an infinite speed at step 7
    ctrl = _controller()
    M = HORIZON.n_constraint
    profile = nominal_profile(M, PATH.lane_width)
    xs = np.zeros((M + 1, dyn.NX))
    xs[:, dyn.IDX_V] = 5.0
    us = np.zeros((M, dyn.NU))
    hard, _ = ctrl._residuals(SimpleNamespace(xs=xs, us=us), profile, None, None)
    assert hard == pytest.approx(-0.3)
    bad = xs.copy()
    bad[5, dyn.IDX_EY] = np.nan
    bad[7, dyn.IDX_V] = np.inf
    for mode, slack in ((None, None), (MODE_E1, np.array([1.0]))):
        hard, _ = ctrl._residuals(SimpleNamespace(xs=bad, us=us), profile,
                                  mode, slack)
        assert not hard <= HARD_ROW_TOL
    # every solve returning that trajectory: neither the nominal nor a
    # relaxed branch may accept it
    monkeypatch.setattr(controller, "solve", lambda nlp: SimpleNamespace(
        status=STATUS_OPTIMAL, xs=bad, us=us, infeasibility_measure=0.0,
        stationarity=0.0))
    decision = ctrl.step(xs[0], profile)
    assert decision.branch == BRANCH_FAILURE
    assert [g["solve_status"] for g in decision.mode_gates.values()] == \
        ["hard-row-violation"] * 2


def test_decision_log_record_is_json_friendly():
    import json
    ctrl = _controller()
    x = dyn.state(s=0.0, v=V_REF)
    decision = ctrl.step(x, _profile_from_ru(RoadUserState(lon=45.0, lat=0.0, v_lon=7.0)))
    rec = decision.log_record()
    json.dumps(rec)
    assert rec["branch"] == BRANCH_NOMINAL


def test_deterministic_decisions():
    def run_once():
        ctrl = _controller()
        x = dyn.state(s=0.0, v=V_REF)
        out = []
        for k in range(3):
            ru = RoadUserState(lon=30.0 - 4.0 * k, lat=0.0, v_lon=6.0)
            d = ctrl.step(x, _profile_from_ru(ru))
            out.append((d.branch, None if d.u is None else d.u.copy()))
            if d.u is not None:
                x = dyn.f_discrete(x, d.u, PATH, PARAMS, HORIZON.t_s,
                                   project_speed=True)
        return out
    a, b = run_once(), run_once()
    for (ba, ua), (bb, ub) in zip(a, b):
        assert ba == bb
        if ua is None:
            assert ub is None
        else:
            np.testing.assert_array_equal(ua, ub)


def test_surrogate_backed_controller_runs():
    # train a quick pair on a small oracle dataset; quality is not the point
    rows, balance = generate_dataset(LON_TEMPLATE, MODE_E1, count=60, seed=9)
    thetas = np.stack([r[0] for r in rows])
    feas = np.array([r[1] for r in rows])
    slacks = np.stack([r[2] if r[2] is not None else np.zeros(1) for r in rows])
    budget = LipschitzBudget(max_disturbance=40.0, max_state_step=4.0,
                             ceilings=MODE_E1.ceiling_vector())
    model = train_mode_model("E1", MODE_E1.channels, MODE_E1.ceiling_vector(),
                             thetas, feas, slacks, budget, epochs=300, seed=1)
    ctrl = PriorityController(
        PATH, PARAMS, WEIGHTS, HORIZON, STACK, TERMINAL,
        [ModeRuntime(mode=MODE_E1, template=LON_TEMPLATE, model=model)],
        v_ref=V_REF, use_oracle=False)
    x = dyn.state(s=0.0, v=V_REF)
    d0 = ctrl.step(x, _profile_from_ru(RoadUserState(lon=50.0, lat=0.0, v_lon=7.0)))
    assert d0.branch == BRANCH_NOMINAL
    d1 = ctrl.step(x, _profile_from_ru(RoadUserState(lon=16.0, lat=0.0, v_lon=6.8)))
    assert d1.branch in ("E1", BRANCH_FAILURE)
    if d1.branch == "E1":
        # applied slack includes the model margin and stays under the ceiling
        assert d1.eps_used == model.eps
        assert d1.slack["delta_g"] <= 30.0 + 1e-12
        assert d1.hard_residual <= 1e-6


def test_model_ceiling_mismatch_rejected():
    rows, _ = generate_dataset(LON_TEMPLATE, MODE_E1, count=30, seed=3)
    thetas = np.stack([r[0] for r in rows])
    feas = np.array([r[1] for r in rows])
    slacks = np.stack([r[2] if r[2] is not None else np.zeros(1) for r in rows])
    budget = LipschitzBudget(40.0, 4.0, np.array([12.0]))
    model = train_mode_model("E1", ("delta_g",), np.array([12.0]), thetas,
                             feas, slacks, budget, epochs=50, seed=1)
    with pytest.raises(ValueError, match="ceilings"):
        ModeRuntime(mode=MODE_E1, template=LON_TEMPLATE, model=model)
