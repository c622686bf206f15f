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
from softmpc.sqp import STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveReport
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


def _report(status, xs, us):
    return SolveReport(status=status, us=us, xs=xs, gamma=np.zeros(0),
                       objective=0.0, stationarity=0.0,
                       primal_infeasibility=0.0, complementarity=0.0,
                       sqp_iterations=1, ip_iterations=1, wall_time=0.0,
                       infeasibility_measure=0.0)


def test_hard_row_gate_fails_nan_and_inf_residuals(monkeypatch):
    # a predicted trajectory that holds every row, then the same one with a
    # NaN lateral error at step 5 and an infinite speed at step 7
    ctrl = _controller()
    M = HORIZON.n_constraint
    profile = nominal_profile(M, PATH.lane_width)
    xs = np.zeros((M + 1, dyn.NX))
    xs[:, dyn.IDX_V] = 5.0
    us = np.zeros((M, dyn.NU))
    hard, _ = ctrl._residuals(SimpleNamespace(xs=xs, us=us), profile,
                              ocp.NOMINAL_MODE, np.zeros(0))
    assert hard == pytest.approx(-0.3)
    bad = xs.copy()
    bad[5, dyn.IDX_EY] = np.nan
    bad[7, dyn.IDX_V] = np.inf
    for mode, slack in ((ocp.NOMINAL_MODE, np.zeros(0)),
                        (MODE_E1, np.array([1.0]))):
        hard, _ = ctrl._residuals(SimpleNamespace(xs=bad, us=us), profile,
                                  mode, slack)
        assert not hard <= HARD_ROW_TOL
    # every solve returning that trajectory: neither the nominal nor a
    # relaxed branch may accept it. A nonzero oracle slack gives each
    # relaxed rung a problem of its own, so each is solved and gated.
    monkeypatch.setattr(controller, "solve",
                        lambda nlp: _report(STATUS_OPTIMAL, bad, us))
    monkeypatch.setattr(controller, "oracle_solve", lambda template, mode, theta: (
        True, np.ones(mode.n_channels), None))
    decision = ctrl.step(xs[0], profile)
    assert decision.branch == BRANCH_FAILURE
    assert decision.nominal_gate["solve_status"] == "hard-row-violation"
    assert [g["solve_status"] for g in decision.mode_gates.values()] == \
        ["hard-row-violation"] * 2


MODE_E3 = ocp.RelaxationMode(name="E3", priority=3, relax={"a_y_ub": "d_ay"},
                             ceilings={"d_ay": 4.0},
                             drop=("g_lon_safe", "g_follow"))


@pytest.mark.parametrize("modes, slacks, solved, duplicate_of", [
    # zero slack without dropped rows: the nominal problem again
    ((MODE_E1, MODE_E2), {"E1": [0.0], "E2": [0.0, 0.0]},
     ["nominal"], {"E1": "nominal", "E2": "nominal"}),
    # E2 at [x, 0] lifts the rows E1 at [x] lifts
    ((MODE_E1, MODE_E2), {"E1": [2.0], "E2": [2.0, 0.0]},
     ["nominal", "E1"], {"E2": "E1"}),
    # a nonzero slack, and a mode that drops rows, are problems of their own
    ((MODE_E1, MODE_E2, MODE_E3), {"E1": [0.0], "E2": [0.0, 1.0], "E3": [0.0]},
     ["nominal", "E2", "E3"], {"E1": "nominal"}),
], ids=["zero-slack", "same-lift", "own-problems"])
def test_ladder_solves_each_distinct_problem_once(monkeypatch, modes, slacks,
                                                  solved, duplicate_of):
    M = HORIZON.n_constraint
    profile = nominal_profile(M, PATH.lane_width)
    calls = []

    def failing_solve(nlp):
        calls.append(nlp)
        return _report(STATUS_INFEASIBLE, np.zeros((M + 1, dyn.NX)),
                       np.zeros((M, dyn.NU)))
    monkeypatch.setattr(controller, "solve", failing_solve)
    monkeypatch.setattr(controller, "oracle_solve", lambda template, mode, theta: (
        True, np.array(slacks[mode.name]), None))
    ctrl = _controller(modes=[ModeRuntime(mode=m, template=LON_TEMPLATE)
                              for m in modes])
    decision = ctrl.step(dyn.state(v=5.0), profile)
    assert decision.branch == BRANCH_FAILURE
    assert len(calls) == len(solved)
    rungs = {"nominal": decision.nominal_gate, **decision.mode_gates}
    assert [name for name, g in rungs.items() if "solve" in g] == solved
    for name in solved:
        assert rungs[name]["solve_status"] == STATUS_INFEASIBLE
        assert rungs[name]["solve"] == {
            "status": STATUS_INFEASIBLE, "objective": 0.0,
            "stationarity": 0.0, "primal_infeasibility": 0.0,
            "complementarity": 0.0, "sqp_iterations": 1, "ip_iterations": 1,
            "infeasibility_measure": 0.0}
    assert {name: g["duplicate_of"] for name, g in rungs.items()
            if g.get("solve_status") == "duplicate"} == duplicate_of
    assert len(decision.mode_gates) == len(modes)


def test_decision_log_record_is_json_friendly():
    import json
    ctrl = _controller()
    x = dyn.state(s=0.0, v=V_REF)
    decision = ctrl.step(x, _profile_from_ru(RoadUserState(lon=45.0, lat=0.0, v_lon=7.0)))
    rec = decision.log_record()
    json.dumps(rec)
    assert rec["branch"] == BRANCH_NOMINAL


def test_identical_cycles_log_identical_records():
    # solve timings (wall_time, phase_s) stay on the SolveReport: the
    # decision log of the same cycles is the same dict on every run
    def run_once():
        ctrl = _controller()
        x = dyn.state(s=0.0, v=V_REF)
        return [ctrl.step(x, _profile_from_ru(
                    RoadUserState(lon=lon, lat=0.0, v_lon=v))).log_record()
                for lon, v in ((50.0, 7.0), (14.0, 6.5))]
    a, b = run_once(), run_once()
    assert a == b
    assert a[1]["branch"] in ("E1", "E2")
    solved = [a[0]["nominal"]["solve"]] + [
        g["solve"] for g in a[1]["gates"].values() if "solve" in g]
    assert len(solved) >= 2
    for rec in solved:
        assert "wall_time" not in rec and "phase_s" not in rec


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
