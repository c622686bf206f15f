import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmpc import controller
from softmpc import dynamics as dyn
from softmpc import ocp, sqp
from softmpc.controller import (BRANCH_FAILURE, BRANCH_NOMINAL, HARD_ROW_TOL,
                                ControlDecision, ModeRuntime,
                                PriorityController)
from softmpc.dynamics import VehicleParams
from softmpc.environment import (DisturbanceProfile, NO_BOUND, RoadUserState,
                                 build_profile, nominal_profile)
from softmpc.oracle import (OracleReport, ScenarioTemplate, build_theta,
                            generate_dataset, oracle_solve)
from softmpc.path import PathRangeError, circular_path, straight_path
from softmpc.sqp import PHASES, STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveReport
from softmpc.surrogate import LipschitzBudget, train_mode_model

PARAMS = VehicleParams()
PATH = straight_path(600.0)
HORIZON = ocp.HorizonConfig(n_cost=8, n_constraint=40, t_s=0.1)
STACK = ocp.ConstraintStack(params=PARAMS)
V_REF = 7.0

MODE_E1 = ocp.RelaxationMode(name="E1", priority=1, relax={"g_follow": "delta_g"},
                             ceilings={"delta_g": 30.0})
MODE_E2 = ocp.RelaxationMode(
    name="E2", priority=2,
    relax={"g_follow": "delta_g", "a_req_comfort_lb": "delta_a"},
    ceilings={"delta_g": 30.0, "delta_a": 6.0})
MODE_E3 = ocp.RelaxationMode(name="E3", priority=3, relax={"a_y_ub": "d_ay"},
                             ceilings={"d_ay": 4.0},
                             drop=("g_lon_safe", "g_follow"))
LON_TEMPLATE = ScenarioTemplate(kind="lon", horizon=HORIZON, stack=STACK,
                                v_ref=V_REF, lane_width=PATH.lane_width)
LAT_TEMPLATE = ScenarioTemplate(kind="lat", horizon=HORIZON, stack=STACK,
                                v_ref=V_REF, lane_width=PATH.lane_width)


def _controller(modes=None, **kw):
    if modes is None:
        modes = [ModeRuntime(mode=MODE_E1, kind="lon"),
                 ModeRuntime(mode=MODE_E2, kind="lon")]
    return PriorityController(PATH, HORIZON, STACK, modes, V_REF,
                              use_oracle=True, **kw)


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
    modes = [ModeRuntime(mode=MODE_E1, kind="lon"),
             ModeRuntime(mode=ocp.RelaxationMode(
                 name="X", priority=1, relax={"g_follow": "c"},
                 ceilings={"c": 5.0}), kind="lon")]
    with pytest.raises(ValueError, match="unique"):
        _controller(modes=modes)


def test_model_required_without_oracle():
    with pytest.raises(ValueError, match="trained model"):
        PriorityController(PATH, HORIZON, STACK,
                           [ModeRuntime(mode=MODE_E1, kind="lon")],
                           V_REF, use_oracle=False)


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
    ctrl = _controller(modes=[ModeRuntime(mode=MODE_E1, kind="lon")])
    x = dyn.state(s=0.0, v=20.0)  # fast approach, tiny gap, short horizon
    ctrl.step(x, _profile_from_ru(RoadUserState(lon=100.0, lat=0.0, v_lon=20.0)))
    decision = ctrl.step(x, _profile_from_ru(RoadUserState(lon=6.0, lat=0.0, v_lon=0.0)))
    assert decision.branch == BRANCH_FAILURE
    assert decision.u is None
    assert decision.mode_gates["E1"]["predicted_feasible"] is False


def _evasive_profile():
    # a road user stopped 8 m ahead of the ego, with the lane switch armed:
    # the corridor is the left lane from step 0
    return build_profile(PATH, RoadUserState(lon=8.0, lat=0.0, v_lon=0.0),
                         HORIZON.n_constraint, HORIZON.t_s,
                         growth=(0.25, 0.3), d_safe=6.0, evasive=True)


_ALL_MODES = [ModeRuntime(mode=MODE_E1, kind="lon"),
              ModeRuntime(mode=MODE_E2, kind="lon"),
              ModeRuntime(mode=MODE_E3, kind="lat")]


def test_oracle_gates_show_which_verdicts_the_certificate_settled(monkeypatch):
    # the evasive cycle with the ego at 20 m/s and e_y = 0, outside the
    # step-0 corridor. That row reads e_y alone and no mode lifts or drops
    # it, so the pinned-row screen skips every gate and records by how much
    # the start breaks the row: the corridor's distance to the ego
    profile = _evasive_profile()
    x = dyn.state(s=0.0, v=20.0)
    step0_miss = profile.corridor_lo[0] - x[dyn.IDX_EY]
    assert step0_miss == 1.75
    gated = []
    real_oracle = controller.oracle_solve
    monkeypatch.setattr(controller, "oracle_solve", lambda template, mode, theta: (
        gated.append(mode.name) or real_oracle(template, mode, theta)))
    gates = _controller(modes=_ALL_MODES).step(x, profile).log_record()["gates"]
    assert gates == {name: {"solve_status": "pinned-row",
                            "pinned_violation": step0_miss}
                     for name in ("E1", "E2", "E3")}
    assert gated == []
    # E3's own gate would have settled it the same way: the lateral mode has
    # no certificate, but its SQP ends at the pinned-row exit, without an
    # iteration, with the same violation
    feasible, _, rep = oracle_solve(LAT_TEMPLATE, MODE_E3,
                                    build_theta(LAT_TEMPLATE, x, profile))
    assert feasible is False and rep.status == STATUS_INFEASIBLE
    assert (rep.sqp_iterations, rep.ip_iterations) == (0, 0)
    assert rep.infeasibility_measure == step0_miss

    # the same cycle with the ego already at e_y = 2 inside the left lane:
    # step 0 is clean, so every gate runs. No braking clears the stopped road
    # user, so the longitudinal LP certificate settles E1 and E2 without an
    # SQP iteration, and E3's oracle runs the SQP
    x = dyn.state(s=0.0, v=20.0, e_y=2.0)
    assert profile.corridor_lo[0] < x[dyn.IDX_EY] < profile.corridor_hi[0]
    gates = _controller(modes=_ALL_MODES).step(x, profile).log_record()["gates"]
    assert gated == ["E1", "E2", "E3"]
    for name in ("E1", "E2"):
        assert gates[name]["predicted_feasible"] is False
        assert gates[name]["oracle_status"] == STATUS_INFEASIBLE
        assert gates[name]["oracle_sqp_iterations"] == 0
        assert gates[name]["oracle_proof"] == "lp"
    assert gates["E3"]["oracle_sqp_iterations"] > 0
    assert gates["E3"]["oracle_proof"] == "sqp"
    assert "wall_time" not in json.dumps(gates)

    # a road user that cuts in 40 m ahead at the ego's speed: the profile
    # tightens, so the nominal rung is skipped, but the gap needs no slack.
    # The zero-slack certificate settles E1's gate with the iterations of
    # its slack-free solve, and the rung takes that zero slack
    ctrl = _controller()
    x = dyn.state(s=0.0, v=V_REF)
    ctrl.step(x, _profile_from_ru(RoadUserState(lon=100.0, lat=0.0, v_lon=7.0)))
    gated.clear()
    record = ctrl.step(x, _profile_from_ru(
        RoadUserState(lon=40.0, lat=0.0, v_lon=7.0))).log_record()
    assert gated == ["E1"] and record["nominal"] is None
    assert record["branch"] == "E1" and record["slack"] == {"delta_g": 0.0}
    gate = record["gates"]["E1"]
    assert gate["predicted_feasible"] is True
    assert gate["oracle_status"] == STATUS_OPTIMAL
    assert gate["oracle_sqp_iterations"] > 0
    assert gate["oracle_proof"] == "zero-slack"


_SLACK_FRACTION = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(e_y=st.floats(-1.0, 4.0), v=st.floats(0.0, 20.0),
       lead=st.floats(6.0, 40.0),
       fractions=st.lists(_SLACK_FRACTION, min_size=2, max_size=2))
@example(e_y=0.0, v=20.0, lead=8.0, fractions=[0.0, 1.0])
@example(e_y=4.0, v=0.0, lead=8.0, fractions=[1.0, 0.0])
def test_a_screened_rung_settles_at_every_slack_its_gate_could_return(
        e_y, v, lead, fractions):
    # whenever the screen skips a rung, the rung's problem at any slack in
    # [0, ceiling] ends infeasible at the SQP's pinned-row exit, before its
    # first QP, and breaks its rows by at least the recorded violation. An
    # ego outside the step-0 corridor, a row no mode lifts or drops, has
    # every rung skipped, unless the warm start's rollout leaves the path
    # (a slow ego that the references brake into reverse past s = 0)
    profile = build_profile(PATH, RoadUserState(lon=lead, lat=0.0, v_lon=0.0),
                            HORIZON.n_constraint, HORIZON.t_s,
                            growth=(0.25, 0.3), d_safe=6.0, evasive=True)
    x = dyn.state(s=0.0, v=v, e_y=e_y)
    ctrl = _controller(modes=_ALL_MODES)
    M = HORIZON.n_constraint
    # the gates and the nominal solve fail at once: the screen runs first
    rejected = _report(STATUS_INFEASIBLE, np.zeros((M + 1, dyn.NX)),
                       np.zeros((M, dyn.NU)))
    with mock.patch.object(controller, "solve", lambda nlp: rejected), \
            mock.patch.object(controller, "oracle_solve",
                              lambda template, mode, theta: (
                                  False, None, _oracle_report(rejected))):
        decision = ctrl.step(x, profile)
    miss = max(profile.corridor_lo[0] - e_y, e_y - profile.corridor_hi[0])
    x_refs, u_refs = ctrl._references(x, profile)
    try:
        dyn.rollout(x, u_refs, PATH, PARAMS, HORIZON.t_s)
        on_path = True
    except PathRangeError:
        on_path = False
    for rt in ctrl.modes:
        gate = decision.mode_gates[rt.mode.name]
        if gate.get("solve_status") != "pinned-row":
            assert not on_path or miss <= sqp.INFEASIBILITY_TOL
            continue
        assert on_path and gate["pinned_violation"] >= miss
        slack = np.array(fractions[:rt.mode.n_channels]) * rt.mode.ceiling_vector()
        rep = sqp.solve(ocp.build_relaxed(
            x, PATH, ctrl.terminal_P, HORIZON, STACK, profile, rt.mode, slack,
            x_refs, u_refs, u_init=u_refs))
        assert rep.status == STATUS_INFEASIBLE
        assert (rep.sqp_iterations, rep.ip_iterations) == (0, 0)
        assert rep.infeasibility_measure >= gate["pinned_violation"]


def test_the_screen_moves_no_decision_and_skips_only_gates(monkeypatch):
    # a consistent cycle, a cut-in that a longitudinal mode takes and the
    # evasive cycle with the ego outside the step-0 corridor, run with the
    # screen and with it patched off: the same branches and inputs, bit for
    # bit, and the screen spares exactly the gates of the rungs it skips
    x = dyn.state(s=0.0, v=V_REF)
    cycles = [(x, _profile_from_ru(RoadUserState(lon=50.0, lat=0.0, v_lon=7.0))),
              (x, _profile_from_ru(RoadUserState(lon=14.0, lat=0.0, v_lon=6.5))),
              (dyn.state(s=0.0, v=20.0), _evasive_profile())]
    real_oracle = controller.oracle_solve

    def run():
        gated = []
        ctrl = _controller(modes=_ALL_MODES)
        with monkeypatch.context() as mp:
            mp.setattr(controller, "oracle_solve", lambda template, mode, theta: (
                gated[-1].append(mode.name)
                or real_oracle(template, mode, theta)))
            decisions = []
            for x_k, profile in cycles:
                gated.append([])
                decisions.append(ctrl.step(x_k, profile))
        return decisions, gated

    screened, screened_gates = run()
    monkeypatch.setattr(controller, "pinned_row_exit", lambda nlp, xs: None)
    plain, plain_gates = run()
    assert [d.branch for d in screened] == [d.branch for d in plain] == \
        [BRANCH_NOMINAL, screened[1].branch, BRANCH_FAILURE]
    assert screened[1].branch in ("E1", "E2")
    for a, b in zip(screened, plain):
        assert (a.u is None and b.u is None) or a.u.tobytes() == b.u.tobytes()
    for decision, ran, ran_plain in zip(screened, screened_gates, plain_gates):
        skipped = [name for name, g in decision.mode_gates.items()
                   if g.get("solve_status") == "pinned-row"]
        assert ran == [name for name in ran_plain if name not in skipped]
    assert screened_gates[2] == [] and plain_gates[2] == ["E1", "E2", "E3"]


@pytest.mark.parametrize("path, x, error", [
    # the warm plan brakes the near-stopped ego into reverse past s = 0
    (PATH, dyn.state(s=0.5, v=1.0), PathRangeError),
    # on a circle of radius 8 m the ego at e_y = 8 sits on the Frenet
    # singularity, 1 - kappa e_y = 0, from step 0
    (circular_path(8.0, 300.0), dyn.state(s=10.0, v=1.0, e_y=8.0),
     dyn.FrenetSingularity),
], ids=["leaves-path", "frenet-singularity"])
@pytest.mark.parametrize("verdict", [False, True], ids=["reject", "pass"])
def test_a_start_that_leaves_the_path_leaves_the_gates_to_decide(
        monkeypatch, verdict, path, x, error):
    # the evasive cycle with the ego outside the step-0 corridor, which the
    # screen would skip; but every rung's start rolls the warm plan out of
    # the path's range. The screen then stands aside and the gates decide
    # as before: rejecting gates end the cycle in failure, and a passing
    # gate's solve raises the rollout's error
    M = HORIZON.n_constraint
    ctrl = PriorityController(path, HORIZON, STACK, _ALL_MODES, V_REF,
                              use_oracle=True)
    # a previous, looser profile: the cycle is inconsistent, no nominal rung
    ctrl._prev_profile = _profile_from_ru(RoadUserState(lon=50.0, lat=0.0,
                                                        v_lon=7.0))
    ctrl._warm_us = np.tile([0.0, -5.0], (M, 1))
    gated = []
    monkeypatch.setattr(controller, "oracle_solve", lambda template, mode, theta: (
        gated.append(mode.name)
        or (verdict, mode.ceiling_vector() if verdict else None,
            _oracle_report(_report(STATUS_OPTIMAL if verdict
                                   else STATUS_INFEASIBLE, None, None)))))
    profile = _evasive_profile()
    assert not profile.corridor_lo[0] <= x[dyn.IDX_EY] <= profile.corridor_hi[0]
    if verdict:
        with pytest.raises(error):
            ctrl.step(x, profile)
        assert gated == ["E1"]
    else:
        decision = ctrl.step(x, profile)
        assert decision.branch == BRANCH_FAILURE
        assert decision.nominal_gate is None
        assert gated == ["E1", "E2", "E3"]
        assert all(g["predicted_feasible"] is False
                   for g in decision.mode_gates.values())


def test_the_learned_route_has_no_screen(monkeypatch):
    # the evasive cycle with the ego outside the step-0 corridor, which the
    # oracle route screens. On the learned route each gate is a surrogate
    # inference, cheaper than the screen, so every gate runs: here each
    # passes, and each rung's solve ends at the SQP's pinned-row exit
    screened = []
    monkeypatch.setattr(controller, "pinned_row_exit", lambda nlp, xs: (
        screened.append(nlp) or 1.0))
    modes = []
    for rt in _ALL_MODES:
        ceil = rt.mode.ceiling_vector()
        model = SimpleNamespace(
            channels=rt.mode.channels, ceilings=ceil, eps=0.0,
            input_shift=np.zeros((LAT_TEMPLATE if rt.kind == "lat"
                                  else LON_TEMPLATE).theta_dim),
            admissible_disturbance=lambda step: np.inf,
            infer=lambda theta, ceil=ceil: (0.5 * ceil, False, 0.9))
        modes.append(ModeRuntime(mode=rt.mode, kind=rt.kind, model=model))
    ctrl = PriorityController(PATH, HORIZON, STACK, modes, V_REF,
                              use_oracle=False)
    ctrl._prev_profile = _profile_from_ru(RoadUserState(lon=50.0, lat=0.0,
                                                        v_lon=7.0))
    decision = ctrl.step(dyn.state(s=0.0, v=20.0), _evasive_profile())
    assert screened == []
    assert decision.branch == BRANCH_FAILURE
    for gate in decision.mode_gates.values():
        assert gate["predicted_feasible"] is True and gate["score"] == 0.9
        assert gate["solve_status"] == STATUS_INFEASIBLE
        assert gate["solve"]["sqp_iterations"] == 0


def _report(status, xs, us):
    return SolveReport(status=status, us=us, xs=xs, gamma=np.zeros(0),
                       objective=0.0, stationarity=0.0,
                       primal_infeasibility=0.0, complementarity=0.0,
                       sqp_iterations=1, ip_iterations=1, wall_time=0.0,
                       infeasibility_measure=0.0)


def _oracle_report(rep):
    """oracle_solve's report of a solve rep that the SQP settled."""
    return OracleReport(**vars(rep), proof="sqp")


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
        True, np.ones(mode.n_channels),
        _oracle_report(_report(STATUS_OPTIMAL, None, None))))
    decision = ctrl.step(xs[0], profile)
    assert decision.branch == BRANCH_FAILURE
    assert decision.nominal_gate["solve_status"] == "hard-row-violation"
    assert [g["solve_status"] for g in decision.mode_gates.values()] == \
        ["hard-row-violation"] * 2


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
        True, np.array(slacks[mode.name]),
        _oracle_report(_report(STATUS_OPTIMAL, None, None))))
    ctrl = _controller(modes=[ModeRuntime(mode=m, kind="lon")
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
            "infeasibility_measure": 0.0, "wall_time": 0.0, "phase_s": {}}
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
    # the decision keeps each solve's timings (wall_time, phase_s) and
    # log_record leaves them out: the decision log of the same cycles is
    # the same dict on every run
    def run_once():
        ctrl = _controller()
        x = dyn.state(s=0.0, v=V_REF)
        return [ctrl.step(x, _profile_from_ru(
                    RoadUserState(lon=lon, lat=0.0, v_lon=v)))
                for lon, v in ((50.0, 7.0), (14.0, 6.5))]

    def solves(nominal, gates):
        return [nominal["solve"]] + [g["solve"] for g in gates.values()
                                     if "solve" in g]
    decisions = run_once()
    a = [d.log_record() for d in decisions]
    b = [d.log_record() for d in run_once()]
    assert a == b
    assert a[1]["branch"] in ("E1", "E2")
    solved = solves(a[0]["nominal"], a[1]["gates"])
    assert len(solved) >= 2
    for rec in solved:
        assert "wall_time" not in rec and "phase_s" not in rec
    kept = solves(decisions[0].nominal_gate, decisions[1].mode_gates)
    assert len(kept) == len(solved)
    for rec, logged in zip(kept, solved):
        assert rec["wall_time"] > 0.0
        assert tuple(rec["phase_s"]) == PHASES
        assert {k: v for k, v in rec.items()
                if k not in ("wall_time", "phase_s")} == logged


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
        PATH, HORIZON, STACK,
        [ModeRuntime(mode=MODE_E1, kind="lon", model=model)], V_REF,
        use_oracle=False)
    x = dyn.state(s=0.0, v=V_REF)
    d0 = ctrl.step(x, _profile_from_ru(RoadUserState(lon=50.0, lat=0.0, v_lon=7.0)))
    assert d0.branch == BRANCH_NOMINAL
    d1 = ctrl.step(x, _profile_from_ru(RoadUserState(lon=16.0, lat=0.0, v_lon=6.8)))
    assert d1.branch in ("E1", BRANCH_FAILURE)
    gate = d1.mode_gates["E1"]
    assert gate["eps"] == model.eps
    assert 0.0 <= gate["score"] <= 1.0
    if d1.branch == "E1":
        # applied slack includes the model margin and stays under the ceiling
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
        PriorityController(
            PATH, HORIZON, STACK,
            [ModeRuntime(mode=MODE_E1, kind="lon", model=model)], V_REF)
