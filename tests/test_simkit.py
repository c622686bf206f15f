import copy
import dataclasses
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from softmpc import dynamics as dyn
from softmpc import ocp, simkit
from softmpc.dynamics import VehicleParams
from softmpc.controller import ControlDecision
from softmpc.environment import RoadUserState, nominal_profile
from softmpc.oracle import ScenarioTemplate
from softmpc.simkit import (CutInSpec, ScenarioConfig, SimLog, emit_plots,
                            load_scenario, metrics, run, write_log_csv)
from softmpc.surrogate import (DenseNet, LipschitzBudget, SurrogateModel,
                               save_model)


def _small_config(**kw):
    mode = ocp.RelaxationMode(name="E1", priority=1,
                              relax={"g_follow": "delta_g"},
                              ceilings={"delta_g": 30.0})
    defaults = dict(
        name="mini", duration=3.0, v_ref=7.0, ego_v0=7.0,
        path_length=400.0,
        horizon=ocp.HorizonConfig(n_cost=8, n_constraint=40, t_s=0.1),
        cut_in=CutInSpec(initial_gap=50.0, initial_lat=0.0, target_lat=0.0,
                         speed=7.0, cut_start=1.0, cut_duration=1.0,
                         post_cut_speed=7.0, post_cut_decel=1.0),
        mode_specs=[(mode, "lon", "")])
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_cut_in_spec_kinematics():
    spec = CutInSpec(initial_gap=40.0, initial_lat=3.5, target_lat=0.0,
                     speed=15.0, cut_start=2.0, cut_duration=1.5,
                     post_cut_speed=10.0, post_cut_decel=5.0)
    before = spec.state_at(1.0, ego_s0=0.0)
    assert before.lat == 3.5
    assert before.v_lon == 15.0
    assert before.lon == pytest.approx(40.0 + 15.0)
    mid = spec.state_at(2.75, ego_s0=0.0)
    assert 0.0 < mid.lat < 3.5
    assert mid.v_lat < 0.0
    after = spec.state_at(5.0, ego_s0=0.0)
    assert after.lat == 0.0
    assert after.v_lat == 0.0
    assert after.v_lon == 10.0
    # continuity of position across the speed ramp
    eps = 1e-6
    for t in (2.0, 3.0, 2.0 + 1.0):
        a = spec.state_at(t - eps, 0.0).lon
        b = spec.state_at(t + eps, 0.0).lon
        assert abs(a - b) < 1e-3


def test_duration_must_match_sampling():
    with pytest.raises(ValueError, match="multiple"):
        _small_config(duration=3.05)


@pytest.mark.parametrize("field_name, value, key", [
    ("cut_start", -0.1, "ru_cut_start"),
    ("cut_duration", 0.0, "ru_cut_duration"),
    ("cut_duration", -1.0, "ru_cut_duration"),
    ("cut_start", math.nan, "ru_cut_start"),
])
def test_cut_in_ramp_must_be_well_formed(field_name, value, key):
    spec = _small_config().cut_in
    setattr(spec, field_name, value)
    # the message names both the field and its INI key
    with pytest.raises(ValueError, match=rf"{field_name} \({key}\)"):
        _small_config(cut_in=spec)


def test_bad_cut_in_ini_key_reaches_the_cli_config_error(tmp_path, capsys):
    from softmpc import cli
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nduration = 2.0\nru_cut_duration = 0\n")
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and "ru_cut_duration" in err


@pytest.mark.parametrize("key, value", [
    ("lane_width", "0"), ("lane_width", "-3.5"), ("lane_width", "nan"),
    ("v_ref", "0"), ("v_ref", "-20"), ("v_ref", "nan"), ("v_ref", "inf"),
    ("ego_v0", "-5"), ("ego_v0", "nan"), ("ego_v0", "inf"),
    ("path_length", "0"), ("path_length", "-800"), ("path_length", "nan"),
    ("ego_s0", "-5"), ("ego_s0", "900"), ("ego_s0", "nan"),
    ("duration", "0"), ("duration", "-1"), ("duration", "nan"),
])
def test_bad_scenario_ini_key_reaches_the_cli_config_error(
        tmp_path, capsys, key, value):
    # lane_width = 0 used to run to the end; the others used to end the run
    # with a PathRangeError or a NaN error from the first cycle, or (the
    # durations) with a traceback from metrics' empty log or np.empty
    from softmpc import cli
    ini = tmp_path / "bad.ini"
    values = {"duration": "2.0", key: value}
    ini.write_text("[scenario]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in values.items()))
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and f"[scenario] {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("eps0", "-0.1"), ("eps0", "inf"), ("eps1", "-1"), ("eps1", "nan"),
    ("eps1", "inf"), ("d_safe", "0"), ("d_safe", "-2.0"), ("d_safe", "nan"),
    ("d_safe", "inf"),
])
def test_bad_prediction_ini_key_reaches_the_cli_config_error(
        tmp_path, capsys, key, value):
    # these values used to pass the loader and fail the first cycle's
    # reachable set or collision window with a traceback, or (the inf
    # values) to be accepted
    from softmpc import cli
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[scenario]\nduration = 2.0\n\n[prediction]\n{key} = {value}\n")
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and f"[prediction] {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("wheelbase", "0"), ("accel_tc", "0"), ("steer_w0", "-1"),
    ("steer_w1", "-0.5"), ("v_max", "nan"), ("delta_max", "inf"),
    ("accel_min", "5"), ("accel_min", "0"), ("accel_max", "0"),
])
def test_bad_vehicle_ini_key_reaches_the_cli_config_error(
        tmp_path, capsys, key, value):
    # wheelbase = 0 and accel_tc = 0 used to end the run with a traceback
    # from the terminal weights; the others used to be accepted
    from softmpc import cli
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[scenario]\nduration = 2.0\n\n[vehicle]\n{key} = {value}\n")
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and f"[vehicle] {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("horizon", "t_s", "inf"), ("horizon", "t_s", "nan"),
    ("horizon", "t_s", "0"), ("horizon", "t_s", "-0.1"),
    ("horizon", "n_cost", "0"),
    ("stack", "t_gap", "nan"), ("stack", "t_gap", "-1.5"),
    ("stack", "t_gap", "inf"),
    ("stack", "a_req_comfort_min", "3.0"), ("stack", "a_req_comfort_min", "0"),
    ("stack", "a_req_comfort_min", "-inf"),
    ("stack", "a_req_comfort_min", "nan"),
])
def test_bad_horizon_or_stack_ini_key_reaches_the_cli_config_error(
        tmp_path, capsys, section, key, value):
    # t_s = inf and t_gap = nan used to end the run with a traceback, t_s =
    # nan with an unrelated message; t_gap = -1.5 and a_req_comfort_min =
    # 3.0 used to be accepted
    from softmpc import cli
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[scenario]\nduration = 2.0\n\n[{section}]\n"
                   f"{key} = {value}\n")
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and f"[{section}] {key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("csv_text, match", [
    ("t,w_lon,w_lat\n0.0,50.0,3.5\n2.0,70.0,0.0\n1.0,60.0,3.5\n", "increasing"),
    (None, "No such file"),
    ("time,lon,lat\n0.0,50.0,3.5\n1.0,60.0,3.5\n", "header"),
    ("t,w_lon,w_lat\n0.0,50.0,3.5\n1.0,60.0\n", "line 3"),
    ("t,w_lon,w_lat\n0.0,50.0,3.5\n1.0,abc,3.5\n", "line 3"),
])
def test_bad_ru_file_reaches_the_cli_config_error(tmp_path, capsys, csv_text,
                                                  match):
    # the trajectory used to be read only when the run started, so these
    # files ended the simulation with a traceback
    from softmpc import cli
    if csv_text is not None:
        (tmp_path / "ru.csv").write_text(csv_text)
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nduration = 2.0\nru_file = ru.csv\n")
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and "[scenario] ru_file" in err
    assert match in err
    assert not (tmp_path / "out").exists()


def test_unknown_ini_section_reaches_the_cli_config_error(tmp_path, capsys):
    from softmpc import cli
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nduration = 2.0\n\n[solver]\nmax_sqp_iter = 5\n")
    code = cli.main(["simulate", "--config", str(ini), "--oracle",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and "[solver]" in err


def test_scenario_may_end_during_the_cut_in_ramp():
    # the ramp runs from 1.0 s to 2.0 s; stopping midway through it is legitimate
    assert _small_config(duration=1.5).n_steps == 15


def test_no_ru_tracking_regression():
    config = _small_config(with_ru=False, duration=3.0)
    log = run(config, use_oracle=True)
    assert not log.failed
    assert all(b == "nominal" for b in log.branches)
    # steady-state lateral error stays tiny on the straight road
    assert float(np.max(np.abs(log.states[10:, dyn.IDX_EY]))) <= 0.05


def test_consistent_ru_keeps_nominal_branch():
    config = _small_config()
    log = run(config, use_oracle=True)
    assert not log.failed
    assert all(b == "nominal" for b in log.branches)
    assert all(d.consistency.consistent for d in log.decisions[1:])
    assert max(d.hard_residual for d in log.decisions) <= 1e-6


def test_metrics_shapes_and_recomputation():
    config = _small_config()
    log = run(config, use_oracle=True)
    m = metrics(log)
    assert m["mode_occupancy"] == {"nominal": 1.0}
    assert m["hard_violations"] == 0
    assert not m["failed"]
    # min gap recomputed from the log columns matches the metric
    gaps = (np.array([p.yield_bound[0] for p in log.profiles])
            - log.states[:, dyn.IDX_S])
    assert m["min_gap"] == pytest.approx(float(np.min(gaps[np.isfinite(gaps)])))


def _timed_log(times, t_s, branches):
    """A log of len(times) cycles, each on `branches` and taking `times`
    seconds, with no road user."""
    n = len(times)
    return SimLog(states=np.zeros((n, dyn.NX)), inputs=np.zeros((n, dyn.NU)),
                  profiles=[nominal_profile(1, 3.5)] * n, road_users=[None] * n,
                  decisions=[ControlDecision(branch=b, consistency=None,
                                             wall_time=t)
                             for b, t in zip(branches, times)],
                  t_s=t_s, params=VehicleParams())


def test_metrics_deadline_percentile_and_transitions():
    # six 50 ms cycles: two over the 50 ms deadline, one exactly on it
    times = [0.01, 0.06, 0.05, 0.02, 0.09, 0.03]
    log = _timed_log(times, 0.05, ["nominal", "E1", "E1", "nominal",
                                   "failure", "failure"])
    m = metrics(log)
    assert m["deadline_misses"] == 2
    assert m["transitions"] == 3
    # linear interpolation between the two largest times
    assert m["p95_controller_time"] == pytest.approx(0.06 + 0.75 * 0.03)
    assert m["max_controller_time"] == 0.09


def test_one_cycle_log_uses_the_run_sampling_time():
    # a single cycle has no time grid; its deadline is still the run's t_s
    m = metrics(_timed_log([0.07], 0.05, ["nominal"]))
    assert m["deadline_misses"] == 1


def test_log_csv_round_trip(tmp_path):
    config = _small_config(duration=1.0)
    log = run(config, use_oracle=True)
    fname = tmp_path / "traj.csv"
    write_log_csv(log, str(fname))
    import csv as csvmod
    with open(fname) as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == len(log)
    assert float(rows[0]["v"]) == pytest.approx(log.states[0, dyn.IDX_V])
    assert rows[0]["branch"] == log.branches[0]
    # wall-clock columns stay out of the trajectory table
    assert all("time" not in k for k in rows[0].keys() if k != "t")


def test_identical_runs_write_identical_trajectories_and_decisions(tmp_path):
    # the per-cycle record keeps timings, the two artifacts leave them out
    config = _small_config(duration=1.0)
    files = []
    for name in ("a", "b"):
        log = run(config, use_oracle=True)
        traj, decisions = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        write_log_csv(log, str(traj))
        simkit.write_decision_log(log, str(decisions))
        files.append((traj.read_bytes(), decisions.read_bytes()))
    assert files[0] == files[1]
    assert len(files[0][1].splitlines()) == config.n_steps


def test_emit_plots_degenerate_log(tmp_path):
    config = _small_config(duration=0.2)
    log = run(config, use_oracle=True)
    files = emit_plots(log, str(tmp_path), "mini", config)
    assert len(files) == 2
    for f in files:
        root = ET.parse(f).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert polylines


def test_emit_plots_byte_identical(tmp_path):
    config = _small_config(duration=1.0)
    log = run(config, use_oracle=True)
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_plots(log, str(a), "mini", config)
    emit_plots(log, str(b), "mini", config)
    for name in ("mini_lon.svg", "mini_lat.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_band_edges_align_with_branch_transitions(tmp_path):
    # synthesize a log with a known activation window
    config = _small_config(duration=1.0)
    log = run(config, use_oracle=True)
    for k, d in enumerate(log.decisions):
        d.branch = "E1" if 3 <= k < 7 else "nominal"
    files = emit_plots(log, str(tmp_path), "mini", config)
    root = ET.parse(files[0]).getroot()
    bands = [el for el in root.iter()
             if el.tag.endswith("rect") and el.get("class") == "band"]
    assert bands
    # band label carries the branch; transitions at 0.3 s and 0.7 s
    t_s = 0.1
    t0, t1 = 3 * t_s, 7 * t_s
    starts = sorted(float(b.get("x")) for b in bands)
    # compare via the underlying data range: recompute expected pixel x
    tmax = float(log.t[-1])
    from softmpc.plots import _ML, _MR, _W
    pw = _W - _ML - _MR
    expect0 = _ML + pw * (t0 - 0.0) / (tmax - 0.0)
    assert any(abs(s - expect0) < 0.5 for s in starts)


def test_csv_trajectory_loader(tmp_path):
    fname = tmp_path / "ru.csv"
    fname.write_text("t,w_lon,w_lat\n0.0,50.0,3.5\n1.0,60.0,3.5\n2.0,70.0,0.0\n")
    traj = simkit.CsvTrajectory(str(fname))
    st = traj.state_at(0.5, ego_s0=0.0)
    assert st.lon == pytest.approx(55.0)
    assert st.v_lon == pytest.approx(10.0, rel=1e-3)
    st2 = traj.state_at(1.5, ego_s0=0.0)
    assert st2.lat == pytest.approx(1.75)
    assert st2.v_lat < 0.0


@pytest.mark.parametrize("rows, match", [
    ("0.0,50.0,3.5\n2.0,70.0,0.0\n1.0,60.0,3.5\n", "increasing"),
    ("0.0,50.0,3.5\n0.0,60.0,3.5\n", "increasing"),
    ("0.0,50.0,3.5\n1.0,nan,3.5\n", "non-finite"),
    ("0.0,50.0,3.5\ninf,60.0,3.5\n", "non-finite"),
])
def test_csv_trajectory_rejects_unsorted_or_non_finite_rows(tmp_path, rows,
                                                            match):
    # np.interp would silently return wrong road-user states for these
    fname = tmp_path / "ru.csv"
    fname.write_text("t,w_lon,w_lat\n" + rows)
    with pytest.raises(ValueError, match=match):
        simkit.CsvTrajectory(str(fname))


def test_load_scenario_ini(tmp_path):
    ini = tmp_path / "s.ini"
    ini.write_text("""
[scenario]
name = tiny
duration = 2.0
v_ref = 8.0
ego_v0 = 8.0
ru_initial_gap = 30

[horizon]
n_cost = 5
n_constraint = 20
t_s = 0.1

[stack]
t_gap = 1.2

[prediction]
eps0 = 0.1
eps1 = 0.2
d_safe = 5.0

[mode.E1]
priority = 1
template = lon
relax = g_follow:delta_g
ceilings = delta_g:25
""")
    config = load_scenario(str(ini))
    assert config.name == "tiny"
    assert config.horizon.n_constraint == 20
    assert config.growth == (0.1, 0.2)
    assert config.stack_kw["t_gap"] == 1.2
    assert config.stack_kw["d_safe"] == 5.0
    mode, kind, model_file = config.mode_specs[0]
    assert mode.name == "E1"
    assert kind == "lon"
    assert mode.ceilings["delta_g"] == 25.0


def test_observer_matching_truth_keeps_deltas_zero():
    # zero inflation and an exactly constant-velocity road user: the profile
    # the controller sees never tightens
    config = _small_config(growth=(0.0, 0.0))
    log = run(config, use_oracle=True)
    np.testing.assert_allclose([d.consistency.norm for d in log.decisions[1:]],
                               0.0, atol=1e-9)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_shipped_config_loads_and_builds_an_oracle_controller(name):
    config = load_scenario(os.path.join(CONFIGS, name))
    assert config.name == os.path.splitext(name)[0]
    assert config.mode_specs
    controller = simkit.build_controller(config, use_oracle=True)
    assert [rt.mode.name for rt in controller.modes] == [
        mode.name for mode, _, _ in config.mode_specs]


_VALID_INI = """
[scenario]
duration = 2.0

[vehicle]

[horizon]

[prediction]

[stack]

[surrogate]

[data]
e1 = 10

[mode.E1]
priority = 1
relax = g_follow:delta_g
ceilings = delta_g:25
"""


def _write_ini(tmp_path, text) -> str:
    ini = tmp_path / "s.ini"
    ini.write_text(text)
    return str(ini)


def _simulate_ini(tmp_path, text, oracle=True):
    from softmpc import cli
    return cli.main(["simulate", "--config", _write_ini(tmp_path, text),
                     "--out", str(tmp_path / "out")]
                    + (["--oracle"] if oracle else []))


def _with_line(section, line):
    """_VALID_INI with `line` appended to `section`."""
    head = f"[{section}]\n"
    assert head in _VALID_INI
    return _VALID_INI.replace(head, head + line + "\n")


@pytest.mark.parametrize("section, line", [
    ("scenario", "ru_cut_strat = 9.0"),
    ("scenario", "seed = 7"),
    ("vehicle", "wheelbse = 3.0"),
    ("horizon", "n_cots = 30"),
    ("prediction", "esp0 = 0.1"),
    ("stack", "t_gpa = 9.9"),
    ("surrogate", "epoch = 10"),
    # the layer widths are surrogate.DEFAULT_HIDDEN, not a setting
    ("surrogate", "hidden = 32,32"),
    # `softmpc train` always samples the one-step state motion bound
    ("surrogate", "max_state_step = 4.0"),
    ("data", "e3 = 10"),
    ("mode.E1", "tempalte = lat"),
    ("mode.E1", "dorp = g_follow"),
])
def test_misspelled_key_is_a_config_error(tmp_path, capsys, section, line):
    assert load_scenario(_write_ini(tmp_path, _VALID_INI)).data_counts == {"E1": 10}
    code = _simulate_ini(tmp_path, _with_line(section, line))
    from softmpc import cli
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert err.startswith("[config]")
    assert f"[{section}]" in err and repr(key) in err


def _write_model(filename, n_inputs, ceilings):
    """An untrained surrogate file that reads n_inputs values."""
    rng = np.random.default_rng(0)
    budget = LipschitzBudget(40.0, 4.0, np.array(list(ceilings.values())))
    save_model(SurrogateModel(
        mode_name="E1", channels=tuple(ceilings),
        regressor=DenseNet.init(rng, (n_inputs, 4, len(ceilings))),
        classifier=DenseNet.init(rng, (n_inputs, 4, 1)),
        input_shift=np.zeros(n_inputs), input_scale=np.ones(n_inputs),
        budget=budget), str(filename))


@pytest.mark.parametrize("section, line, words", [
    ("mode.E1", "template = lateral", ["[mode.E1]", "'lateral'", "lon"]),
    ("stack", "d_safe = 5.0", ["d_safe", "[prediction]"]),
    ("scenario", "evasive = maybe", ["[scenario]", "evasive"]),
    ("horizon", "n_cost = 2.5", ["[horizon]", "n_cost"]),
    # the learned route's models are read when the controller is built: a
    # missing file used to end the run with a FileNotFoundError traceback,
    # and a model of the wrong input size with a numpy broadcast error at
    # the first escalating cycle (the lon input is 104 values at M = 100)
    ("mode.E1", "model = missing.json", ["mode E1", "missing.json"]),
    ("mode.E1", "model = inputs44.json",
     ["mode E1", "inputs44.json", "44 inputs", "104"]),
    # the offline commands' own files, given as `section` for the command:
    # these used to end in a FileNotFoundError, a StopIteration, an
    # IndexError and a KeyError traceback
    ("train", "--data missing.csv", ["data file", "missing.csv",
                                     "No such file"]),
    ("train", "--data empty.csv", ["data file", "empty.csv", "header"]),
    ("train", "--data short.csv", ["data file", "short.csv", "line 2",
                                   "2 fields", "header 4"]),
    ("certify", "--model nocert.json", ["model file", "nocert.json",
                                        "'certificate'"]),
    # readable datasets the surrogates cannot learn: these used to end in a
    # ValueError traceback from the regressor and the classifier
    ("train", "--data header_only.csv", ["data file", "header_only.csv",
                                         "at least one feasible sample"]),
    ("train", "--data all_feasible.csv", ["data file", "all_feasible.csv",
                                          "both classes"]),
])
def test_bad_value_is_a_config_error(tmp_path, capsys, monkeypatch, section,
                                     line, words):
    from softmpc import cli
    monkeypatch.chdir(tmp_path)
    _write_model(tmp_path / "inputs44.json", 44, {"delta_g": 25.0})
    doc = json.loads((tmp_path / "inputs44.json").read_text())
    del doc["certificate"]
    (tmp_path / "nocert.json").write_text(json.dumps(doc))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "short.csv").write_text(
        "theta_0,theta_1,feasible,delta_delta_g\n0.5,1.5\n")
    (tmp_path / "header_only.csv").write_text(
        "theta_0,theta_1,feasible,delta_delta_g\n")
    (tmp_path / "all_feasible.csv").write_text(
        "theta_0,theta_1,feasible,delta_delta_g\n"
        "0.5,1.5,1,2.0\n0.7,1.1,1,3.0\n0.2,1.9,1,0.5\n")
    if section == "train":
        code = cli.main(["train", "--config", _write_ini(tmp_path, _VALID_INI),
                         "--mode", "E1", "--out", str(tmp_path / "out" / "m.json"),
                         *line.split()])
    elif section == "certify":
        code = cli.main(["certify", *line.split()])
    else:
        code = _simulate_ini(tmp_path, _with_line(section, line), oracle=False)
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]")
    assert all(w in err for w in words), err
    assert not (tmp_path / "out").exists()


def test_data_count_below_one_is_a_config_error(tmp_path, capsys):
    # gen-data used to pass a [data] count of 0 to the labeler, which
    # raised a ValueError traceback
    from softmpc import cli
    text = _VALID_INI.replace("e1 = 10", "e1 = 0")
    assert _simulate_ini(tmp_path, text) == cli.EXIT_CONFIG
    assert "[data] e1 = 0 must be at least 1" in capsys.readouterr().err


_COUNT_CASES = [
    pytest.param(flag, count, command, id=f"{name}-{command}")
    for command in ("gen-data", "pipeline")
    for flag, count, name in (("--count", "0", "0"), ("--count", "-3", "-3"),
                              ("--workers", "0", "workers-0"),
                              ("--workers", "-3", "workers--3"))]
_COUNT_CASES += [
    pytest.param("--pairs", "-5", "certify", id="pairs--5-certify"),
    pytest.param("--pairs", "0", "pipeline", id="pairs-0-pipeline")]


@pytest.mark.parametrize("flag, count, command", _COUNT_CASES)
def test_count_below_one_is_a_usage_error(tmp_path, capsys, command, flag,
                                          count):
    # --count 0 used to label the [data] count instead, and --count -3 to
    # end in a ValueError traceback; --workers 0 and -3 labeled serially;
    # certify --pairs -5 exited 0 without the sampled check
    from softmpc import cli
    where = (["--model", str(tmp_path / "m.json")] if command == "certify"
             else ["--config", _write_ini(tmp_path, _VALID_INI),
                   "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *where, flag, count]
                 + (["--mode", "E1"] if command == "gen-data" else []))
    assert exit_.value.code == cli.EXIT_CONFIG
    assert f"{flag}: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "certify",
                                     "pipeline"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # --seed -1 used to reach numpy's default_rng and end in its ValueError
    # traceback (exit 1); seed 0 stays a seed
    from softmpc import cli
    config = ["--config", _write_ini(tmp_path, _VALID_INI)]
    out = ["--out", str(tmp_path / "out")]
    where = {"gen-data": config + out + ["--mode", "E1"],
             "train": config + out + ["--mode", "E1",
                                      "--data", str(tmp_path / "e1.csv")],
             "certify": ["--model", str(tmp_path / "m.json")],
             "pipeline": config + out}[command]
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *where, "--seed", "-1"])
    assert exit_.value.code == cli.EXIT_CONFIG
    assert "--seed: must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.build_parser().parse_args(
        [command, *where, "--seed", "0"]).seed == 0


def test_gen_data_writes_its_sidecar_next_to_the_dataset(tmp_path, capsys):
    # the sidecar used to be named by cutting the path at its last dot, so
    # --out runs.v2/e1 wrote runs.json into the parent directory
    from softmpc import cli
    from softmpc.oracle import load_dataset
    out = tmp_path / "runs.v2" / "e1"
    code = cli.main(["gen-data", "--config", _write_ini(tmp_path, _VALID_INI),
                     "--mode", "E1", "--count", "2", "--workers", "1",
                     "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    assert sorted(p.name for p in out.parent.iterdir()) == ["e1", "e1.json"]
    assert not (tmp_path / "runs.json").exists()
    assert json.loads((out.parent / "e1.json").read_text())["count"] == 2
    assert len(load_dataset(str(out))[0]) == 2


def test_gen_data_out_that_is_its_own_sidecar_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # --out e1.json used to write the CSV, overwrite it with its own sidecar
    # and report success; the next train --data e1.json then failed
    from softmpc import cli, oracle

    def no_labeling(*args, **kwargs):
        raise AssertionError("labeled before the --out check")

    monkeypatch.setattr(oracle, "generate_dataset", no_labeling)
    out = tmp_path / "data" / "e1.json"
    code = cli.main(["gen-data", "--config", _write_ini(tmp_path, _VALID_INI),
                     "--mode", "E1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]") and "e1.json" in err and "sidecar" in err
    assert not out.parent.exists()


def test_negative_ceiling_is_a_config_error(tmp_path, capsys):
    # the controller would clip the commanded slack to -30 and tighten the
    # row it is meant to lift
    from softmpc import cli
    text = _VALID_INI.replace("ceilings = delta_g:25", "ceilings = delta_g:-30")
    assert _simulate_ini(tmp_path, text) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("[config]")
    assert all(w in err for w in ("[mode.E1]", "'delta_g'", "-30")), err


def test_missing_priority_names_its_section(tmp_path, capsys):
    from softmpc import cli
    text = _VALID_INI.replace("priority = 1\n", "")
    assert _simulate_ini(tmp_path, text) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[mode.E1]" in err and "priority" in err


def test_every_dataclass_field_is_settable_from_its_section(tmp_path):
    # every field moved off its default: ints by one, floats by a half
    def moved(cls, skip=()):
        return {f.name: f.default + (1 if isinstance(f.default, int) else 0.5)
                for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING and f.name not in skip}

    vehicle = moved(VehicleParams)
    horizon = moved(ocp.HorizonConfig)
    cut_in = moved(CutInSpec)
    stack = moved(ocp.ConstraintStack, skip=("d_safe",))
    d_safe = ocp.ConstraintStack.d_safe + 0.5

    def lines(values, prefix=""):
        return "".join(f"{prefix}{k} = {v!r}\n" for k, v in values.items())

    ini = tmp_path / "all.ini"
    ini.write_text(
        f"[scenario]\nduration = {20 * horizon['t_s']!r}\n"
        + lines(cut_in, "ru_")
        + "[vehicle]\n" + lines(vehicle)
        + "[horizon]\n" + lines(horizon)
        + f"[prediction]\nd_safe = {d_safe!r}\n"
        + "[stack]\n" + lines(stack))
    config = load_scenario(str(ini))
    assert dataclasses.asdict(config.params) == vehicle
    assert dataclasses.asdict(config.horizon) == horizon
    assert dataclasses.asdict(config.cut_in) == cut_in
    assert config.stack_kw == {**stack, "d_safe": d_safe}
    built = simkit.scenario_stack(config)
    assert (built.d_safe, built.params) == (d_safe, config.params)
