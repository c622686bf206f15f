"""Closed-loop scenario simulation, metrics and plot artifacts.

A scenario couples a straight highway section, a cruising ego vehicle and a
single road user executing a synthetic cut-in: constant speed in the origin
lane, a quintic lateral ramp into the target lane and a speed change during
the cut. Observation is ground truth; prediction uncertainty enters through
the configured inflation growth. Each cycle builds the environment profile,
asks the controller for an input and advances the plant with the same
discretization the predictions use.
"""
from __future__ import annotations

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import ocp, plots
from .controller import (BRANCH_FAILURE, BRANCH_NOMINAL, ModeRuntime,
                         PriorityController)
from .dynamics import VehicleParams, params_from_config
from .environment import RoadUserState, build_profile
from .oracle import ScenarioTemplate
from .path import PathGeometry, straight_path
from .sqp import SolverOptions
from .surrogate import load_model


@dataclass
class CutInSpec:
    """Synthetic road-user maneuver in path coordinates.

    `state_at` is defined for every `t`: before the cut (origin lane, cruise
    speed), during the lateral ramp and after it (target lane, post-cut
    speed). A scenario may therefore end before or during the ramp; the run
    simply never samples the later phases.
    """
    initial_gap: float = 45.0        # ahead of the ego start [m]
    initial_lat: float = 3.5         # origin lane center offset [m]
    target_lat: float = 0.0          # lane occupied after the cut [m]
    speed: float = 20.0              # [m/s]
    cut_start: float = 2.0           # [s]
    cut_duration: float = 1.5        # [s]
    post_cut_speed: float = 12.0     # [m/s]
    post_cut_decel: float = 4.0      # magnitude [m/s^2]

    def state_at(self, t: float, ego_s0: float) -> RoadUserState:
        lon0 = ego_s0 + self.initial_gap
        # longitudinal: constant speed until the cut starts, then a ramp
        # down to the post-cut speed at the configured deceleration
        t_brake = max(self.speed - self.post_cut_speed, 0.0) / max(self.post_cut_decel, 1e-9)
        tb = min(max(t - self.cut_start, 0.0), t_brake)
        lon = lon0 + self.speed * min(t, self.cut_start)
        if t > self.cut_start:
            t2 = t - self.cut_start
            phase = min(t2, t_brake)
            lon += self.speed * phase - 0.5 * self.post_cut_decel * phase ** 2
            if t2 > t_brake:
                lon += self.post_cut_speed * (t2 - t_brake)
        v_lon = self.speed if t <= self.cut_start else max(
            self.speed - self.post_cut_decel * (t - self.cut_start),
            self.post_cut_speed)
        # lateral: quintic ramp (zero velocity/acceleration at both ends)
        if t <= self.cut_start:
            frac, dfrac = 0.0, 0.0
        elif t >= self.cut_start + self.cut_duration:
            frac, dfrac = 1.0, 0.0
        else:
            tau = (t - self.cut_start) / self.cut_duration
            frac = 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5
            dfrac = (30 * tau ** 2 - 60 * tau ** 3 + 30 * tau ** 4) / self.cut_duration
        lat = self.initial_lat + (self.target_lat - self.initial_lat) * frac
        v_lat = (self.target_lat - self.initial_lat) * dfrac
        return RoadUserState(lon=float(lon), lat=float(lat),
                             v_lon=float(v_lon), v_lat=float(v_lat))


class CsvTrajectory:
    """Ground-truth road user sampled from `t,w_lon,w_lat` rows."""

    def __init__(self, filename: str):
        rows = []
        with open(filename, newline="") as fh:
            reader = csv.DictReader(fh)
            need = {"t", "w_lon", "w_lat"}
            if reader.fieldnames is None or not need.issubset(reader.fieldnames):
                raise ValueError("trajectory CSV needs header t,w_lon,w_lat")
            for rec in reader:
                rows.append((float(rec["t"]), float(rec["w_lon"]), float(rec["w_lat"])))
        if len(rows) < 2:
            raise ValueError("trajectory CSV needs at least two rows")
        arr = np.asarray(rows)
        self.t = arr[:, 0]
        self.lon = arr[:, 1]
        self.lat = arr[:, 2]

    def state_at(self, t: float, ego_s0: float) -> RoadUserState:
        lon = float(np.interp(t, self.t, self.lon))
        lat = float(np.interp(t, self.t, self.lat))
        h = 1e-3
        v_lon = (np.interp(t + h, self.t, self.lon) - np.interp(t - h, self.t, self.lon)) / (2 * h)
        v_lat = (np.interp(t + h, self.t, self.lat) - np.interp(t - h, self.t, self.lat)) / (2 * h)
        return RoadUserState(lon=lon, lat=lat, v_lon=float(v_lon), v_lat=float(v_lat))


@dataclass
class ScenarioConfig:
    """Closed-loop scenario. `duration` must be a multiple of `t_s`; the
    cut-in needs `cut_start >= 0` and `cut_duration > 0` but may end after
    `duration` (see `CutInSpec`)."""
    name: str = "scenario"
    duration: float = 15.0
    seed: int = 7
    v_ref: float = 20.0
    ego_s0: float = 0.0
    ego_v0: float = 20.0
    path_length: float = 800.0
    lane_width: float = 3.5
    evasive: bool = False
    with_ru: bool = True
    cut_in: CutInSpec = field(default_factory=CutInSpec)
    ru_file: str | None = None
    growth: tuple = (0.25, 0.3)
    params: VehicleParams = field(default_factory=VehicleParams)
    horizon: ocp.HorizonConfig = field(default_factory=ocp.HorizonConfig)
    stack_kw: dict = field(default_factory=dict)
    solver_kw: dict = field(default_factory=dict)
    surrogate_kw: dict = field(default_factory=dict)
    data_counts: dict = field(default_factory=dict)
    mode_specs: list = field(default_factory=list)   # (RelaxationMode, kind, model file)

    def __post_init__(self):
        n = self.duration / self.horizon.t_s
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration must be a multiple of the sampling time")
        # the negated comparisons also reject NaN
        if not self.cut_in.cut_start >= 0.0:
            raise ValueError(f"cut_in.cut_start (ru_cut_start) must be >= 0, "
                             f"got {self.cut_in.cut_start}")
        if not self.cut_in.cut_duration > 0.0:
            raise ValueError(f"cut_in.cut_duration (ru_cut_duration) must be > 0, "
                             f"got {self.cut_in.cut_duration}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.horizon.t_s))


def _parse_kv_list(text: str) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, val = item.split(":")
        out[key.strip()] = val.strip()
    return out


def load_scenario(filename: str) -> ScenarioConfig:
    """Scenario configuration from an INI file (see configs/ for examples)."""
    cp = configparser.ConfigParser()
    read = cp.read(filename)
    if not read:
        raise FileNotFoundError(filename)
    base = os.path.dirname(os.path.abspath(filename))

    sc = cp["scenario"] if "scenario" in cp else {}
    cut = CutInSpec(
        initial_gap=float(sc.get("ru_initial_gap", 45.0)),
        initial_lat=float(sc.get("ru_initial_lat", 3.5)),
        target_lat=float(sc.get("ru_target_lat", 0.0)),
        speed=float(sc.get("ru_speed", 20.0)),
        cut_start=float(sc.get("ru_cut_start", 2.0)),
        cut_duration=float(sc.get("ru_cut_duration", 1.5)),
        post_cut_speed=float(sc.get("ru_post_cut_speed", 12.0)),
        post_cut_decel=float(sc.get("ru_post_cut_decel", 4.0)))
    params = params_from_config(cp["vehicle"]) if "vehicle" in cp else VehicleParams()
    hz = cp["horizon"] if "horizon" in cp else {}
    horizon = ocp.HorizonConfig(
        n_cost=int(hz.get("n_cost", 20)),
        n_constraint=int(hz.get("n_constraint", 100)),
        t_s=float(hz.get("t_s", 0.1)))
    pred = cp["prediction"] if "prediction" in cp else {}
    growth = (float(pred.get("eps0", 0.25)), float(pred.get("eps1", 0.3)))
    stack_kw = {}
    if "stack" in cp:
        st = cp["stack"]
        for key in ("t_gap", "d_safe", "a_req_comfort_min"):
            if key in st:
                stack_kw[key] = float(st[key])
    if "d_safe" in pred:
        stack_kw.setdefault("d_safe", float(pred["d_safe"]))
    solver_kw = {}
    if "solver" in cp:
        for key, val in cp["solver"].items():
            solver_kw[key] = float(val) if "." in val or "e" in val.lower() else int(val)
    surrogate_kw = {}
    if "surrogate" in cp:
        for key, val in cp["surrogate"].items():
            if key == "hidden":
                surrogate_kw[key] = tuple(int(v) for v in val.split(","))
            elif key in ("epochs",):
                surrogate_kw[key] = int(val)
            else:
                surrogate_kw[key] = float(val)
    data_counts = {}
    if "data" in cp:
        for key, val in cp["data"].items():
            data_counts[key.upper()] = int(val)

    mode_specs = []
    for section in cp.sections():
        if not section.startswith("mode."):
            continue
        ms = cp[section]
        name = section.split(".", 1)[1]
        relax = {k: v for k, v in _parse_kv_list(ms.get("relax", "")).items()}
        ceilings = {k: float(v) for k, v in _parse_kv_list(ms.get("ceilings", "")).items()}
        drop = tuple(v.strip() for v in ms.get("drop", "").split(",") if v.strip())
        mode = ocp.RelaxationMode(name=name, priority=int(ms["priority"]),
                                  relax=relax, ceilings=ceilings, drop=drop)
        model_file = ms.get("model", "")
        if model_file and not os.path.isabs(model_file):
            model_file = os.path.join(base, model_file)
        mode_specs.append((mode, ms.get("template", "lon"), model_file))

    ru_file = sc.get("ru_file", "")
    if ru_file and not os.path.isabs(ru_file):
        ru_file = os.path.join(base, ru_file)

    return ScenarioConfig(
        name=sc.get("name", os.path.splitext(os.path.basename(filename))[0]),
        duration=float(sc.get("duration", 15.0)),
        seed=int(sc.get("seed", 7)),
        v_ref=float(sc.get("v_ref", 20.0)),
        ego_s0=float(sc.get("ego_s0", 0.0)),
        ego_v0=float(sc.get("ego_v0", 20.0)),
        path_length=float(sc.get("path_length", 800.0)),
        lane_width=float(sc.get("lane_width", 3.5)),
        evasive=sc.get("evasive", "false").strip().lower() in ("1", "true", "yes"),
        with_ru=sc.get("with_ru", "true").strip().lower() in ("1", "true", "yes"),
        cut_in=cut, ru_file=ru_file or None, growth=growth, params=params,
        horizon=horizon, stack_kw=stack_kw, solver_kw=solver_kw,
        surrogate_kw=surrogate_kw, data_counts=data_counts,
        mode_specs=mode_specs)


def scenario_stack(config: ScenarioConfig) -> ocp.ConstraintStack:
    return ocp.ConstraintStack(params=config.params, **config.stack_kw)


def scenario_template(config: ScenarioConfig, kind: str) -> ScenarioTemplate:
    return ScenarioTemplate(kind=kind, horizon=config.horizon,
                            params=config.params, stack=scenario_stack(config),
                            terminal=ocp.TerminalSets(), v_ref=config.v_ref,
                            lane_width=config.lane_width)


def build_controller(config: ScenarioConfig, use_oracle: bool = False,
                     models: dict | None = None) -> PriorityController:
    path = straight_path(config.path_length, lane_width=config.lane_width)
    stack = scenario_stack(config)
    weights = ocp.terminal_weights(path, config.params, config.horizon.t_s,
                                   config.v_ref)
    runtimes = []
    for mode, kind, model_file in config.mode_specs:
        model = None
        if not use_oracle:
            if models and mode.name in models:
                model = models[mode.name]
            elif model_file:
                model = load_model(model_file)
            else:
                raise FileNotFoundError(f"no model for mode {mode.name}")
        runtimes.append(ModeRuntime(mode=mode,
                                    template=scenario_template(config, kind),
                                    model=model))
    opts = SolverOptions(**config.solver_kw) if config.solver_kw else SolverOptions()
    return PriorityController(path, config.params, weights, config.horizon,
                              stack, ocp.TerminalSets(), runtimes,
                              v_ref=config.v_ref, use_oracle=use_oracle,
                              solver_options=opts)


@dataclass
class SimLog:
    """Per-step trajectories and decisions of one closed-loop run."""
    t: np.ndarray
    states: np.ndarray          # (n, 7)
    inputs: np.ndarray          # (n, 2)
    branches: list
    slacks: list                # dict per step
    sigma: np.ndarray           # yield bound at the current step
    corridor_lo: np.ndarray
    corridor_hi: np.ndarray
    ru_lon: np.ndarray
    ru_lat: np.ndarray
    a_y: np.ndarray
    j_y: np.ndarray
    hard_residuals: np.ndarray
    soft_residuals: np.ndarray
    consistent: np.ndarray
    delta_norms: np.ndarray
    controller_times: np.ndarray
    failed: bool
    decisions: list = field(default_factory=list)   # raw log records

    def __len__(self):
        return self.t.size


def run(config: ScenarioConfig, use_oracle: bool = False,
        models: dict | None = None) -> SimLog:
    """Closed-loop simulation of one scenario."""
    path = straight_path(config.path_length, lane_width=config.lane_width)
    controller = build_controller(config, use_oracle=use_oracle, models=models)
    if config.ru_file:
        ru_truth = CsvTrajectory(config.ru_file)
    else:
        ru_truth = config.cut_in

    n = config.n_steps
    t_s = config.horizon.t_s
    x = dyn.state(s=config.ego_s0, v=config.ego_v0)
    half = 0.5 * config.lane_width

    t_arr = np.arange(n) * t_s
    states = np.empty((n, dyn.NX))
    inputs = np.empty((n, dyn.NU))
    sigma = np.empty(n)
    cor_lo = np.empty(n)
    cor_hi = np.empty(n)
    ru_lon = np.empty(n)
    ru_lat = np.empty(n)
    a_y = np.empty(n)
    j_y = np.empty(n)
    hard_res = np.empty(n)
    soft_res = np.empty(n)
    consistent = np.zeros(n, dtype=bool)
    delta_norms = np.zeros(n)
    ctrl_times = np.empty(n)
    branches = []
    slacks = []
    decisions = []
    failed = False

    for k in range(n):
        t = k * t_s
        ru = ru_truth.state_at(t, config.ego_s0) if config.with_ru else None
        ego_lane = "right" if x[dyn.IDX_EY] < half else "left"
        profile = build_profile(path, ru, config.horizon.n_constraint, t_s,
                                config.growth, controller.stack.d_safe,
                                ego_lane=ego_lane, evasive=config.evasive)
        decision = controller.step(x, profile)
        if decision.failed:
            failed = True
            u = np.array([x[dyn.IDX_DELTA], config.params.accel_min])
        else:
            u = decision.u

        states[k] = x
        inputs[k] = u
        sigma[k] = profile.yield_bound[0]
        cor_lo[k] = profile.corridor_lo[0]
        cor_hi[k] = profile.corridor_hi[0]
        ru_lon[k] = ru.lon if ru else math.nan
        ru_lat[k] = ru.lat if ru else math.nan
        a_y[k], j_y[k] = dyn.comfort_quantities(x, config.params)
        hard_res[k] = decision.hard_residual
        soft_res[k] = decision.soft_residual
        consistent[k] = decision.consistency is None or decision.consistency.consistent
        delta_norms[k] = 0.0 if decision.consistency is None else decision.consistency.norm
        ctrl_times[k] = decision.wall_time
        branches.append(decision.branch)
        slacks.append(decision.slack)
        decisions.append(decision.log_record())

        x = dyn.f_discrete(x, u, path, config.params, t_s, project_speed=True)

    return SimLog(t=t_arr, states=states, inputs=inputs, branches=branches,
                  slacks=slacks, sigma=sigma, corridor_lo=cor_lo,
                  corridor_hi=cor_hi, ru_lon=ru_lon, ru_lat=ru_lat,
                  a_y=a_y, j_y=j_y, hard_residuals=hard_res,
                  soft_residuals=soft_res, consistent=consistent,
                  delta_norms=delta_norms, controller_times=ctrl_times,
                  failed=failed, decisions=decisions)


def metrics(log: SimLog) -> dict:
    """Aggregate run statistics; gap uses the step-wise yield bound."""
    if len(log) == 0:
        raise ValueError("empty log")
    gaps = log.sigma - log.states[:, dyn.IDX_S]
    finite = np.isfinite(gaps)
    occupancy = {}
    for b in log.branches:
        occupancy[b] = occupancy.get(b, 0) + 1
    hard = log.hard_residuals[np.isfinite(log.hard_residuals)]
    soft = log.soft_residuals[np.isfinite(log.soft_residuals)]
    return {
        "min_gap": float(np.min(gaps[finite])) if np.any(finite) else math.inf,
        "max_abs_accel": float(np.max(np.abs(log.states[:, dyn.IDX_A]))),
        "max_abs_lat_accel": float(np.max(np.abs(log.a_y))),
        "max_abs_lat_jerk": float(np.max(np.abs(log.j_y))),
        "mode_occupancy": {k: v / len(log) for k, v in sorted(occupancy.items())},
        "hard_violations": int(np.sum(hard > 1e-6)),
        "soft_violations": int(np.sum(soft > 1e-6)),
        "failed": log.failed,
        "mean_controller_time": float(np.mean(log.controller_times)),
        "max_controller_time": float(np.max(log.controller_times)),
    }


def _branch_bands(log: SimLog):
    """Contiguous activation intervals per non-nominal branch."""
    bands = []
    start = None
    current = None
    t_s = log.t[1] - log.t[0] if len(log) > 1 else 0.1
    for k, b in enumerate(log.branches + [BRANCH_NOMINAL]):
        if b != current:
            if current not in (None, BRANCH_NOMINAL):
                bands.append((current, start, k * t_s))
            current = b
            start = k * t_s
    return bands


_BAND_COLORS = {"E1": "#79d2e6", "E2": "#e38b8b", "E3": "#8ed68f",
                BRANCH_FAILURE: "#555555"}


def write_log_csv(log: SimLog, filename: str) -> None:
    """Trajectory table without timing columns (those are run-dependent)."""
    channels = sorted({ch for s in log.slacks for ch in s})
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "s", "e_y", "e_psi", "delta", "alpha", "v", "a",
             "delta_sp", "a_req", "branch", "sigma", "corridor_lo",
             "corridor_hi", "ru_lon", "ru_lat", "a_y", "j_y", "gap",
             "hard_residual", "soft_residual", "consistent", "delta_norm"]
            + [f"slack_{c}" for c in channels])
        for k in range(len(log)):
            gap = log.sigma[k] - log.states[k, dyn.IDX_S]
            row = ([repr(float(log.t[k]))]
                   + [repr(float(v)) for v in log.states[k]]
                   + [repr(float(v)) for v in log.inputs[k]]
                   + [log.branches[k], repr(float(log.sigma[k])),
                      repr(float(log.corridor_lo[k])),
                      repr(float(log.corridor_hi[k])),
                      repr(float(log.ru_lon[k])), repr(float(log.ru_lat[k])),
                      repr(float(log.a_y[k])), repr(float(log.j_y[k])),
                      repr(float(gap)),
                      repr(float(log.hard_residuals[k])),
                      repr(float(log.soft_residuals[k])),
                      int(log.consistent[k]),
                      repr(float(log.delta_norms[k]))]
                   + [repr(float(log.slacks[k].get(c, 0.0))) for c in channels])
            writer.writerow(row)


def write_decision_log(log: SimLog, filename: str) -> None:
    with open(filename, "w") as fh:
        for k, rec in enumerate(log.decisions):
            rec = dict(rec)
            rec["k"] = k
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def emit_plots(log: SimLog, out_dir: str, name: str, config: ScenarioConfig) -> list:
    """Longitudinal and lateral triptychs with mode activation bands."""
    os.makedirs(out_dir, exist_ok=True)
    bands = _branch_bands(log)
    files = []

    lon = []
    p = plots.Panel("speed", "v [m/s]")
    p.add_series(log.t, log.states[:, dyn.IDX_V])
    lon.append(p)
    p = plots.Panel("gap to yield bound", "gap [m]")
    gaps = log.sigma - log.states[:, dyn.IDX_S]
    p.add_series(log.t, np.where(np.isfinite(gaps), gaps, np.nan))
    p.add_hline(0.0)
    lon.append(p)
    p = plots.Panel("acceleration", "a [m/s^2]")
    p.add_series(log.t, log.states[:, dyn.IDX_A])
    p.add_hline(config.params.accel_min)
    lon.append(p)
    for panel in lon:
        for bname, b0, b1 in bands:
            panel.add_band(b0, b1, _BAND_COLORS.get(bname, "#cccccc"), bname)
    f = os.path.join(out_dir, f"{name}_lon.svg")
    plots.write_figure(f, lon)
    files.append(f)

    lat = []
    p = plots.Panel("lateral position", "e_y [m]")
    p.add_series(log.t, log.states[:, dyn.IDX_EY])
    p.add_series(log.t, log.corridor_lo, color="#999999", label="corridor")
    p.add_series(log.t, log.corridor_hi, color="#999999")
    lat.append(p)
    p = plots.Panel("lateral acceleration", "a_y [m/s^2]")
    p.add_series(log.t, log.a_y)
    p.add_hline(config.params.lat_accel_max)
    p.add_hline(-config.params.lat_accel_max)
    lat.append(p)
    p = plots.Panel("lateral jerk", "j_y [m/s^3]")
    p.add_series(log.t, log.j_y)
    p.add_hline(config.params.lat_jerk_max)
    p.add_hline(-config.params.lat_jerk_max)
    lat.append(p)
    for panel in lat:
        for bname, b0, b1 in bands:
            panel.add_band(b0, b1, _BAND_COLORS.get(bname, "#cccccc"), bname)
    f = os.path.join(out_dir, f"{name}_lat.svg")
    plots.write_figure(f, lat)
    files.append(f)
    return files
