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

import collections
import configparser
import csv
import functools
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import dynamics as dyn
from . import ocp, plots
from .controller import (BRANCH_FAILURE, BRANCH_NOMINAL, HARD_ROW_TOL,
                         ModelError, ModeRuntime, PriorityController)
from .dynamics import VehicleParams
from .environment import RoadUserState, build_profile
from .oracle import TEMPLATE_KINDS, ScenarioTemplate
from .path import straight_path
from .surrogate import DEFAULT_EPOCHS, load_model


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
                try:
                    rows.append((float(rec["t"]), float(rec["w_lon"]),
                                 float(rec["w_lat"])))
                except (TypeError, ValueError):     # a short row reads None
                    raise ValueError(f"{filename}: trajectory CSV line "
                                     f"{reader.line_num} needs a number in "
                                     "each of t,w_lon,w_lat") from None
        if len(rows) < 2:
            raise ValueError("trajectory CSV needs at least two rows")
        arr = np.asarray(rows)
        # np.interp reads t as sorted and passes NaN and inf through
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{filename}: trajectory CSV has a non-finite value")
        if not np.all(np.diff(arr[:, 0]) > 0.0):
            raise ValueError(f"{filename}: trajectory CSV needs a strictly "
                             "increasing t column")
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
    """Closed-loop scenario. `duration` must be finite, > 0 and a multiple
    of `t_s`; the cut-in needs `cut_start >= 0` and `cut_duration > 0` but
    may end after `duration` (see `CutInSpec`); the growth rates must be
    finite and >= 0, and the stack_kw values pass ocp.ConstraintStack's
    checks; `v_ref` must be finite and > 0, `ego_v0` finite and >= 0,
    `lane_width` and `path_length` > 0, and `ego_s0` in [0, `path_length`].
    A `path_length` shorter than the run's travel is not checked: the
    travel is known only once the run has been simulated."""
    name: str = "scenario"
    duration: float = 15.0
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
    surrogate_kw: dict = field(default_factory=dict)
    data_counts: dict = field(default_factory=dict)
    mode_specs: list = field(default_factory=list)   # (RelaxationMode, kind, model file)

    def __post_init__(self):
        # the stack checks its own values ([stack] keys and [prediction]
        # d_safe)
        ocp.ConstraintStack(params=self.params, **self.stack_kw)
        # (field, its INI key, value, zero allowed, finite required); the
        # negated comparisons also reject NaN
        for name, key, value, closed, finite in (
                ("duration", "[scenario] duration", self.duration, False, True),
                ("cut_in.cut_start", "ru_cut_start", self.cut_in.cut_start,
                 True, False),
                ("cut_in.cut_duration", "ru_cut_duration",
                 self.cut_in.cut_duration, False, False),
                ("growth eps0", "[prediction] eps0", self.growth[0], True, True),
                ("growth eps1", "[prediction] eps1", self.growth[1], True, True),
                ("v_ref", "[scenario] v_ref", self.v_ref, False, True),
                ("ego_v0", "[scenario] ego_v0", self.ego_v0, True, True),
                ("lane_width", "[scenario] lane_width", self.lane_width,
                 False, False),
                ("path_length", "[scenario] path_length", self.path_length,
                 False, False)):
            if (not (value >= 0.0 if closed else value > 0.0)
                    or finite and not math.isfinite(value)):
                raise ValueError(f"{name} ({key}) must be "
                                 f"{'finite and ' if finite else ''}"
                                 f"{'>=' if closed else '>'} 0, got {value}")
        if not 0.0 <= self.ego_s0 <= self.path_length:     # and not NaN
            raise ValueError(f"ego_s0 ([scenario] ego_s0) must be in "
                             f"[0, {self.path_length}], got {self.ego_s0}")
        n = self.duration / self.horizon.t_s
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration must be a multiple of the sampling time")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.horizon.t_s))


def _parse_kv_list(text: str) -> dict:
    """`k: v, k: v` as a dict of stripped strings."""
    pairs = (item.split(":") for item in text.split(",") if item.strip())
    return {key.strip(): val.strip() for key, val in pairs}


def _defaults(cls) -> dict:
    """Field name -> default of the dataclass fields that have a plain one."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _parse(text: str, like):
    """An INI value as the type of the default `like`: a bool, an int, a
    float, or else the text itself."""
    if isinstance(like, bool):
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if isinstance(like, (int, float)):
        return type(like)(text)
    return text


def _read(cp, filename: str, section: str, schema: dict) -> dict:
    """The keys set in `section`, each parsed as the type of its default in
    `schema`; a key outside the schema raises ValueError."""
    out = {}
    for key, text in cp.items(section) if cp.has_section(section) else ():
        if key not in schema:
            raise ValueError(f"{filename}: unknown key {key!r} in [{section}]; "
                             f"known keys are {', '.join(schema) or 'none'}")
        try:
            out[key] = _parse(text, schema[key])
        except (KeyError, ValueError):
            raise ValueError(f"{filename}: [{section}] {key} = {text!r} is "
                             f"not a {type(schema[key]).__name__}") from None
    return out


# [surrogate] keys, read by `softmpc train`, with their defaults
SURROGATE_DEFAULTS = {"max_disturbance_lon": 40.0, "max_disturbance_lat": 40.0,
                      "epochs": DEFAULT_EPOCHS}
_RU_KEYS = {f"ru_{k}": v for k, v in _defaults(CutInSpec).items()}
_SCALARS = {k: v for k, v in _defaults(ScenarioConfig).items()
            if not isinstance(v, tuple)}
_EPS0, _EPS1 = ScenarioConfig.growth
# the keys of each section with a fixed key set, and their defaults
_SCHEMAS = {
    "scenario": {**_RU_KEYS, **_SCALARS},
    "vehicle": _defaults(VehicleParams),
    "horizon": _defaults(ocp.HorizonConfig),
    "prediction": {"eps0": _EPS0, "eps1": _EPS1,
                   "d_safe": ocp.ConstraintStack.d_safe},
    "stack": {k: v for k, v in _defaults(ocp.ConstraintStack).items()
              if k != "d_safe"},
    "surrogate": SURROGATE_DEFAULTS,
}
INI_SECTIONS = (*_SCHEMAS, "data")      # plus one mode.<name> per mode
_MODE_DEFAULTS = {"priority": 0, "template": "lon", "relax": "",
                  "ceilings": "", "drop": "", "model": ""}


def load_scenario(filename: str) -> ScenarioConfig:
    """Scenario configuration from an INI file (see configs/ for examples).

    Keys set dataclass fields by name, each value parsed as the type of the
    field's default; any other key raises ValueError. [scenario]: ru_<f>
    sets CutInSpec.f, the other keys the scalar fields of ScenarioConfig;
    the ru_file trajectory CSV, relative to the INI's folder, is read and
    checked here.
    [vehicle], [horizon]: the fields of VehicleParams, ocp.HorizonConfig.
    [prediction]: eps0, eps1 (the growth) and d_safe. [stack]: the other
    fields of ocp.ConstraintStack. [surrogate]: SURROGATE_DEFAULTS. [data]:
    one dataset size (at least 1) per mode name. [mode.<name>]: priority
    (required), template (lon or lat), relax and ceilings (k:v lists),
    drop, model (read when the learned-route controller is built).
    """
    cp = configparser.ConfigParser()
    if not cp.read(filename):
        raise FileNotFoundError(filename)
    unknown = [s for s in cp.sections()
               if s not in INI_SECTIONS and not s.startswith("mode.")]
    if unknown:
        raise ValueError(f"{filename}: unknown section(s) "
                         + ", ".join(f"[{s}]" for s in unknown)
                         + "; known are " + ", ".join(f"[{s}]" for s in INI_SECTIONS)
                         + " and [mode.<name>]")
    if cp.has_option("stack", "d_safe"):
        raise ValueError(f"{filename}: d_safe belongs in [prediction], "
                         "not [stack]")
    base = os.path.dirname(os.path.abspath(filename))
    read = functools.partial(_read, cp, filename)
    got = {section: read(section, schema) for section, schema in _SCHEMAS.items()}

    def path_in_base(name: str) -> str:
        return os.path.join(base, name) if name else name

    mode_specs = []
    for section in cp.sections():
        if not section.startswith("mode."):
            continue
        if not cp.has_option(section, "priority"):
            raise ValueError(f"{filename}: [{section}] needs a priority")
        ms = {**_MODE_DEFAULTS, **read(section, _MODE_DEFAULTS)}
        if ms["template"] not in TEMPLATE_KINDS:
            raise ValueError(f"{filename}: [{section}] template = "
                             f"{ms['template']!r}; known templates are "
                             + ", ".join(TEMPLATE_KINDS))
        try:
            mode = ocp.RelaxationMode(
                name=section.split(".", 1)[1], priority=ms["priority"],
                relax=_parse_kv_list(ms["relax"]),
                ceilings={k: float(v) for k, v
                          in _parse_kv_list(ms["ceilings"]).items()},
                drop=tuple(v.strip() for v in ms["drop"].split(",") if v.strip()))
        except ValueError as exc:
            raise ValueError(f"{filename}: [{section}] {exc}") from None
        mode_specs.append((mode, ms["template"], path_in_base(ms["model"])))
    data = read("data", {m.name.lower(): 0 for m, _, _ in mode_specs})
    for key, count in data.items():
        if count < 1:
            raise ValueError(f"{filename}: [data] {key} = {count} must be "
                             "at least 1")

    sc, pred = got["scenario"], got["prediction"]
    sc.setdefault("name", os.path.splitext(os.path.basename(filename))[0])
    sc["ru_file"] = path_in_base(sc.get("ru_file", "")) or None
    if sc["ru_file"]:
        # read once here so that a bad file is a config error, not a
        # traceback from the first step of the run
        try:
            CsvTrajectory(sc["ru_file"])
        except (OSError, ValueError) as exc:
            raise ValueError(f"{filename}: [scenario] ru_file: {exc}") from None
    stack_kw = got["stack"]
    if "d_safe" in pred:
        stack_kw["d_safe"] = pred["d_safe"]
    return ScenarioConfig(
        **{k: v for k, v in sc.items() if k in _SCALARS},
        cut_in=CutInSpec(**{k[3:]: v for k, v in sc.items() if k in _RU_KEYS}),
        growth=(pred.get("eps0", _EPS0), pred.get("eps1", _EPS1)),
        params=VehicleParams(**got["vehicle"]),
        horizon=ocp.HorizonConfig(**got["horizon"]),
        stack_kw=stack_kw, surrogate_kw=got["surrogate"],
        data_counts={k.upper(): v for k, v in data.items()},
        mode_specs=mode_specs)


def scenario_stack(config: ScenarioConfig) -> ocp.ConstraintStack:
    return ocp.ConstraintStack(params=config.params, **config.stack_kw)


def scenario_template(config: ScenarioConfig, kind: str) -> ScenarioTemplate:
    return ScenarioTemplate(kind=kind, horizon=config.horizon,
                            stack=scenario_stack(config), v_ref=config.v_ref,
                            lane_width=config.lane_width)


def build_controller(config: ScenarioConfig,
                     use_oracle: bool = False) -> PriorityController:
    """The scenario's controller. On the learned route each mode's model
    file is loaded and checked against its mode; a file that is missing or
    unreadable, or a model that does not fit its mode, raises ModelError
    naming the mode and the file."""
    runtimes = []
    for mode, kind, model_file in config.mode_specs:
        try:
            model = None if use_oracle else load_model(model_file)
        except (OSError, ValueError, KeyError) as exc:
            raise ModelError(mode.name, f"model file {model_file!r}: "
                             f"{exc}") from None
        runtimes.append(ModeRuntime(mode=mode, kind=kind, model=model))
    path = straight_path(config.path_length, lane_width=config.lane_width)
    try:
        return PriorityController(path, config.horizon, scenario_stack(config),
                                  runtimes, config.v_ref, use_oracle)
    except ModelError as exc:
        model_file = next(f for m, _, f in config.mode_specs
                          if m.name == exc.mode)
        raise ModelError(exc.mode, f"model file {model_file!r}: "
                         f"{exc.reason}") from None


@dataclass
class SimLog:
    """One closed-loop run, per cycle: the state the cycle started from,
    the applied input, the environment profile, the road user (None
    without one) and the controller's decision. Every column of the
    artifacts derives from these."""
    states: np.ndarray          # (n, 7)
    inputs: np.ndarray          # (n, 2)
    profiles: list              # DisturbanceProfile per cycle
    road_users: list            # RoadUserState or None per cycle
    decisions: list             # ControlDecision per cycle
    t_s: float                  # sampling time, the deadline of each cycle
    params: VehicleParams

    def __len__(self):
        return len(self.decisions)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.t_s

    @property
    def branches(self) -> list:
        return [d.branch for d in self.decisions]

    @property
    def failed(self) -> bool:
        return any(d.failed for d in self.decisions)


def run(config: ScenarioConfig, use_oracle: bool = False) -> SimLog:
    """Closed-loop simulation of one scenario."""
    controller = build_controller(config, use_oracle=use_oracle)
    path = controller.path
    if config.ru_file:
        ru_truth = CsvTrajectory(config.ru_file)
    else:
        ru_truth = config.cut_in

    n = config.n_steps
    t_s = config.horizon.t_s
    x = dyn.state(s=config.ego_s0, v=config.ego_v0)
    half = 0.5 * config.lane_width
    log = SimLog(states=np.empty((n, dyn.NX)), inputs=np.empty((n, dyn.NU)),
                 profiles=[], road_users=[], decisions=[], t_s=t_s,
                 params=config.params)

    for k in range(n):
        ru = ru_truth.state_at(k * t_s, config.ego_s0) if config.with_ru else None
        ego_lane = "right" if x[dyn.IDX_EY] < half else "left"
        profile = build_profile(path, ru, config.horizon.n_constraint, t_s,
                                config.growth, controller.stack.d_safe,
                                ego_lane=ego_lane, evasive=config.evasive)
        decision = controller.step(x, profile)
        if decision.failed:
            u = np.array([x[dyn.IDX_DELTA], config.params.accel_min])
        else:
            u = decision.u
        log.states[k] = x
        log.inputs[k] = u
        log.profiles.append(profile)
        log.road_users.append(ru)
        log.decisions.append(decision)
        x = dyn.f_discrete(x, u, path, config.params, t_s, project_speed=True)
    return log


def _gaps(log: SimLog) -> np.ndarray:
    """Distance from the ego to the yield bound at each cycle."""
    return (np.array([p.yield_bound[0] for p in log.profiles])
            - log.states[:, dyn.IDX_S])


def metrics(log: SimLog) -> dict:
    """Aggregate run statistics; gap uses the step-wise yield bound."""
    if len(log) == 0:
        raise ValueError("empty log")
    gaps = _gaps(log)
    finite = np.isfinite(gaps)
    branches = log.branches
    occupancy = collections.Counter(branches)
    hard = np.array([d.hard_residual for d in log.decisions])
    soft = np.array([d.soft_residual for d in log.decisions])
    a_y, j_y = dyn.comfort_quantities(log.states, log.params)
    times = np.array([d.wall_time for d in log.decisions])
    return {
        "min_gap": float(np.min(gaps[finite])) if np.any(finite) else math.inf,
        "max_abs_accel": float(np.max(np.abs(log.states[:, dyn.IDX_A]))),
        "max_abs_lat_accel": float(np.max(np.abs(a_y))),
        "max_abs_lat_jerk": float(np.max(np.abs(j_y))),
        "mode_occupancy": {k: v / len(log) for k, v in sorted(occupancy.items())},
        "hard_violations": int(np.sum(hard[np.isfinite(hard)] > HARD_ROW_TOL)),
        "soft_violations": int(np.sum(soft[np.isfinite(soft)] > HARD_ROW_TOL)),
        "failed": log.failed,
        "mean_controller_time": float(np.mean(times)),
        "p95_controller_time": float(np.percentile(times, 95)),
        "max_controller_time": float(np.max(times)),
        "deadline_misses": int(np.sum(times > log.t_s)),
        "transitions": sum(a != b for a, b in zip(branches, branches[1:])),
    }


def _branch_bands(log: SimLog):
    """Contiguous activation intervals per non-nominal branch."""
    bands, k = [], 0
    for branch, run in itertools.groupby(log.branches):
        n = len(list(run))
        if branch != BRANCH_NOMINAL:
            bands.append((branch, k * log.t_s, (k + n) * log.t_s))
        k += n
    return bands


_BAND_COLORS = {"E1": "#79d2e6", "E2": "#e38b8b", "E3": "#8ed68f",
                BRANCH_FAILURE: "#555555"}


def write_log_csv(log: SimLog, filename: str) -> None:
    """Trajectory table without timing columns (those are run-dependent)."""
    channels = sorted({ch for d in log.decisions for ch in d.slack})
    gaps = _gaps(log)
    a_y, j_y = dyn.comfort_quantities(log.states, log.params)
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "s", "e_y", "e_psi", "delta", "alpha", "v", "a",
             "delta_sp", "a_req", "branch", "sigma", "corridor_lo",
             "corridor_hi", "ru_lon", "ru_lat", "a_y", "j_y", "gap",
             "hard_residual", "soft_residual", "consistent", "delta_norm"]
            + [f"slack_{c}" for c in channels])
        for k, (p, ru, d) in enumerate(zip(log.profiles, log.road_users,
                                           log.decisions)):
            delta = d.consistency
            row = ([repr(float(k * log.t_s))]
                   + [repr(float(v)) for v in log.states[k]]
                   + [repr(float(v)) for v in log.inputs[k]]
                   + [d.branch]
                   + [repr(float(v)) for v in (
                       p.yield_bound[0], p.corridor_lo[0], p.corridor_hi[0],
                       ru.lon if ru else math.nan, ru.lat if ru else math.nan,
                       a_y[k], j_y[k], gaps[k], d.hard_residual,
                       d.soft_residual)]
                   + [int(delta is None or delta.consistent),
                      repr(float(0.0 if delta is None else delta.norm))]
                   + [repr(float(d.slack.get(c, 0.0))) for c in channels])
            writer.writerow(row)


def write_decision_log(log: SimLog, filename: str) -> None:
    with open(filename, "w") as fh:
        for k, decision in enumerate(log.decisions):
            rec = decision.log_record()
            rec["k"] = k
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _panel(title: str, ylabel: str, t, ys, *hlines) -> plots.Panel:
    """A panel of the series ys over t, with the horizontal lines hlines."""
    panel = plots.Panel(title, ylabel)
    panel.add_series(t, ys)
    for y in hlines:
        panel.add_hline(y)
    return panel


def emit_plots(log: SimLog, out_dir: str, name: str, config: ScenarioConfig) -> list:
    """Longitudinal and lateral triptychs with mode activation bands."""
    os.makedirs(out_dir, exist_ok=True)
    t, x, p = log.t, log.states, config.params
    gaps = _gaps(log)
    a_y, j_y = dyn.comfort_quantities(x, log.params)
    lane = _panel("lateral position", "e_y [m]", t, x[:, dyn.IDX_EY])
    lane.add_series(t, np.array([pr.corridor_lo[0] for pr in log.profiles]),
                    color="#999999", label="corridor")
    lane.add_series(t, np.array([pr.corridor_hi[0] for pr in log.profiles]),
                    color="#999999")
    figures = {
        "lon": [_panel("speed", "v [m/s]", t, x[:, dyn.IDX_V]),
                _panel("gap to yield bound", "gap [m]", t,
                       np.where(np.isfinite(gaps), gaps, np.nan), 0.0),
                _panel("acceleration", "a [m/s^2]", t, x[:, dyn.IDX_A],
                       p.accel_min)],
        "lat": [lane,
                _panel("lateral acceleration", "a_y [m/s^2]", t, a_y,
                       p.lat_accel_max, -p.lat_accel_max),
                _panel("lateral jerk", "j_y [m/s^3]", t, j_y,
                       p.lat_jerk_max, -p.lat_jerk_max)]}
    bands = _branch_bands(log)
    files = []
    for figure, panels in figures.items():
        for panel in panels:
            for bname, b0, b1 in bands:
                panel.add_band(b0, b1, _BAND_COLORS.get(bname, "#cccccc"), bname)
        files.append(os.path.join(out_dir, f"{name}_{figure}.svg"))
        plots.write_figure(files[-1], panels)
    return files
