"""Per-cycle control decision: one escalation ladder from the nominal
problem through the priority-ordered relaxation modes.

Rung 0, the nominal problem (ocp.NOMINAL_MODE, no slack), is tried when the
fresh profile tightened nothing against the previous one. The relaxation
modes follow from the lowest priority up, gated by the oracle (which gives
the minimal slack) or by the certified drift budget and the classifier (the
regressor's slack plus the model's margin, clamped to the ceilings). Each
rung that passes its gate is built and solved, and is accepted when the
solve is usable and holds the hard rows; else the next rung is tried, and
exhaustion reports failure. The rows a rung's mode keeps and the lift its
slack puts on each stack row (the mode's kept and lift, which also split
the rows into hard and soft for the gate) fix its problem within a cycle,
so a rung repeating a problem that already failed (a zero oracle slack
repeats the nominal one) is not solved again: its gate reads solve_status
"duplicate" and names the rung it repeats.

On the oracle route, before a relaxation mode's gate (an SQP), the
pinned-row screen builds the mode's problem at its slack ceiling and
applies the SQP's pinned-row rule (sqp.pinned_row_exit) at its start. When
the start breaks a stage-0 row that no input moves even with the ceiling's
lift, the problem at any slack the gate could return (oracle_solve clips it
to [0, ceiling], and a lift only lowers a row) would end infeasible before
its first QP. The gate and the solve are then skipped, and the gate record
is {"solve_status": "pinned-row", "pinned_violation": the rule's violation
at the ceiling}. Branches and inputs are those of the ladder without the
screen. The learned route has no screen: its gate is a surrogate inference
that costs less than the screen's build, rollout and row evaluation.

The one vehicle model is the stack's params: its problems and the oracle's
roll it out, and the stack's rows bound it. The controller derives its
terminal cost matrix (ocp.terminal_weights) and one scenario template per
subsystem kind, with the path's lane width, from its own settings, and
checks each mode's surrogate when it is built.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import ocp
from .environment import ConsistencyDelta, DisturbanceProfile, consistency_delta
from .oracle import TEMPLATE_KINDS, ScenarioTemplate, build_theta, oracle_solve
from .path import PathGeometry, PathRangeError
from .sqp import (STATUS_MAX_ITER, STATUS_OPTIMAL, SolverOptions,
                  pinned_row_exit, solve)
from .surrogate import SurrogateModel

HARD_ROW_TOL = 1e-6

BRANCH_NOMINAL = ocp.NOMINAL_MODE.name    # rung 0 names its branch
BRANCH_FAILURE = "failure"


class ModelError(ValueError):
    """A surrogate that cannot gate its mode (mode, the mode's name):
    missing, unreadable, or not fitting the mode."""

    def __init__(self, mode: str, reason: str):
        super().__init__(f"mode {mode}: {reason}")
        self.mode, self.reason = mode, reason


@dataclass(frozen=True)
class ModeRuntime:
    """A relaxation mode, the subsystem kind (a key of ocp.SUBSYSTEMS) whose
    template its gate reads and, on the learned route, its surrogate."""
    mode: ocp.RelaxationMode
    kind: str
    model: SurrogateModel | None = None


@dataclass
class ControlDecision:
    """A cycle's branch and first input (None on failure), with the record
    of the ladder that chose them: each rung's gate and, where it was
    solved, the solve's to_dict, timings included."""
    branch: str
    consistency: ConsistencyDelta | None
    u: np.ndarray | None = None
    slack: dict = field(default_factory=dict)
    hard_residual: float = math.nan
    soft_residual: float = math.nan
    wall_time: float = 0.0
    nominal_gate: dict | None = None   # rung 0; None when not tried
    mode_gates: dict = field(default_factory=dict)  # per-mode gate diagnostics

    @property
    def failed(self) -> bool:
        return self.branch == BRANCH_FAILURE

    def log_record(self) -> dict:
        """The record as plain JSON types, less every timing (the cycle's
        wall_time, each solve's wall_time and phase_s): the same cycle
        logs the same record on every run."""
        return {
            "branch": self.branch,
            "u": None if self.u is None else [float(v) for v in self.u],
            "slack": {k: float(v) for k, v in self.slack.items()},
            "consistent": None if self.consistency is None
            else self.consistency.consistent,
            "delta_norm": None if self.consistency is None
            else self.consistency.norm,
            "hard_residual": self.hard_residual,
            "soft_residual": self.soft_residual,
            "nominal": _untimed(self.nominal_gate),
            "gates": {name: _untimed(g) for name, g in self.mode_gates.items()},
        }


def _untimed(gate: dict | None) -> dict | None:
    """The gate record less its solve's timings."""
    if gate is None or "solve" not in gate:
        return gate
    return {**gate, "solve": {k: v for k, v in gate["solve"].items()
                              if k not in ("wall_time", "phase_s")}}


class PriorityController:
    """Receding-horizon controller with priority-driven constraint softening.

    One instance drives one simulation; the decision for a cycle is a pure
    function of (state, profile, previous profile, previous state), with the
    previous input plan kept only as a warm start.
    """

    def __init__(self, path: PathGeometry, horizon: ocp.HorizonConfig,
                 stack: ocp.ConstraintStack, modes: list, v_ref: float,
                 use_oracle: bool = False):
        self.path = path
        self.horizon = horizon
        self.stack = stack
        self.modes = sorted(modes, key=lambda m: m.mode.priority)
        priorities = [m.mode.priority for m in self.modes]
        if len(set(priorities)) != len(priorities):
            raise ValueError("mode priorities must be unique")
        self.v_ref = v_ref
        self.use_oracle = use_oracle
        self.terminal_P = ocp.terminal_weights(path, stack.params,
                                               horizon.t_s, v_ref)
        self.templates = {kind: ScenarioTemplate(kind, horizon, stack, v_ref,
                                                 path.lane_width)
                          for kind in TEMPLATE_KINDS}
        for m in self.modes:
            self._check_model(m)
        self._warm_us = None
        self._prev_profile = None
        self._prev_x = None

    # -- helpers -----------------------------------------------------------
    def _check_model(self, rt: ModeRuntime):
        """Raise ModelError unless the mode's surrogate, which the learned
        route needs, has its channels and ceilings and reads its input."""
        model, dim = rt.model, self.templates[rt.kind].theta_dim
        if model is None:
            if not self.use_oracle:
                raise ModelError(rt.mode.name, "needs a trained model")
        elif (tuple(model.channels) != rt.mode.channels
              or not np.allclose(model.ceilings, rt.mode.ceiling_vector())):
            got = dict(zip(model.channels, model.ceilings.tolist()))
            raise ModelError(rt.mode.name, f"model ceilings {got} disagree "
                             f"with the mode's {rt.mode.ceilings}")
        elif model.input_shift.size != dim:
            raise ModelError(rt.mode.name, "the model reads "
                             f"{model.input_shift.size} inputs; the "
                             f"{rt.kind} input has {dim}")

    def _references(self, x_k, profile):
        # lateral target follows the corridor at the end of the horizon, so
        # an armed evasive corridor pulls the reference into the target lane
        center = 0.5 * (profile.corridor_lo[-1] + profile.corridor_hi[-1])
        return ocp.build_reference(float(x_k[dyn.IDX_S]), self.v_ref, center,
                                   self.horizon)

    def _warm_start(self, u_refs):
        """The last accepted plan shifted by one step, else the references."""
        if self._warm_us is None:
            return u_refs
        return np.vstack([self._warm_us[1:], self._warm_us[-1:]])

    @staticmethod
    def _solve_usable(rep) -> bool:
        """Accept optimal solves plus iteration-capped ones that are still
        feasible and stationary enough; the hard-row re-check downstream
        stays the authoritative safety gate."""
        if rep.status == STATUS_OPTIMAL:
            return True
        return (rep.status == STATUS_MAX_ITER
                and rep.infeasibility_measure <= SolverOptions.tol_feasibility
                and rep.stationarity <= 1e-3)

    def _residuals(self, rep, profile, mode: ocp.RelaxationMode,
                   slack_cmd: np.ndarray):
        """(hard, soft): the largest residual of the rows the mode neither
        lifts nor drops, and of the lifted ones less their lift."""
        # rows without a finite bound read -inf; NaN and +inf residuals
        # propagate through the max and fail the gate
        res = ocp.eval_constraints(rep.xs, rep.us, self.stack, profile)
        lift = mode.lift(slack_cmd)
        hard_rows, soft_rows = mode.split(slack_cmd)
        hard = float(np.max(res[hard_rows], initial=-np.inf))
        soft = float(np.max(res[soft_rows] - lift[soft_rows, None],
                            initial=-np.inf))
        return hard, soft

    def _rungs(self, x_k, profile, nominal, drift, state_step, gates, build):
        """The ladder, gated only as far as it is climbed: (mode, gate
        record, commanded slack or None where the gate rejects) per rung.
        Rung 0 is on it when its record nominal is not None; each
        relaxation mode's record goes into gates, with the oracle's status,
        SQP iteration count and proof on the oracle route and the
        surrogate's classifier score and margin eps on the learned route.
        The proof (oracle.OracleReport) names what settled the label: "lp",
        infeasible by the longitudinal LP certificate (0 iterations);
        "zero-slack", a zero slack by the longitudinal zero-slack
        certificate (the iterations of its slack-free solve); or "sqp", the
        SQP on the slack problem (0 iterations at its pinned-row exit).

        On the oracle route the pinned-row screen (see the module
        docstring) runs on build(mode, ceiling) before each mode's gate.
        Every rung's start is the warm plan, rolled out from x_k, so the
        cycle rolls it out once. When that rollout leaves the path or meets
        the Frenet singularity, the gates decide as without the screen (a
        passing gate's solve raises the rollout's error)."""
        if nominal is not None:
            yield ocp.NOMINAL_MODE, nominal, np.zeros(0)
        screen, xs = self.use_oracle, None
        for rt in self.modes:
            name, ceil = rt.mode.name, rt.mode.ceiling_vector()
            pinned = None
            if screen:
                nlp = build(rt.mode, ceil)
                try:
                    xs = nlp.dyn_f(nlp.u_init) if xs is None else xs
                except (PathRangeError, dyn.FrenetSingularity):
                    screen = False
                else:
                    pinned = pinned_row_exit(nlp, xs)
            if pinned is not None:
                gates[name] = {"solve_status": "pinned-row",
                               "pinned_violation": pinned}
                yield rt.mode, gates[name], None
                continue
            template = self.templates[rt.kind]
            theta = build_theta(template, x_k, profile)
            if self.use_oracle:
                feasible, slack_star, rep = oracle_solve(template, rt.mode,
                                                         theta)
                gates[name] = {"budget_ok": True, "predicted_feasible": feasible,
                               "oracle_status": rep.status,
                               "oracle_sqp_iterations": rep.sqp_iterations,
                               "oracle_proof": rep.proof}
                # oracle_solve clips the slack to [0, ceiling]
                yield rt.mode, gates[name], slack_star if feasible else None
                continue
            budget = rt.model.admissible_disturbance(state_step)
            slack_pred, infeasible, score = rt.model.infer(theta)
            eps = rt.model.eps
            gates[name] = {"budget_ok": bool(drift <= budget),
                           "budget": float(budget), "drift": float(drift),
                           "predicted_feasible": not infeasible,
                           "score": float(score), "eps": eps}
            ok = gates[name]["budget_ok"] and not infeasible
            yield (rt.mode, gates[name],
                   np.clip(slack_pred + eps, 0.0, ceil) if ok else None)

    # -- main entry ---------------------------------------------------------
    def step(self, x_k: np.ndarray, profile: DisturbanceProfile) -> ControlDecision:
        t0 = time.perf_counter()
        delta = None
        if self._prev_profile is not None:
            delta = consistency_delta(self._prev_profile, profile)
        state_step = 0.0
        if self._prev_x is not None:
            state_step = float(np.linalg.norm(x_k - self._prev_x))

        x_refs, u_refs = self._references(x_k, profile)
        warm = self._warm_start(u_refs)
        args = (x_k, self.path, self.terminal_P, self.horizon, self.stack,
                profile)

        def build(mode, slack):
            if mode is ocp.NOMINAL_MODE:
                return ocp.build_nominal(*args, x_refs, u_refs, u_init=warm)
            return ocp.build_relaxed(*args, mode, slack, x_refs, u_refs,
                                     u_init=warm)
        nominal = {} if delta is None or delta.consistent else None
        gates = {}
        failed = {}        # problem key -> the rung whose solve of it failed
        for mode, gate, slack_cmd in self._rungs(
                x_k, profile, nominal, 0.0 if delta is None else delta.norm,
                state_step, gates, build):
            if slack_cmd is None:
                continue
            key = (mode.kept.tobytes(), mode.lift(slack_cmd).tobytes())
            if key in failed:
                gate.update(solve_status="duplicate", duplicate_of=failed[key])
                continue
            rep = solve(build(mode, slack_cmd))
            gate["solve"] = rep.to_dict()
            gate["solve_status"] = rep.status
            if self._solve_usable(rep):
                hard, soft = self._residuals(rep, profile, mode, slack_cmd)
                if hard <= HARD_ROW_TOL:     # NaN fails
                    decision = ControlDecision(
                        branch=mode.name, consistency=delta, u=rep.us[0].copy(),
                        slack=dict(zip(mode.channels, slack_cmd)),
                        hard_residual=hard, soft_residual=soft,
                        nominal_gate=nominal, mode_gates=gates)
                    self._warm_us = rep.us
                    break
                gate["solve_status"] = "hard-row-violation"
            failed[key] = mode.name
        else:
            decision = ControlDecision(
                branch=BRANCH_FAILURE, consistency=delta, nominal_gate=nominal,
                mode_gates=gates)
            self._warm_us = None

        decision.wall_time = time.perf_counter() - t0
        self._prev_profile = profile
        self._prev_x = np.asarray(x_k, dtype=float).copy()
        return decision
