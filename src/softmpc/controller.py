"""Per-cycle control decision: one escalation ladder from the nominal
problem through the priority-ordered relaxation modes.

Rung 0, the nominal problem (ocp.NOMINAL_MODE, no slack), is tried when the
fresh profile tightened nothing against the previous one. The relaxation
modes follow from the lowest priority up, gated by the oracle (which gives
the minimal slack) or by the certified drift budget and the classifier (the
regressor's slack plus the model's margin, clamped to the ceilings). Each
rung that passes its gate is built and solved, and is accepted when the
solve is usable and holds the hard rows; else the next rung is tried, and
exhaustion reports failure. A rung's dropped rows and the lift its slack
puts on each stack row fix its problem and hard-row gate within a cycle, so
a rung repeating a problem that already failed (a zero oracle slack repeats
the nominal one) is not solved again: its gate reads solve_status
"duplicate" and names the rung it repeats.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import ocp
from .environment import ConsistencyDelta, DisturbanceProfile, consistency_delta
from .oracle import ScenarioTemplate, build_theta, oracle_solve
from .path import PathGeometry
from .sqp import STATUS_MAX_ITER, STATUS_OPTIMAL, solve
from .surrogate import SurrogateModel

HARD_ROW_TOL = 1e-6

BRANCH_NOMINAL = ocp.NOMINAL_MODE.name    # rung 0 names its branch
BRANCH_FAILURE = "failure"


@dataclass(frozen=True)
class ModeRuntime:
    """A relaxation mode wired to its surrogate and scenario template."""
    mode: ocp.RelaxationMode
    template: ScenarioTemplate
    model: SurrogateModel | None = None

    def __post_init__(self):
        if self.model is not None and not np.allclose(
                self.model.ceilings, self.mode.ceiling_vector()):
            raise ValueError(
                f"model ceilings disagree with mode {self.mode.name}")


@dataclass
class ControlDecision:
    """A cycle's branch and first input (None on failure), with the record
    of the ladder that chose them."""
    branch: str
    consistency: ConsistencyDelta | None
    u: np.ndarray | None = None
    slack: dict = field(default_factory=dict)
    eps_used: float = 0.0
    solver_status: str | None = None
    hard_residual: float = math.nan
    soft_residual: float = math.nan
    wall_time: float = 0.0
    nominal_gate: dict | None = None   # rung 0; None when not tried
    mode_gates: dict = field(default_factory=dict)  # per-mode gate diagnostics
    classifier_scores: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.branch == BRANCH_FAILURE

    def log_record(self) -> dict:
        return {
            "branch": self.branch,
            "u": None if self.u is None else [float(v) for v in self.u],
            "slack": {k: float(v) for k, v in self.slack.items()},
            "eps": self.eps_used,
            "consistent": None if self.consistency is None
            else self.consistency.consistent,
            "delta_norm": None if self.consistency is None
            else self.consistency.norm,
            "solver_status": self.solver_status,
            "hard_residual": self.hard_residual,
            "soft_residual": self.soft_residual,
            "nominal": self.nominal_gate,
            "gates": self.mode_gates,
            "scores": self.classifier_scores,
        }


class PriorityController:
    """Receding-horizon controller with priority-driven constraint softening.

    One instance drives one simulation; the decision for a cycle is a pure
    function of (state, profile, previous profile, previous state), with the
    previous input plan kept only as a warm start.
    """

    def __init__(self, path: PathGeometry, params, weights: ocp.CostWeights,
                 horizon: ocp.HorizonConfig, stack: ocp.ConstraintStack,
                 terminal: ocp.TerminalSets, modes: list,
                 v_ref: float = 20.0, use_oracle: bool = False):
        self.path = path
        self.params = params
        self.weights = weights
        self.horizon = horizon
        self.stack = stack
        self.terminal = terminal
        self.modes = sorted(modes, key=lambda m: m.mode.priority)
        priorities = [m.mode.priority for m in self.modes]
        if len(set(priorities)) != len(priorities):
            raise ValueError("mode priorities must be unique")
        if not use_oracle:
            for m in self.modes:
                if m.model is None:
                    raise ValueError(f"mode {m.mode.name} needs a trained model")
        self.v_ref = v_ref
        self.use_oracle = use_oracle
        self._warm_us = None
        self._prev_profile = None
        self._prev_x = None

    # -- helpers -----------------------------------------------------------
    def _references(self, x_k, profile):
        # lateral target follows the corridor at the end of the horizon, so
        # an armed evasive corridor pulls the reference into the target lane
        center = 0.5 * (profile.corridor_lo[-1] + profile.corridor_hi[-1])
        return ocp.build_reference(float(x_k[dyn.IDX_S]), self.v_ref, center,
                                   self.horizon, self.params)

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
                and rep.infeasibility_measure <= 1e-8
                and rep.stationarity <= 1e-3)

    def _residuals(self, rep, profile, mode: ocp.RelaxationMode,
                   slack_cmd: np.ndarray):
        """(hard, soft): the largest residual of the rows the mode neither
        lifts nor drops, and of the lifted ones less their lift."""
        # rows without a finite bound read -inf; NaN and +inf residuals
        # propagate through the max and fail the gate
        res = ocp.eval_constraints(rep.xs, rep.us, self.stack, profile)
        lift = mode.selector() @ slack_cmd
        soft_rows = lift > 0.0
        hard_mask = ~soft_rows
        hard_mask[[ocp.ROW_LABELS.index(lbl) for lbl in mode.drop]] = False
        hard = float(np.max(res[hard_mask], initial=-np.inf))
        soft = float(np.max(res[soft_rows] - lift[soft_rows, None],
                            initial=-np.inf))
        return hard, soft

    def _rungs(self, x_k, profile, nominal, drift, state_step, gates, scores):
        """The ladder, gated only as far as it is climbed: (mode, gate
        record, commanded slack or None where the gate rejects, eps_used)
        per rung. Rung 0 is on it when its record nominal is not None;
        each relaxation mode's record goes into gates."""
        if nominal is not None:
            yield ocp.NOMINAL_MODE, nominal, np.zeros(0), 0.0
        for rt in self.modes:
            name, ceil = rt.mode.name, rt.mode.ceiling_vector()
            theta = build_theta(rt.template, x_k, profile)
            if self.use_oracle:
                feasible, slack_star, _ = oracle_solve(rt.template, rt.mode, theta)
                gates[name] = {"budget_ok": True, "predicted_feasible": feasible}
                yield (rt.mode, gates[name],
                       np.clip(slack_star, 0.0, ceil) if feasible else None, 0.0)
                continue
            budget = rt.model.admissible_disturbance(state_step)
            slack_pred, infeasible, score = rt.model.infer(theta)
            scores[name] = float(score)
            gates[name] = {"budget_ok": bool(drift <= budget),
                           "budget": float(budget), "drift": float(drift),
                           "predicted_feasible": not infeasible}
            eps = rt.model.eps
            ok = gates[name]["budget_ok"] and not infeasible
            yield (rt.mode, gates[name],
                   np.clip(slack_pred + eps, 0.0, ceil) if ok else None, eps)

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
        args = (x_k, self.path, self.params, self.weights, self.horizon,
                self.stack, profile, self.terminal)
        nominal = {} if delta is None or delta.consistent else None
        gates, scores = {}, {}
        failed = {}        # problem key -> the rung whose solve of it failed
        for mode, gate, slack_cmd, eps_used in self._rungs(
                x_k, profile, nominal, 0.0 if delta is None else delta.norm,
                state_step, gates, scores):
            if slack_cmd is None:
                continue
            key = (mode.drop, (mode.selector() @ slack_cmd).tobytes())
            if key in failed:
                gate.update(solve_status="duplicate", duplicate_of=failed[key])
                continue
            if mode is ocp.NOMINAL_MODE:
                nlp = ocp.build_nominal(*args, x_refs, u_refs, u_init=warm)
            else:
                nlp = ocp.build_relaxed(*args, mode, slack_cmd, x_refs, u_refs,
                                        u_init=warm)
            rep = solve(nlp)
            gate["solve"] = rep.to_dict()
            # timings would make decision logs differ from run to run
            del gate["solve"]["wall_time"], gate["solve"]["phase_s"]
            gate["solve_status"] = rep.status
            if self._solve_usable(rep):
                hard, soft = self._residuals(rep, profile, mode, slack_cmd)
                if hard <= HARD_ROW_TOL:     # NaN fails
                    decision = ControlDecision(
                        branch=mode.name, consistency=delta, u=rep.us[0].copy(),
                        slack=dict(zip(mode.channels, slack_cmd)),
                        eps_used=eps_used, solver_status=rep.status,
                        hard_residual=hard, soft_residual=soft,
                        nominal_gate=nominal, mode_gates=gates,
                        classifier_scores=scores)
                    self._warm_us = rep.us
                    break
                gate["solve_status"] = "hard-row-violation"
            failed[key] = mode.name
        else:
            decision = ControlDecision(
                branch=BRANCH_FAILURE, consistency=delta, nominal_gate=nominal,
                mode_gates=gates, classifier_scores=scores)
            self._warm_us = None

        decision.wall_time = time.perf_counter() - t0
        self._prev_profile = profile
        self._prev_x = np.asarray(x_k, dtype=float).copy()
        return decision
