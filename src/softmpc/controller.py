"""Per-cycle control decision: consistency check, nominal solve, or
priority-ordered relaxation escalation.

Each cycle compares the fresh environment profile against the previous one.
When nothing tightened, the nominal problem runs. Otherwise the certified
drift budget gates the learned route: classifiers are queried from the
lowest priority upward, the first mode predicted feasible supplies a slack
from its regressor (inflated by the model's error margin and clamped to the
ceilings), and the relaxed problem is solved. A failed solve escalates to
the next mode rather than trusting the classifier; exhaustion reports
failure and the caller applies its fallback.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import ocp
from .environment import ConsistencyDelta, DisturbanceProfile, consistency_delta
from .oracle import ScenarioTemplate, build_theta, oracle_solve
from .path import PathGeometry
from .sqp import STATUS_OPTIMAL, solve
from .surrogate import SurrogateModel

HARD_ROW_TOL = 1e-6

BRANCH_NOMINAL = "nominal"
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
    branch: str
    u: np.ndarray | None
    slack: dict
    eps_used: float
    consistency: ConsistencyDelta | None
    solver_status: str | None
    hard_residual: float
    soft_residual: float
    predicted_xs: np.ndarray | None
    wall_time: float
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

    def _warm_start(self):
        if self._warm_us is None:
            return None
        shifted = np.vstack([self._warm_us[1:], self._warm_us[-1:]])
        return shifted

    @staticmethod
    def _solve_usable(rep) -> bool:
        """Accept optimal solves plus iteration-capped ones that are still
        feasible and stationary enough; the hard-row re-check downstream
        stays the authoritative safety gate."""
        if rep.status == STATUS_OPTIMAL:
            return True
        return (rep.status == "max-iter"
                and rep.infeasibility_measure <= 1e-8
                and rep.stationarity <= 1e-3)

    def _residuals(self, rep, profile, mode: ocp.RelaxationMode | None,
                   slack_cmd: np.ndarray | None):
        # rows without a finite bound read -inf; NaN and +inf residuals
        # propagate through the max and fail the gate
        res = ocp.eval_constraints(rep.xs, rep.us, self.stack, profile)
        if mode is None or mode.n_channels == 0:
            hard = float(np.max(res))
            return hard, hard
        lift = mode.selector() @ slack_cmd
        soft_rows = lift > 0.0
        dropped = [ocp.ROW_LABELS.index(lbl) for lbl in mode.drop]
        hard_mask = np.ones(len(ocp.ROW_LABELS), dtype=bool)
        hard_mask[soft_rows] = False
        hard_mask[dropped] = False
        hard = float(np.max(res[hard_mask])) if np.any(hard_mask) else -np.inf
        soft = float(np.max(res[soft_rows] - lift[soft_rows, None])) \
            if np.any(soft_rows) else -np.inf
        return hard, soft

    # -- main entry ---------------------------------------------------------
    def step(self, x_k: np.ndarray, profile: DisturbanceProfile) -> ControlDecision:
        t0 = time.perf_counter()
        delta = None
        if self._prev_profile is not None:
            delta = consistency_delta(self._prev_profile, profile)
        consistent = delta is None or delta.consistent
        state_step = 0.0
        if self._prev_x is not None:
            state_step = float(np.linalg.norm(x_k - self._prev_x))

        x_refs, u_refs = self._references(x_k, profile)
        warm = self._warm_start()
        if warm is None:
            warm = u_refs

        decision = None
        gates = {}
        scores = {}

        if consistent:
            nlp = ocp.build_nominal(x_k, self.path, self.params, self.weights,
                                    self.horizon, self.stack, profile,
                                    self.terminal, x_refs, u_refs, u_init=warm)
            rep = solve(nlp)
            if self._solve_usable(rep):
                hard, _ = self._residuals(rep, profile, None, None)
                if hard <= HARD_ROW_TOL:
                    decision = ControlDecision(
                        branch=BRANCH_NOMINAL, u=rep.us[0].copy(),
                        slack={}, eps_used=0.0, consistency=delta,
                        solver_status=rep.status, hard_residual=hard,
                        soft_residual=hard, predicted_xs=rep.xs,
                        wall_time=0.0)
                    self._warm_us = rep.us

        if decision is None:
            # escalate through the relaxation modes in priority order; a
            # consistent-but-unsolvable nominal problem lands here too
            for rt in self.modes:
                name = rt.mode.name
                theta = build_theta(rt.template, x_k, profile)
                if self.use_oracle:
                    feasible, slack_star, _ = oracle_solve(rt.template, rt.mode, theta)
                    gates[name] = {"budget_ok": True, "predicted_feasible": feasible}
                    if not feasible:
                        continue
                    slack_cmd = np.clip(slack_star, 0.0, rt.mode.ceiling_vector())
                    eps_used = 0.0
                else:
                    budget = rt.model.admissible_disturbance(state_step)
                    drift = 0.0 if delta is None else delta.norm
                    budget_ok = drift <= budget
                    slack_pred, infeasible, score = rt.model.infer(theta)
                    scores[name] = float(score)
                    gates[name] = {"budget_ok": bool(budget_ok),
                                   "budget": float(budget),
                                   "drift": float(drift),
                                   "predicted_feasible": not infeasible}
                    if not budget_ok or infeasible:
                        continue
                    eps_used = rt.model.eps
                    slack_cmd = np.clip(slack_pred + eps_used, 0.0,
                                        rt.mode.ceiling_vector())
                nlp = ocp.build_relaxed(x_k, self.path, self.params,
                                        self.weights, self.horizon, self.stack,
                                        profile, self.terminal, rt.mode,
                                        slack_cmd, x_refs, u_refs, u_init=warm)
                rep = solve(nlp)
                if not self._solve_usable(rep):
                    gates[name]["solve_status"] = rep.status
                    continue
                hard, soft = self._residuals(rep, profile, rt.mode, slack_cmd)
                if not hard <= HARD_ROW_TOL:     # NaN fails too
                    gates[name]["solve_status"] = "hard-row-violation"
                    continue
                decision = ControlDecision(
                    branch=name, u=rep.us[0].copy(),
                    slack=dict(zip(rt.mode.channels, slack_cmd)),
                    eps_used=eps_used, consistency=delta,
                    solver_status=rep.status, hard_residual=hard,
                    soft_residual=soft, predicted_xs=rep.xs, wall_time=0.0,
                    mode_gates=gates, classifier_scores=scores)
                self._warm_us = rep.us
                break

        if decision is None:
            decision = ControlDecision(
                branch=BRANCH_FAILURE, u=None, slack={}, eps_used=0.0,
                consistency=delta, solver_status=None,
                hard_residual=float("nan"), soft_residual=float("nan"),
                predicted_xs=None, wall_time=0.0, mode_gates=gates,
                classifier_scores=scores)
            self._warm_us = None

        decision.wall_time = time.perf_counter() - t0
        self._prev_profile = profile
        self._prev_x = np.asarray(x_k, dtype=float).copy()
        return decision
