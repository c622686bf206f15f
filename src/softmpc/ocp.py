"""Optimal-control problem assembly for the soft-constrained vehicle MPC.

Builds the relaxed problem on top of the generic horizon NLP: the mode's
selected rows lifted by a fixed slack vector and its dropped rows removed.
The nominal problem is the relaxed problem of NOMINAL_MODE, which lifts and
drops nothing.

The constraint stack stacks bound/comfort rows on states and inputs with the
environment-coupled rows (yield bound, lane corridor, time headway), each row
carrying a stable label used by relaxation-mode selectors. One vectorized
evaluator, ConstraintStack.evaluate over (xs, us, profile), gives the rows
of a whole horizon; the solver's stage rows and the controller's hard-row
gate (eval_constraints) both run it. Each problem fixes its row layout when
it is built, from the profile, the mode's dropped rows and the tube. The
same stage row provider and terminal rows also serve the oracle: with the
mode's channels as a global decision block and the rows restricted to a
subsystem's rows (SUBSYSTEMS), they give the rows of its decoupled slack
problems, which it cuts down to the subsystem's states (see oracle.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import dynamics as dyn
from .dynamics import NU, NX, VehicleParams
from .environment import DisturbanceProfile
from .path import PathGeometry
from .sqp import NlpDescription

# ---------------------------------------------------------------------------
# horizon and weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HorizonConfig:
    """Cost horizon, constraint horizon and sampling time."""
    n_cost: int = 20
    n_constraint: int = 100
    t_s: float = 0.1

    def __post_init__(self):
        """Each message names the field's [horizon] INI key."""
        if not (self.n_constraint >= self.n_cost >= 1):
            raise ValueError("[horizon] n_cost and n_constraint need "
                             "n_constraint >= n_cost >= 1, got "
                             f"{self.n_cost} and {self.n_constraint}")
        if not (self.t_s > 0.0 and math.isfinite(self.t_s)):
            raise ValueError(f"[horizon] t_s must be finite and > 0, "
                             f"got {self.t_s}")


# stage weights on the state and on the input
COST_Q = (0.0, 5.0, 10.0, 1.0, 1.0, 2.0, 1.0)
COST_R = (10.0, 5.0)
# keeps the zero-weighted position mode detectable in the terminal Riccati
DETECT_REG = 1e-6


def terminal_weights(path: PathGeometry, params: VehicleParams, t_s: float,
                     v_ref: float) -> np.ndarray:
    """Terminal cost matrix P (NX, NX) from two decoupled discrete Riccati
    solutions; the stage weights are diag(COST_Q) and diag(COST_R).

    The model linearized at the straight-path reference decouples into a
    longitudinal chain (s, v, a) and a lateral chain (e_y, e_psi, delta,
    alpha). Each block gets its own discrete-time Riccati solution; a small
    diagonal regularization keeps the (possibly zero-weighted) position mode
    detectable, which preserves the Lyapunov decrease for the original Q
    under the block's LQR gain.
    """
    x_ref = dyn.state(s=max(path.s_min + 1.0, 1.0), v=v_ref)
    A, B = (J[0] for J in dyn.jacobians(x_ref[None], np.zeros((1, NU)),
                                         path, params, t_s))

    P = np.zeros((NX, NX))
    for idx, u_col, _ in SUBSYSTEMS.values():
        idx = list(idx)
        Q_b = np.diag(np.take(COST_Q, idx)) + DETECT_REG * np.eye(len(idx))
        P[np.ix_(idx, idx)] = scipy.linalg.solve_discrete_are(
            A[np.ix_(idx, idx)], B[np.ix_(idx, [u_col])], Q_b,
            np.array([[COST_R[u_col]]]))
    return P


# stabilizing tube: widths of the box on x - ref on the steps beyond the cost
# horizon, per state; a non-finite width has no row
TUBE = np.array([np.inf, 2.5, 0.3, 0.5, 0.6, 36.0, 12.0])
TUBE.flags.writeable = False
# safe set: standstill behind the yield bound at the final step
STOP_MARGIN = 2.0       # distance kept behind the final yield bound
# narrow band instead of exact equalities: keeps the terminal rows strictly
# complementary, which the interior-point solver needs
STANDSTILL_TOL = 1e-4


# ---------------------------------------------------------------------------
# constraint stack
# ---------------------------------------------------------------------------

H_ROW_LABELS = (
    "e_psi_ub", "e_psi_lb", "delta_ub", "delta_lb", "delta_sp_ub",
    "delta_sp_lb", "v_ub", "v_lb", "a_ub", "a_lb", "a_req_ub", "a_req_lb",
    "a_req_comfort_lb", "alpha_ub", "alpha_lb",
    "a_y_ub", "a_y_lb", "j_y_ub", "j_y_lb",
)
G_ROW_LABELS = ("g_lon_safe", "g_lat_ub", "g_lat_lb", "g_follow")
ROW_LABELS = H_ROW_LABELS + G_ROW_LABELS
# terminal rows carry the label of the stage row they tighten: standstill
# on v and a, the corridor, and the stop-behind margin on the yield bound
TERMINAL_ROW_LABELS = ("v_ub", "v_lb", "a_ub", "a_lb",
                       "g_lat_ub", "g_lat_lb", "g_lon_safe")
# the decoupled subsystems of the model on a straight path, by kind: (state
# block, input column, the stack rows that read only them). The terminal
# weights solve one Riccati equation per subsystem; an oracle slack problem
# runs on one and keeps exactly its rows of the stack
SUBSYSTEMS = {
    "lon": (dyn.LON_IDX, 1,
            ("v_ub", "v_lb", "a_ub", "a_lb", "a_req_ub", "a_req_lb",
             "a_req_comfort_lb", "g_lon_safe", "g_follow")),
    "lat": (dyn.LAT_IDX, 0,
            ("e_psi_ub", "e_psi_lb", "delta_ub", "delta_lb", "delta_sp_ub",
             "delta_sp_lb", "alpha_ub", "alpha_lb", "a_y_ub", "a_y_lb",
             "j_y_ub", "j_y_lb", "g_lat_ub", "g_lat_lb")),
}
_ROW = {label: k for k, label in enumerate(ROW_LABELS)}
NZ = NX + NU
# rows that read one entry of z = (x, u), with its sign
_LINEAR = [(_ROW[name + side], col, sign)
           for name, col in (("e_psi", dyn.IDX_EPSI), ("delta", dyn.IDX_DELTA),
                             ("delta_sp", NX), ("v", dyn.IDX_V),
                             ("a", dyn.IDX_A), ("a_req", NX + 1),
                             ("alpha", dyn.IDX_ALPHA), ("g_lat", dyn.IDX_EY))
           for side, sign in (("_ub", 1.0), ("_lb", -1.0))]
_LINEAR += [(_ROW["a_req_comfort_lb"], NX + 1, -1.0),
            (_ROW["g_lon_safe"], dyn.IDX_S, 1.0)]
_LIN_ROW, _LIN_COL, _LIN_SIGN = (np.array(v) for v in zip(*_LINEAR))
# Jacobian (n_rows, NZ) of every row wrt z where it does not depend on the
# point or the stack: one +-1.0 per _LINEAR row and g_follow's s. The stack
# adds g_follow's t_gap; the terminal rows read their state and sign here
_LINEAR_JACOBIAN = np.zeros((len(ROW_LABELS), NZ))
_LINEAR_JACOBIAN[_LIN_ROW, _LIN_COL] = _LIN_SIGN
_LINEAR_JACOBIAN[_ROW["g_follow"], dyn.IDX_S] = 1.0
_LINEAR_JACOBIAN.flags.writeable = False
# a_y_ub, a_y_lb, j_y_ub, j_y_lb: the rows whose Jacobian depends on the point
_COMFORT_ROWS = slice(_ROW["a_y_ub"], _ROW["j_y_lb"] + 1)
_TERMINAL_ROWS = np.array([_ROW[label] for label in TERMINAL_ROW_LABELS])


@dataclass(frozen=True)
class ConstraintStack:
    """Row definitions shared by all problem flavors for one scenario.

    Row k at step n reads g_k(x_n, u_n) <= b_k(n). The bounds b come from
    the vehicle parameters and the disturbance profile; a row whose bound
    is not finite (an empty collision window, an open corridor side) is
    not a row of the problem. params is the one vehicle model of every
    problem built on the stack: the problem builders, the controller and
    the oracle's slack problems roll out and linearize it.
    """
    params: VehicleParams
    t_gap: float = 1.5
    d_safe: float = 6.0
    a_req_comfort_min: float = -3.0

    def __post_init__(self):
        """Reject values the rows cannot run on; each message names the INI
        key ([prediction] d_safe, [stack] the others)."""
        for key, value, ok, need in (
                ("[stack] t_gap", self.t_gap, self.t_gap >= 0.0, ">= 0"),
                ("[stack] a_req_comfort_min", self.a_req_comfort_min,
                 self.a_req_comfort_min < 0.0, "< 0"),
                ("[prediction] d_safe", self.d_safe, self.d_safe > 0.0, "> 0")):
            if not (ok and math.isfinite(value)):
                raise ValueError(f"{key} must be finite and {need}, got {value}")

    def bounds(self, profile: DisturbanceProfile) -> np.ndarray:
        """Bounds b (len(profile), n_rows) of every row at every step."""
        p = self.params
        # in ROW_LABELS order; the last four rows take the profile's values
        b = np.tile([p.e_psi_max, p.e_psi_max, p.delta_max, p.delta_max,
                     p.delta_max, p.delta_max, p.v_max, 0.0,
                     p.accel_max, -p.accel_min, p.accel_max, -p.accel_min,
                     -self.a_req_comfort_min, p.alpha_max, p.alpha_max,
                     p.lat_accel_max, p.lat_accel_max,
                     p.lat_jerk_max, p.lat_jerk_max,
                     np.nan, np.nan, np.nan, np.nan], (len(profile), 1))
        b[:, _ROW["g_lon_safe"]] = b[:, _ROW["g_follow"]] = profile.yield_bound
        b[:, _ROW["g_lat_ub"]] = profile.corridor_hi
        b[:, _ROW["g_lat_lb"]] = -profile.corridor_lo
        return b

    @cached_property
    def _linear_jacobian(self) -> np.ndarray:
        """Jacobian (n_rows, NZ) of every row wrt z, comfort rows left at zero."""
        C = _LINEAR_JACOBIAN.copy()
        C[_ROW["g_follow"], dyn.IDX_V] = self.t_gap
        return C

    def evaluate(self, xs: np.ndarray, us: np.ndarray,
                 profile: DisturbanceProfile):
        """Residuals g - b (M, n_rows) of every row along M steps
        (xs (M, NX), us (M, NU)), <= 0 meaning satisfied, and their
        Jacobians C (M, n_rows, NZ) wrt z = (x, u).

        Rows whose bound is not finite evaluate to -inf.
        """
        M = xs.shape[0]
        z = np.concatenate([xs, us], axis=1)
        g = np.empty((M, len(ROW_LABELS)))
        g[:, _LIN_ROW] = z[:, _LIN_COL] * _LIN_SIGN
        a_y, j_y = dyn.comfort_quantities(xs, self.params)
        g[:, _COMFORT_ROWS] = np.stack([a_y, -a_y, j_y, -j_y], axis=1)
        g[:, _ROW["g_follow"]] = xs[:, dyn.IDX_S] + self.t_gap * xs[:, dyn.IDX_V]
        b = self.bounds(profile)[:M]
        vals = np.where(np.isfinite(b), g - b, -np.inf)

        C = np.repeat(self._linear_jacobian[None], M, axis=0)
        g_ay, g_jy = dyn.comfort_jacobians(xs, self.params)
        C[:, _COMFORT_ROWS, :NX] = np.stack([g_ay, -g_ay, g_jy, -g_jy], axis=1)
        return vals, C


@dataclass(frozen=True)
class RelaxationMode:
    """Selector of relaxable rows with priority rank and slack ceilings.

    relax maps row labels to slack channel names; drop lists rows removed
    entirely. Channel order fixes the slack vector layout. The mode owns
    each stack row's role, which the problem builders and the controller's
    hard-row gate read: kept or dropped, lifted by how much, hard or soft.
    """
    name: str
    priority: int
    relax: dict            # row label -> channel name
    ceilings: dict         # channel name -> max slack
    drop: tuple = ()

    def __post_init__(self):
        for label in (*self.relax, *self.drop):
            if label not in ROW_LABELS:
                raise ValueError(f"unknown row label {label!r}")
        for ch in self.relax.values():
            if ch not in self.ceilings:
                raise ValueError(f"channel {ch!r} missing a ceiling")
        for ch, ceil in self.ceilings.items():
            if ch not in self.relax.values():
                raise ValueError(f"mode {self.name}: ceiling for channel "
                                 f"{ch!r}, which no relaxed row uses")
            if not 0.0 < ceil < math.inf:       # also rejects NaN
                raise ValueError(f"mode {self.name}: ceiling for channel "
                                 f"{ch!r} must be finite and positive, "
                                 f"got {ceil}")

    @property
    def channels(self) -> tuple:
        return tuple(dict.fromkeys(self.relax.values()))

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def ceiling_vector(self) -> np.ndarray:
        return np.array([self.ceilings[ch] for ch in self.channels], dtype=float)

    @cached_property
    def selector(self) -> np.ndarray:
        """E (n_rows, n_channels): one slack channel per relaxed row."""
        E = np.zeros((len(ROW_LABELS), self.n_channels))
        for label, ch in self.relax.items():
            E[_ROW[label], self.channels.index(ch)] = 1.0
        return E

    @cached_property
    def kept(self) -> np.ndarray:
        """Mask (n_rows,) of the stack rows the mode does not drop."""
        return np.array([label not in self.drop for label in ROW_LABELS])

    def lift(self, slack: np.ndarray) -> np.ndarray:
        """What the slack adds to each stack row's bound, (n_rows,)."""
        return self.selector @ slack

    def split(self, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hard, soft) row masks under a slack: soft rows are lifted by a
        positive amount, hard rows are the other kept rows."""
        soft = self.lift(slack) > 0.0
        return self.kept & ~soft, soft


NOMINAL_MODE = RelaxationMode(name="nominal", priority=0, relax={}, ceilings={})


# ---------------------------------------------------------------------------
# reference generation
# ---------------------------------------------------------------------------


# deceleration of the reference beyond the cost horizon [m/s^2]
BRAKE_DECEL = 2.5


def build_reference(x0_s: float, v_ref: float, e_y_ref: float,
                    horizon: HorizonConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-step reference over the horizon: cruise, then a comfortable stop.

    Within the cost horizon the reference cruises at v_ref; beyond it the
    speed ramps down at BRAKE_DECEL so the standstill terminal set stays
    inside the stabilizing tube. Returns (x_refs (M+1, NX), u_refs (M, NU)).
    """
    M, N, t_s = horizon.n_constraint, horizon.n_cost, horizon.t_s
    v = np.empty(M + 1)
    v[:N + 1] = v_ref
    for n in range(N, M):
        v[n + 1] = max(v[n] - BRAKE_DECEL * t_s, 0.0)
    s = x0_s + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * t_s)])
    a = np.concatenate([np.diff(v) / t_s, [0.0]])
    x_refs = np.zeros((M + 1, NX))
    x_refs[:, dyn.IDX_S] = s
    x_refs[:, dyn.IDX_EY] = e_y_ref
    x_refs[:, dyn.IDX_V] = v
    x_refs[:, dyn.IDX_A] = a
    u_refs = np.zeros((M, NU))
    u_refs[:, 1] = a[:M]
    return x_refs, u_refs


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------

_TAIL_INPUT_REG = 1e-6


def _stage_cost_arrays(P: np.ndarray, horizon: HorizonConfig,
                       x_refs: np.ndarray, u_refs: np.ndarray):
    M, N = horizon.n_constraint, horizon.n_cost
    W = np.zeros((M, NZ, NZ))
    W[:N, :NX, :NX] = np.diag(COST_Q)
    W[:N, NX:, NX:] = np.diag(COST_R)
    W[N:, NX:, NX:] = _TAIL_INPUT_REG * np.eye(NU)
    ref = np.concatenate([x_refs[:M], u_refs], axis=1)
    # the mid-horizon terminal cost lands on the state block of stage N
    if N < M:
        W[N, :NX, :NX] += P
        return W, ref, np.zeros((NX, NX))
    return W, ref, P.copy()


def _make_stage_rows(stack: ConstraintStack, profile: DisturbanceProfile,
                     mode: RelaxationMode, slack: np.ndarray | None,
                     horizon: HorizonConfig, x_refs: np.ndarray,
                     tube: np.ndarray, labels: tuple = ROW_LABELS):
    """Whole-horizon stage row provider combining the stack, tube rows and
    relaxation, with its fixed row layout.

    Returns (rows, mask). rows(xs, us) gives (vals (M, m), C (M, m, NZ), G)
    over the stack rows followed by the tube rows. The mode's rows are
    lifted by the fixed slack vector (G None), or, with slack None, its
    channels become the global decision block (G (M, m, q) columns).
    mask (M, m) holds the rows of each stage: stack rows named in labels,
    not dropped by the mode and with a finite bound, plus, beyond the cost
    horizon, the tube rows of the finite tube widths.
    """
    M, N = horizon.n_constraint, horizon.n_cost
    allowed = mode.kept & np.isin(ROW_LABELS, labels)
    tube_idx = np.flatnonzero(np.isfinite(tube))
    tube_w = tube[tube_idx]
    k = tube_idx.size
    tube_mask = np.zeros((M, 2 * k), dtype=bool)
    tube_mask[N:] = True
    mask = np.concatenate(
        [np.isfinite(stack.bounds(profile)[:M]) & allowed, tube_mask], axis=1)
    tube_C = np.zeros((M, 2 * k, NZ))
    tube_C[:, np.arange(k), tube_idx] = 1.0
    tube_C[:, np.arange(k, 2 * k), tube_idx] = -1.0
    ref = x_refs[:M, tube_idx]

    E = np.concatenate([mode.selector, np.zeros((2 * k, mode.n_channels))])
    G = None if slack is not None else np.broadcast_to(-E, (M,) + E.shape)
    lift = (None if slack is None
            else np.concatenate([mode.lift(slack), np.zeros(2 * k)]))

    def rows(xs, us):
        vals, C = stack.evaluate(xs, us, profile)
        # stabilizing tube on the error state
        err = xs[:, tube_idx] - ref
        vals = np.concatenate([vals, err - tube_w, -err - tube_w], axis=1)
        if lift is not None:
            vals = vals - lift
        return vals, np.concatenate([C, tube_C], axis=1), G

    return rows, mask


def _terminal_rows(profile: DisturbanceProfile, mode: RelaxationMode,
                   labels: tuple = ROW_LABELS):
    """Terminal rows C x_M - offset <= 0 as (C (k, NX), offset (k,)); each
    row of C is its stage row's state columns in _LINEAR_JACOBIAN, one
    state with its sign.

    A row is kept when its label is in labels, the mode does not drop it and
    its offset is finite. A mode that drops the longitudinal stack rows
    abandons the yielding strategy, and with it the stop-behind row.
    """
    M = len(profile) - 1
    tol = STANDSTILL_TOL
    offset = np.array([tol, tol, tol, tol,
                       profile.corridor_hi[M], -profile.corridor_lo[M],
                       profile.yield_bound[M] - STOP_MARGIN])
    keep = [k for k, lbl in enumerate(TERMINAL_ROW_LABELS)
            if lbl in labels and mode.kept[_ROW[lbl]]
            and math.isfinite(offset[k])]
    return _LINEAR_JACOBIAN[_TERMINAL_ROWS[keep], :NX], offset[keep]


def build_nominal(x_k, path, terminal_P, horizon, stack: ConstraintStack,
                  profile: DisturbanceProfile, x_refs, u_refs,
                  u_init) -> NlpDescription:
    """The relaxed problem of NOMINAL_MODE: every row of the stack hard."""
    return build_relaxed(x_k, path, terminal_P, horizon, stack, profile,
                         NOMINAL_MODE, np.zeros(0), x_refs, u_refs,
                         u_init=u_init)


def build_relaxed(x_k, path, terminal_P, horizon, stack, profile,
                  mode: RelaxationMode, slack: np.ndarray,
                  x_refs, u_refs, u_init) -> NlpDescription:
    """Problem with the mode's rows lifted by a fixed slack vector, on the
    vehicle model of the stack's params, started at the plan u_init (M, NU);
    terminal_P is the terminal cost matrix (terminal_weights)."""
    if len(profile) != horizon.n_constraint + 1:
        raise ValueError(f"profile covers {len(profile)} steps, expected "
                         f"{horizon.n_constraint + 1}")
    slack = np.asarray(slack, dtype=float)
    if slack.shape != (mode.n_channels,):
        raise ValueError(f"slack must have shape ({mode.n_channels},)")
    ceil = mode.ceiling_vector()
    if np.any(slack < -1e-12) or np.any(slack > ceil + 1e-9):
        raise ValueError("slack outside [0, ceiling] for mode " + mode.name)
    rows, mask = _make_stage_rows(stack, profile, mode, slack,
                                  horizon, x_refs, TUBE)
    terminal_C, terminal_offset = _terminal_rows(profile, mode)
    W, ref, P_M = _stage_cost_arrays(terminal_P, horizon, x_refs, u_refs)
    x_k = np.array(x_k, dtype=float)
    params, t_s = stack.params, horizon.t_s
    return NlpDescription(
        nx=NX, nu=NU, horizon=horizon.n_constraint,
        dyn_f=lambda us: dyn.rollout(x_k, us, path, params, t_s),
        dyn_jac=lambda xs, us: dyn.jacobians(xs, us, path, params, t_s),
        cost_W=W, cost_ref=ref, cost_P=P_M, cost_ref_M=x_refs[horizon.n_constraint],
        stage_rows=rows, stage_row_mask=mask, terminal_C=terminal_C,
        terminal_offset=terminal_offset, u_init=u_init)


def eval_constraints(xs: np.ndarray, us: np.ndarray, stack: ConstraintStack,
                     profile: DisturbanceProfile) -> np.ndarray:
    """Residual matrix (n_rows, M) of the full stack along a trajectory;
    rows whose bound is not finite read -inf."""
    return stack.evaluate(xs[:us.shape[0]], us, profile)[0].T
