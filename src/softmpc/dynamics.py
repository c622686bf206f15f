"""Frenet-frame vehicle model.

State x = [s, e_y, e_psi, delta, alpha, v, a]:
    s       longitudinal position along the path [m]
    e_y     lateral error, positive to the left of the path [m]
    e_psi   heading error relative to the path tangent [rad]
    delta   steering angle [rad]
    alpha   steering rate [rad/s]
    v       longitudinal speed [m/s]
    a       longitudinal acceleration [m/s^2]

Input u = [delta_sp, a_req]: steering set point and requested acceleration.
The steering actuator is a damped second-order filter (w0, w1) and the
acceleration a first-order filter with rate constant t_acc.

Continuous model:
    s'     = v cos(e_psi) / (1 - kappa(s) e_y)
    e_y'   = v sin(e_psi)
    e_psi' = v tan(delta)/l - s' kappa(s)
    delta' = alpha
    alpha' = w0^2 (delta_sp - delta) - 2 w0 w1 alpha
    v'     = a
    a'     = t_acc (a_req - a)

where the e_psi' path term uses the kinematic reference steering
tan(delta_ref) = l * kappa(s). Discretization is one RK4 step. The
derivative (f_continuous), the step (f_discrete) and the rollout over a
horizon run on Python floats, one state at a time: at 7 states, numpy's
per-call overhead would outweigh the arithmetic. A rollout binds what holds
along its horizon once, the path's curvature lookup, l, w0^2, 2 w0 w1,
t_acc, 0.5 t_s and t_s / 6, and runs the four RK4 stages inline on 7-float
tuples. On a path whose sampled curvature is all zero the lookup returns
0.0 without a bisect (PathGeometry.curvature_lookup). Each bound constant
is a sub-expression that is evaluated first anyway, so each element still
takes the same IEEE operations in the same order as the array expressions
of the step, and the results are those of the array form bit for bit. The
Jacobians are propagated analytically through the RK4 stages for a whole
horizon at once, on arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .path import PathGeometry

NX = 7
NU = 2

IDX_S, IDX_EY, IDX_EPSI, IDX_DELTA, IDX_ALPHA, IDX_V, IDX_A = range(7)
LON_IDX = (IDX_S, IDX_V, IDX_A)
LAT_IDX = (IDX_EY, IDX_EPSI, IDX_DELTA, IDX_ALPHA)
_EYE = np.eye(NX)


class FrenetSingularity(ValueError):
    """Dynamics evaluated where kappa * e_y reaches 1 (projection undefined)."""


@dataclass(frozen=True)
class VehicleParams:
    """Model constants and operating bounds.

    Bounds on symmetric quantities (e_psi, delta, alpha, a_y, j_y) are stored
    as magnitudes. accel_min/accel_max are the physical actuator limits; the
    comfort deceleration bound lives in the constraint stack.
    """

    wheelbase: float = 2.9          # l [m]
    steer_w0: float = 15.0          # steering natural frequency [rad/s]
    steer_w1: float = 1.0           # steering damping [-]
    accel_tc: float = 3.0           # acceleration filter rate [1/s]

    e_y_max: float = 1.75           # nominal lateral bound [m]
    e_psi_max: float = 0.3          # [rad]
    delta_max: float = 0.5          # steering angle and set point [rad]
    alpha_max: float = 0.6          # steering rate [rad/s]
    v_max: float = 36.0             # [m/s]
    accel_min: float = -9.0         # physical [m/s^2]
    accel_max: float = 3.0          # physical [m/s^2]
    lat_accel_max: float = 2.5      # comfort |a_y| [m/s^2]
    lat_jerk_max: float = 2.5       # comfort |j_y| [m/s^3]

    def __post_init__(self):
        """Reject values the model cannot run on; each message names the
        field, which is also its [vehicle] INI key. accel_min < 0 < accel_max
        because the standstill terminal rows need a = 0 to be feasible and
        the fallback brakes at accel_min."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "steer_w1":
                ok, need = value >= 0.0, ">= 0"
            elif f.name == "accel_min":
                ok, need = value < 0.0, "< 0"
            else:
                ok, need = value > 0.0, "> 0"
            if not (ok and math.isfinite(value)):
                raise ValueError(f"[vehicle] {f.name} must be finite and "
                                 f"{need}, got {value}")


def state(s=0.0, e_y=0.0, e_psi=0.0, delta=0.0, alpha=0.0, v=0.0, a=0.0) -> np.ndarray:
    return np.array([s, e_y, e_psi, delta, alpha, v, a], dtype=float)


def _derivative(path: PathGeometry, params: VehicleParams):
    """The continuous-time state derivative at one state, on Python floats:
    a function of the NX state floats and the NU input floats that returns
    the NX derivative floats as a tuple.

    The values that hold along a horizon are bound once: the path's
    curvature lookup, the wheelbase, w0^2, 2 w0 w1 and t_acc. Each is a
    sub-expression Python evaluates first in the model's expressions,
    (w0^2) (delta_sp - delta), ((2 w0) w1) alpha and (v tan(delta)) / l, so
    every element keeps its IEEE operations in their order.
    """
    kappa_at = path.curvature_lookup()
    l, tc = params.wheelbase, params.accel_tc
    w0_sq = params.steer_w0 ** 2
    w0_w1 = 2.0 * params.steer_w0 * params.steer_w1
    cos, sin, tan = math.cos, math.sin, math.tan

    def derivative(s, e_y, e_psi, delta, alpha, v, a, u0, u1):
        kappa = kappa_at(s)
        den = 1.0 - kappa * e_y
        if abs(den) < 1e-9:
            raise FrenetSingularity(f"kappa*e_y = {kappa * e_y:.6g} at s = {s:.6g}")
        s_dot = v * cos(e_psi) / den
        return (s_dot, v * sin(e_psi), v * tan(delta) / l - s_dot * kappa,
                alpha, w0_sq * (u0 - delta) - w0_w1 * alpha, a, tc * (u1 - a))
    return derivative


def _rk4_step(path: PathGeometry, params: VehicleParams, t_s: float):
    """One RK4 step on Python floats: a function of a state (NX floats) and
    the two input floats that returns the next state as a tuple, with
    _derivative's constants, 0.5 t_s and t_s / 6 bound once.

    The four stages run inline, one float per state element. Each element
    takes the operations, in the order, that the array expressions
    x + (0.5 t_s) k1, ..., x + (t_s / 6) (((k1 + 2 k2) + 2 k3) + k4)
    apply to it, so the step equals the array form bit for bit.
    """
    if t_s <= 0.0:
        raise ValueError("t_s must be positive")
    f = _derivative(path, params)
    h2, h6 = 0.5 * t_s, t_s / 6.0

    def step(x, u0, u1):
        s, e_y, e_psi, delta, alpha, v, a = x
        s1, y1, p1, d1, r1, v1, a1 = f(s, e_y, e_psi, delta, alpha, v, a,
                                       u0, u1)
        s2, y2, p2, d2, r2, v2, a2 = f(
            s + h2 * s1, e_y + h2 * y1, e_psi + h2 * p1, delta + h2 * d1,
            alpha + h2 * r1, v + h2 * v1, a + h2 * a1, u0, u1)
        s3, y3, p3, d3, r3, v3, a3 = f(
            s + h2 * s2, e_y + h2 * y2, e_psi + h2 * p2, delta + h2 * d2,
            alpha + h2 * r2, v + h2 * v2, a + h2 * a2, u0, u1)
        s4, y4, p4, d4, r4, v4, a4 = f(
            s + t_s * s3, e_y + t_s * y3, e_psi + t_s * p3, delta + t_s * d3,
            alpha + t_s * r3, v + t_s * v3, a + t_s * a3, u0, u1)
        return (s + h6 * (((s1 + 2.0 * s2) + 2.0 * s3) + s4),
                e_y + h6 * (((y1 + 2.0 * y2) + 2.0 * y3) + y4),
                e_psi + h6 * (((p1 + 2.0 * p2) + 2.0 * p3) + p4),
                delta + h6 * (((d1 + 2.0 * d2) + 2.0 * d3) + d4),
                alpha + h6 * (((r1 + 2.0 * r2) + 2.0 * r3) + r4),
                v + h6 * (((v1 + 2.0 * v2) + 2.0 * v3) + v4),
                a + h6 * (((a1 + 2.0 * a2) + 2.0 * a3) + a4))
    return step


def _derivatives(xs, us, path, params):
    """Derivatives (M, NX) plus their Jacobians wrt x (M, NX, NX) and u
    (NX, NU, constant) at M points."""
    s, e_y, e_psi, delta, alpha, v, a = xs.T
    u0, u1 = us.T
    kappa, dkappa = path.curvature_and_slope_at(s)
    den = 1.0 - kappa * e_y
    if np.any(np.abs(den) < 1e-9):
        i = np.argmin(np.abs(den))
        raise FrenetSingularity(f"kappa*e_y = {kappa[i] * e_y[i]:.6g} at s = {s[i]:.6g}")
    cos_ep, sin_ep = np.cos(e_psi), np.sin(e_psi)
    tan_d = np.tan(delta)
    sec2_d = 1.0 + tan_d * tan_d
    w0, w1, tc, l = params.steer_w0, params.steer_w1, params.accel_tc, params.wheelbase

    s_dot = v * cos_ep / den
    f = np.array([
        s_dot,
        v * sin_ep,
        v * tan_d / l - s_dot * kappa,
        alpha,
        w0 ** 2 * (u0 - delta) - 2.0 * w0 * w1 * alpha,
        a,
        tc * (u1 - a),
    ]).T

    # partials of s_dot
    dsdot_ds = v * cos_ep * e_y * dkappa / den ** 2
    dsdot_dey = v * cos_ep * kappa / den ** 2
    dsdot_depsi = -v * sin_ep / den
    dsdot_dv = cos_ep / den

    A = np.zeros((NX, NX, s.size))
    A[IDX_S, IDX_S] = dsdot_ds
    A[IDX_S, IDX_EY] = dsdot_dey
    A[IDX_S, IDX_EPSI] = dsdot_depsi
    A[IDX_S, IDX_V] = dsdot_dv

    A[IDX_EY, IDX_EPSI] = v * cos_ep
    A[IDX_EY, IDX_V] = sin_ep

    # e_psi' = v tan(delta)/l - s_dot * kappa(s)
    A[IDX_EPSI, IDX_S] = -(dsdot_ds * kappa + s_dot * dkappa)
    A[IDX_EPSI, IDX_EY] = -dsdot_dey * kappa
    A[IDX_EPSI, IDX_EPSI] = -dsdot_depsi * kappa
    A[IDX_EPSI, IDX_DELTA] = v * sec2_d / l
    A[IDX_EPSI, IDX_V] = tan_d / l - dsdot_dv * kappa

    A[IDX_DELTA, IDX_ALPHA] = 1.0
    A[IDX_ALPHA, IDX_DELTA] = -w0 ** 2
    A[IDX_ALPHA, IDX_ALPHA] = -2.0 * w0 * w1
    A[IDX_V, IDX_A] = 1.0
    A[IDX_A, IDX_A] = -tc

    B = np.zeros((NX, NU))
    B[IDX_ALPHA, 0] = w0 ** 2
    B[IDX_A, 1] = tc
    return f, np.ascontiguousarray(A.transpose(2, 0, 1)), B


def f_continuous(x: np.ndarray, u: np.ndarray, path: PathGeometry,
                 params: VehicleParams) -> np.ndarray:
    """The continuous-time state derivative (NX,) at one state and input."""
    return np.array(_derivative(path, params)(
        *np.asarray(x, dtype=float).tolist(),
        *np.asarray(u, dtype=float).tolist()))


def f_discrete(x: np.ndarray, u: np.ndarray, path: PathGeometry,
               params: VehicleParams, t_s: float, project_speed: bool = False) -> np.ndarray:
    """One RK4 step of the continuous model.

    project_speed clamps v at zero after the step; used when advancing the
    simulated plant so standstill never turns into reverse driving. The
    prediction model used by the solver keeps the raw (smooth) step.
    """
    x_next = np.array(_rk4_step(path, params, t_s)(
        np.asarray(x, dtype=float).tolist(),
        *np.asarray(u, dtype=float).tolist()))
    if project_speed and x_next[IDX_V] < 0.0:
        x_next[IDX_V] = 0.0
    return x_next


def rollout(x0: np.ndarray, us: np.ndarray, path: PathGeometry,
            params: VehicleParams, t_s: float) -> np.ndarray:
    """States (M+1, NX) from x0, one RK4 step per input of us, stepped on
    Python floats with the horizon's constants bound once (_rk4_step) and
    converted to an array once."""
    step = _rk4_step(path, params, t_s)
    x = np.asarray(x0, dtype=float).tolist()
    xs = [x]
    for u0, u1 in np.asarray(us, dtype=float).tolist():
        x = step(x, u0, u1)
        xs.append(x)
    return np.array(xs)


def _rk4_stages(xs, us, path, params, h):
    """(derivative, its Jacobians) of each RK4 stage at M points."""
    stages = [_derivatives(xs, us, path, params)]
    for c in (0.5 * h, 0.5 * h, h):
        stages.append(_derivatives(xs + c * stages[-1][0], us, path, params))
    return stages


def rk4_steps(xs: np.ndarray, us: np.ndarray, path: PathGeometry,
              params: VehicleParams, t_s: float) -> np.ndarray:
    """The RK4 step from each of M states xs (M, NX) with its input us
    (M, NU), on arrays; vectorized sin, cos and tan may differ from the
    scalar ones in the last bit."""
    f1, f2, f3, f4 = (f for f, _, _ in _rk4_stages(xs, us, path, params, t_s))
    return xs + (t_s / 6.0) * (((f1 + 2.0 * f2) + 2.0 * f3) + f4)


def jacobians(xs: np.ndarray, us: np.ndarray, path: PathGeometry,
              params: VehicleParams, t_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact Jacobians (A (M, NX, NX), B (M, NX, NU)) of the RK4 step at M
    points xs (M, NX), us (M, NU), chained through all stages."""
    h = t_s
    (_, J1x, J1u), (_, J2x, J2u), (_, J3x, J3u), (_, J4x, J4u) = _rk4_stages(
        xs, us, path, params, h)

    I = _EYE
    K1x = J1x
    K2x = J2x @ (I + 0.5 * h * K1x)
    K3x = J3x @ (I + 0.5 * h * K2x)
    K4x = J4x @ (I + h * K3x)
    A = I + (h / 6.0) * (K1x + 2.0 * K2x + 2.0 * K3x + K4x)

    K1u = J1u
    K2u = J2u + J2x @ (0.5 * h * K1u)
    K3u = J3u + J3x @ (0.5 * h * K2u)
    K4u = J4u + J4x @ (h * K3u)
    B = (h / 6.0) * (K1u + 2.0 * K2u + 2.0 * K3u + K4u)
    return A, B


def comfort_quantities(x: np.ndarray, params: VehicleParams):
    """Lateral acceleration and jerk implied by the kinematic steering model,
    at one state or along the leading axes of a state array.

    a_y = v^2 tan(delta) / l
    j_y = v^2 alpha (1 + tan^2(delta)) / l
    """
    v, delta, alpha = x[..., IDX_V], x[..., IDX_DELTA], x[..., IDX_ALPHA]
    tan_d = np.tan(delta)
    a_y = v * v * tan_d / params.wheelbase
    j_y = v * v * alpha * (1.0 + tan_d * tan_d) / params.wheelbase
    return a_y, j_y


def comfort_jacobians(x: np.ndarray, params: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (a_y, j_y) wrt the state, shaped like x (row linearization)."""
    v, delta, alpha = x[..., IDX_V], x[..., IDX_DELTA], x[..., IDX_ALPHA]
    tan_d = np.tan(delta)
    sec2 = 1.0 + tan_d * tan_d
    l = params.wheelbase
    g_ay = np.zeros(np.shape(x))
    g_ay[..., IDX_V] = 2.0 * v * tan_d / l
    g_ay[..., IDX_DELTA] = v * v * sec2 / l
    g_jy = np.zeros(np.shape(x))
    g_jy[..., IDX_V] = 2.0 * v * alpha * sec2 / l
    g_jy[..., IDX_DELTA] = v * v * alpha * 2.0 * tan_d * sec2 / l
    g_jy[..., IDX_ALPHA] = v * v * sec2 / l
    return g_ay, g_jy

