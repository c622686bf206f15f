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
tan(delta_ref) = l * kappa(s). Discretization is one RK4 step; Jacobians
are propagated analytically through the RK4 stages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def state(s=0.0, e_y=0.0, e_psi=0.0, delta=0.0, alpha=0.0, v=0.0, a=0.0) -> np.ndarray:
    return np.array([s, e_y, e_psi, delta, alpha, v, a], dtype=float)


def f_continuous(x: np.ndarray, u: np.ndarray, path: PathGeometry,
                 params: VehicleParams) -> np.ndarray:
    """Continuous-time state derivative."""
    # unpacked as Python floats: the same IEEE arithmetic as on numpy
    # scalars, at a fraction of the overhead
    s, e_y, e_psi, delta, alpha, v, a = x.tolist()
    u0, u1 = u
    kappa = path.curvature_at(s)
    den = 1.0 - kappa * e_y
    if abs(den) < 1e-9:
        raise FrenetSingularity(f"kappa*e_y = {kappa * e_y:.6g} at s = {s:.6g}")
    s_dot = v * math.cos(e_psi) / den
    return np.array([
        s_dot,
        v * math.sin(e_psi),
        v * math.tan(delta) / params.wheelbase - s_dot * kappa,
        alpha,
        params.steer_w0 ** 2 * (u0 - delta) - 2.0 * params.steer_w0 * params.steer_w1 * alpha,
        a,
        params.accel_tc * (u1 - a),
    ])


def _f_and_jac(x, u, path, params):
    """Derivative plus its Jacobians wrt x and u at one point."""
    s, e_y, e_psi, delta, alpha, v, a = x.tolist()
    u0, u1 = u
    kappa, dkappa = path.curvature_and_slope_at(s)
    den = 1.0 - kappa * e_y
    if abs(den) < 1e-9:
        raise FrenetSingularity(f"kappa*e_y = {kappa * e_y:.6g} at s = {s:.6g}")
    cos_ep, sin_ep = math.cos(e_psi), math.sin(e_psi)
    tan_d = math.tan(delta)
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
    ])

    # partials of s_dot
    dsdot_ds = v * cos_ep * e_y * dkappa / den ** 2
    dsdot_dey = v * cos_ep * kappa / den ** 2
    dsdot_depsi = -v * sin_ep / den
    dsdot_dv = cos_ep / den

    A = np.zeros((NX, NX))
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
    return f, A, B


def f_discrete(x: np.ndarray, u: np.ndarray, path: PathGeometry,
               params: VehicleParams, t_s: float, project_speed: bool = False) -> np.ndarray:
    """One RK4 step of the continuous model.

    project_speed clamps v at zero after the step; used when advancing the
    simulated plant so standstill never turns into reverse driving. The
    prediction model used by the solver keeps the raw (smooth) step.
    """
    if t_s <= 0.0:
        raise ValueError("t_s must be positive")
    u = np.asarray(u, dtype=float)
    k1 = f_continuous(x, u, path, params)
    k2 = f_continuous(x + 0.5 * t_s * k1, u, path, params)
    k3 = f_continuous(x + 0.5 * t_s * k2, u, path, params)
    k4 = f_continuous(x + t_s * k3, u, path, params)
    x_next = x + (t_s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if project_speed and x_next[IDX_V] < 0.0:
        x_next = x_next.copy()
        x_next[IDX_V] = 0.0
    return x_next


def jacobians(x: np.ndarray, u: np.ndarray, path: PathGeometry,
              params: VehicleParams, t_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact Jacobians (A, B) of the RK4 step, chained through all stages."""
    h = t_s
    f1, J1x, J1u = _f_and_jac(x, u, path, params)
    x2 = x + 0.5 * h * f1
    f2, J2x, J2u = _f_and_jac(x2, u, path, params)
    x3 = x + 0.5 * h * f2
    f3, J3x, J3u = _f_and_jac(x3, u, path, params)
    x4 = x + h * f3
    f4, J4x, J4u = _f_and_jac(x4, u, path, params)

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


def comfort_quantities(x: np.ndarray, params: VehicleParams) -> tuple[float, float]:
    """Lateral acceleration and jerk implied by the kinematic steering model.

    a_y = v^2 tan(delta) / l
    j_y = v^2 alpha (1 + tan^2(delta)) / l
    """
    v, delta, alpha = x[IDX_V], x[IDX_DELTA], x[IDX_ALPHA]
    tan_d = math.tan(delta)
    a_y = v * v * tan_d / params.wheelbase
    j_y = v * v * alpha * (1.0 + tan_d * tan_d) / params.wheelbase
    return float(a_y), float(j_y)


def comfort_jacobians(x: np.ndarray, params: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (a_y, j_y) wrt the state; used for constraint linearization."""
    v, delta, alpha = x[IDX_V], x[IDX_DELTA], x[IDX_ALPHA]
    tan_d = math.tan(delta)
    sec2 = 1.0 + tan_d * tan_d
    l = params.wheelbase
    g_ay = np.zeros(NX)
    g_ay[IDX_V] = 2.0 * v * tan_d / l
    g_ay[IDX_DELTA] = v * v * sec2 / l
    g_jy = np.zeros(NX)
    g_jy[IDX_V] = 2.0 * v * alpha * sec2 / l
    g_jy[IDX_DELTA] = v * v * alpha * 2.0 * tan_d * sec2 / l
    g_jy[IDX_ALPHA] = v * v * sec2 / l
    return g_ay, g_jy


def params_from_config(section) -> VehicleParams:
    """Build VehicleParams from a config mapping; all fields optional."""
    base = VehicleParams()
    names = {
        "wheelbase": "wheelbase", "steer_w0": "steer_w0", "steer_w1": "steer_w1",
        "accel_tc": "accel_tc", "e_y_max": "e_y_max", "e_psi_max": "e_psi_max",
        "delta_max": "delta_max", "alpha_max": "alpha_max", "v_max": "v_max",
        "accel_min": "accel_min", "accel_max": "accel_max",
        "lat_accel_max": "lat_accel_max", "lat_jerk_max": "lat_jerk_max",
    }
    overrides = {attr: float(section[key]) for key, attr in names.items() if key in section}
    return replace(base, **overrides)
