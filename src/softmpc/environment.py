"""Road-user prediction and environment-derived constraint offsets.

Produces, per control cycle, the horizon profile the controller consumes:
yield bound (smallest blocked path coordinate per step), lane corridor
bounds, and step-to-step consistency deltas of those offsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .path import PathGeometry

# sentinel for steps with an empty collision window: the longitudinal
# constraints are vacuously satisfied there
NO_BOUND = float("inf")


def lane_bounds(lane: str, lane_width: float) -> tuple[float, float]:
    """Lateral (lower, upper) bounds of the right or the left lane; the
    path runs along the middle of the right lane."""
    half = 0.5 * lane_width
    if lane == "right":
        return -half, half
    if lane == "left":
        return half, 3.0 * half
    raise ValueError("lane must be 'right' or 'left'")


@dataclass(frozen=True)
class RoadUserState:
    """Road-user kinematics in path coordinates (positions plus velocities).

    Velocities are carried for the constant-velocity predictor even though
    only positions enter the collision geometry.
    """
    lon: float
    lat: float
    v_lon: float = 0.0
    v_lat: float = 0.0


@dataclass(frozen=True)
class ReachableSet:
    """Axis-aligned interval boxes per prediction step, path-aligned."""
    lon_lo: np.ndarray
    lon_hi: np.ndarray
    lat_lo: np.ndarray
    lat_hi: np.ndarray

    def __post_init__(self):
        for name in ("lon_lo", "lon_hi", "lat_lo", "lat_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.lon_hi < self.lon_lo) or np.any(self.lat_hi < self.lat_lo):
            raise ValueError("reachable boxes must be nonempty")

    def __len__(self) -> int:
        return int(self.lon_lo.size)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Per-step constraint offsets over the horizon (steps 0..M inclusive).

    yield_bound carries NO_BOUND on steps with an empty collision window.
    corridor bounds default to the nominal lane. The final entry serves the
    terminal standstill constraint.
    """
    yield_bound: np.ndarray      # sigma per step [m]
    corridor_lo: np.ndarray      # lateral lower bound per step [m]
    corridor_hi: np.ndarray      # lateral upper bound per step [m]
    window: tuple[int, int] | None   # (first, last) step with finite yield bound
    blocked: np.ndarray | None = None  # per-step flag: both lanes unusable

    def __post_init__(self):
        for name in ("yield_bound", "corridor_lo", "corridor_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.yield_bound.size
        if self.corridor_lo.size != n or self.corridor_hi.size != n:
            raise ValueError("profile arrays must share length")

    def __len__(self) -> int:
        return int(self.yield_bound.size)

    def any_blocked(self) -> bool:
        return self.blocked is not None and bool(np.any(self.blocked))


@dataclass(frozen=True)
class ConsistencyDelta:
    """Step-wise drift of the constraint offsets between consecutive cycles.

    Positive entries mean the environment became more restrictive than
    predicted. rows: yield bound, corridor upper, corridor lower (as the
    right-hand sides of the corresponding constraint rows).
    """
    per_row: np.ndarray          # (3, overlap) deltas, +inf-free
    norm: float                  # Euclidean norm of the stacked finite deltas
    max_delta: float
    consistent: bool             # no row became more restrictive


def predict_reachable(ru: RoadUserState, horizon: int, t_s: float,
                      growth: tuple[float, float]) -> ReachableSet:
    """Constant-velocity center propagation with affine-in-time inflation.

    Half-widths grow as eps0 + eps1 * n * t_s per axis; growth rates must be
    nonnegative so box widths never shrink along the horizon.
    """
    eps0, eps1 = growth
    if eps0 < 0.0 or eps1 < 0.0:
        raise ValueError("growth rates must be nonnegative")
    n = np.arange(horizon + 1, dtype=float)
    half = eps0 + eps1 * n * t_s
    lon_c = ru.lon + ru.v_lon * n * t_s
    lat_c = ru.lat + ru.v_lat * n * t_s
    return ReachableSet(lon_lo=lon_c - half, lon_hi=lon_c + half,
                        lat_lo=lat_c - half, lat_hi=lat_c + half)


def _box_distance(path: PathGeometry, s, lon_lo, lon_hi, lat_lo, lat_hi):
    """Distance from path points at s to the closest point of a box.

    The closest box point is taken in path coordinates (clamp of (s, 0) into
    the box), exact on straight segments and a tight approximation for the
    gentle curvatures this model is valid for. Accepts scalars or arrays.
    """
    s = np.asarray(s, dtype=float)
    w_lon = np.clip(s, lon_lo, lon_hi)
    w_lat = np.clip(0.0, lat_lo, lat_hi)
    px, py = path.to_global_arr(s, np.zeros_like(s))
    qx, qy = path.to_global_arr(w_lon, np.full_like(s, w_lat))
    return np.hypot(qx - px, qy - py)


def collision_window(path: PathGeometry, reach: ReachableSet, d_safe: float,
                     coarse: float = 0.5, refine_tol: float = 1e-6
                     ) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Per-step yield bound: smallest path coordinate within d_safe of the box.

    Steps whose box stays clear of the path carry NO_BOUND. The scan grid is
    anchored at the path start so repeated calls with nested boxes produce
    monotone bounds; a bisection pass refines the entry point below the
    stated tolerance, returning the conservative (lower) end.
    """
    if d_safe <= 0.0:
        raise ValueError("d_safe must be positive")
    n_steps = len(reach)
    bounds = np.full(n_steps, NO_BOUND)
    grid = np.arange(path.s_min, path.s_max + coarse, coarse)
    grid = grid[grid <= path.s_max]

    lo_ref = np.empty(n_steps)
    hi_ref = np.empty(n_steps)
    active = []
    for k in range(n_steps):
        lon_lo, lon_hi = reach.lon_lo[k], reach.lon_hi[k]
        lat_lo, lat_hi = reach.lat_lo[k], reach.lat_hi[k]
        lat_gap = 0.0 if lat_lo <= 0.0 <= lat_hi else min(abs(lat_lo), abs(lat_hi))
        if lat_gap > d_safe:
            continue
        lo_s = max(path.s_min, lon_lo - d_safe - coarse)
        hi_s = min(path.s_max, lon_hi + d_safe + coarse)
        if lo_s > hi_s:
            continue
        sub = grid[(grid >= lo_s - coarse) & (grid <= hi_s + coarse)]
        if sub.size == 0:
            continue
        inside = _box_distance(path, sub, lon_lo, lon_hi, lat_lo, lat_hi) <= d_safe
        idx = np.argmax(inside)
        if not inside[idx]:
            continue
        hit = float(sub[idx])
        lo = hit - coarse
        if lo < path.s_min or float(
                _box_distance(path, lo, lon_lo, lon_hi, lat_lo, lat_hi)) <= d_safe:
            bounds[k] = max(lo, path.s_min)
            continue
        lo_ref[k], hi_ref[k] = lo, hit
        active.append(k)

    if active:
        # refine all entry points at once by bisection on the crossing
        act = np.asarray(active)
        lo = lo_ref[act]
        hi = hi_ref[act]
        lon_lo_a, lon_hi_a = reach.lon_lo[act], reach.lon_hi[act]
        lat_w = np.clip(0.0, reach.lat_lo[act], reach.lat_hi[act])
        n_iter = int(math.ceil(math.log2(coarse / refine_tol))) + 1
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            w_lon = np.clip(mid, lon_lo_a, lon_hi_a)
            px, py = path.to_global_arr(mid, np.zeros_like(mid))
            qx, qy = path.to_global_arr(w_lon, lat_w)
            inside = np.hypot(qx - px, qy - py) <= d_safe
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
        bounds[act] = lo

    finite = np.where(np.isfinite(bounds))[0]
    window = (int(finite[0]), int(finite[-1])) if finite.size else None
    return bounds, window


def lane_corridor(reach: ReachableSet, ego_lane: str, lane_width: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step lateral corridor bounds given the road-user boxes.

    While the box stays out of the ego lane the nominal corridor of the
    current lane holds. On invaded steps the corridor switches to the
    adjacent lane; if that lane is occupied too the step is flagged blocked
    (bounds left at the ego lane, caller decides how to fail).
    """
    ego_lo, ego_hi = lane_bounds(ego_lane, lane_width)
    # adjacent-lane corridor on the opposite side of the ego lane
    ev_lo, ev_hi = lane_bounds("left" if ego_lane == "right" else "right",
                               lane_width)

    n = len(reach)
    lo = np.full(n, ego_lo)
    hi = np.full(n, ego_hi)
    blocked = np.zeros(n, dtype=bool)
    for k in range(n):
        invades_ego = reach.lat_lo[k] < ego_hi and reach.lat_hi[k] > ego_lo
        if not invades_ego:
            continue
        invades_other = reach.lat_lo[k] < ev_hi and reach.lat_hi[k] > ev_lo
        if invades_other:
            blocked[k] = True
            continue
        lo[k], hi[k] = ev_lo, ev_hi
    return lo, hi, blocked


def consistency_delta(prev: DisturbanceProfile, curr: DisturbanceProfile,
                      newborn_cap: float = 1e3, tol: float = 1e-7) -> ConsistencyDelta:
    """Drift of the constraint offsets from the previous cycle to this one.

    The previous profile is shifted by one step so entries refer to the same
    absolute time. Deltas are positive where a bound tightened. A yield bound
    appearing where the previous cycle saw none counts as a tightening capped
    at newborn_cap; one disappearing counts as a (harmless) relaxation.
    """
    if len(prev) != len(curr):
        raise ValueError("profiles must share horizon length")
    m = len(curr) - 1  # overlap: steps 1..M-1 of prev align with 0..M-2 of curr
    prev_sig = prev.yield_bound[1:m]
    curr_sig = curr.yield_bound[0:m - 1]
    # yield bound row: rhs is sigma, tightening means sigma shrank
    both = np.isfinite(prev_sig) & np.isfinite(curr_sig)
    d_sig = np.zeros(prev_sig.size)
    d_sig[both] = prev_sig[both] - curr_sig[both]
    newborn = ~np.isfinite(prev_sig) & np.isfinite(curr_sig)
    d_sig[newborn] = newborn_cap

    # corridor rows: rhs are (hi, -lo)
    d_hi = prev.corridor_hi[1:m] - curr.corridor_hi[0:m - 1]
    d_lo = curr.corridor_lo[0:m - 1] - prev.corridor_lo[1:m]

    per_row = np.stack([d_sig, d_hi, d_lo])
    norm = float(np.linalg.norm(per_row))
    max_delta = float(np.max(per_row)) if per_row.size else 0.0
    return ConsistencyDelta(per_row=per_row, norm=norm, max_delta=max_delta,
                            consistent=bool(max_delta <= tol))


def nominal_profile(horizon: int, lane_width: float, ego_lane: str = "right"
                    ) -> DisturbanceProfile:
    """Profile with no road user: free yield bound, nominal corridor."""
    lo, hi = lane_bounds(ego_lane, lane_width)
    n = horizon + 1
    return DisturbanceProfile(
        yield_bound=np.full(n, NO_BOUND),
        corridor_lo=np.full(n, lo),
        corridor_hi=np.full(n, hi),
        window=None,
    )


def build_profile(path: PathGeometry, ru: RoadUserState | None, horizon: int,
                  t_s: float, growth: tuple[float, float], d_safe: float,
                  ego_lane: str = "right", evasive: bool = False
                  ) -> DisturbanceProfile:
    """Assemble the full horizon profile for one control cycle.

    evasive arms the corridor switch: without it the corridor stays nominal
    and the road user is handled longitudinally only.
    """
    if ru is None:
        return nominal_profile(horizon, path.lane_width, ego_lane)
    reach = predict_reachable(ru, horizon, t_s, growth)
    bounds, window = collision_window(path, reach, d_safe)
    if evasive:
        lo, hi, blocked = lane_corridor(reach, ego_lane, path.lane_width)
        return DisturbanceProfile(yield_bound=bounds, corridor_lo=lo,
                                  corridor_hi=hi, window=window, blocked=blocked)
    return replace(nominal_profile(horizon, path.lane_width, ego_lane),
                   yield_bound=bounds, window=window)
