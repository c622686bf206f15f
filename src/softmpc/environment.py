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
# collision-window scan step along the path and bisection tolerance [m]
SCAN_STEP = 0.5
WINDOW_TOL = 1e-6
# drift of a yield bound appearing where the previous cycle saw none [m]
NEWBORN_CAP = 1e3
# largest tightening that still counts as consistent [m]
CONSISTENCY_TOL = 1e-7


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
    blocked: np.ndarray | None = None  # per-step flag: both lanes unusable

    def __post_init__(self):
        for name in ("yield_bound", "corridor_lo", "corridor_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.yield_bound.size
        if self.corridor_lo.size != n or self.corridor_hi.size != n:
            raise ValueError("profile arrays must share length")

    def __len__(self) -> int:
        return int(self.yield_bound.size)


@dataclass(frozen=True)
class ConsistencyDelta:
    """Step-wise drift of the constraint offsets between consecutive cycles.

    Deltas are taken per step on the right-hand sides of the yield-bound,
    corridor-upper and corridor-lower rows; positive ones mean the
    environment became more restrictive than predicted.
    """
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
    gentle curvatures this model is valid for. Accepts scalars or arrays;
    the box bounds broadcast against s, so one call can measure many points
    against many boxes.
    """
    s = np.asarray(s, dtype=float)
    w_lon = np.clip(s, lon_lo, lon_hi)
    w_lat = np.clip(0.0, lat_lo, lat_hi)
    px, py = path.to_global_arr(s, np.zeros_like(s))
    qx, qy = path.to_global_arr(w_lon, np.full_like(s, w_lat))
    return np.hypot(qx - px, qy - py)


def collision_window(path: PathGeometry, reach: ReachableSet, d_safe: float
                     ) -> np.ndarray:
    """Per-step yield bound: smallest path coordinate within d_safe of the box.

    Steps whose box stays clear of the path carry NO_BOUND. The scan grid is
    anchored at the path start so repeated calls with nested boxes produce
    monotone bounds; a bisection pass refines the entry point below
    WINDOW_TOL, returning the conservative (lower) end.

    All steps are handled at once. Each step scans the slice of the grid
    within its box's longitudinal reach, and the slices are padded to one
    2-D array; the first grid point within d_safe is the step's hit. A step
    whose hit already has the previous grid point within d_safe (or before
    the path start) takes that point; the others bisect between the two.
    """
    if d_safe <= 0.0:
        raise ValueError("d_safe must be positive")
    bounds = np.full(len(reach), NO_BOUND)
    grid = np.arange(path.s_min, path.s_max + SCAN_STEP, SCAN_STEP)
    grid = grid[grid <= path.s_max]

    # steps whose box comes within d_safe of the path laterally and whose
    # longitudinal reach overlaps the path; the others keep an empty slice
    lat_lo, lat_hi = reach.lat_lo, reach.lat_hi
    lat_gap = np.where((lat_lo <= 0.0) & (0.0 <= lat_hi), 0.0,
                       np.minimum(np.abs(lat_lo), np.abs(lat_hi)))
    lo_s = np.maximum(path.s_min, reach.lon_lo - d_safe - SCAN_STEP)
    hi_s = np.minimum(path.s_max, reach.lon_hi + d_safe + SCAN_STEP)
    # grid[first:stop] holds the grid points in [lo_s - step, hi_s + step]
    first = np.searchsorted(grid, lo_s - SCAN_STEP, side="left")
    stop = np.searchsorted(grid, hi_s + SCAN_STEP, side="right")
    stop = np.where((lat_gap <= d_safe) & (lo_s <= hi_s), stop, first)

    k = np.flatnonzero(stop > first)
    if k.size == 0:
        return bounds
    box = (reach.lon_lo[k, None], reach.lon_hi[k, None],
           lat_lo[k, None], lat_hi[k, None])
    idx = first[k, None] + np.arange(np.max(stop[k] - first[k]))
    in_slice = idx < stop[k, None]
    sub = grid[np.where(in_slice, idx, first[k, None])]
    inside = in_slice & (_box_distance(path, sub, *box) <= d_safe)
    j = np.argmax(inside, axis=1)
    rows = np.arange(k.size)
    met = inside[rows, j]
    k, j, box = k[met], j[met], tuple(b[met, 0] for b in box)
    hi = sub[rows[met], j]
    lo = hi - SCAN_STEP

    near = (lo < path.s_min) | (_box_distance(path, lo, *box) <= d_safe)
    bounds[k[near]] = np.maximum(lo[near], path.s_min)

    # refine the other entry points by bisection on the crossing
    far = ~near
    lo, hi, box = lo[far], hi[far], tuple(b[far] for b in box)
    n_iter = int(math.ceil(math.log2(SCAN_STEP / WINDOW_TOL))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        inside = _box_distance(path, mid, *box) <= d_safe
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    bounds[k[far]] = lo
    return bounds


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
    invades_ego = (reach.lat_lo < ego_hi) & (reach.lat_hi > ego_lo)
    invades_other = (reach.lat_lo < ev_hi) & (reach.lat_hi > ev_lo)
    blocked = invades_ego & invades_other
    switch = invades_ego & ~blocked
    return (np.where(switch, ev_lo, ego_lo), np.where(switch, ev_hi, ego_hi),
            blocked)


def consistency_delta(prev: DisturbanceProfile, curr: DisturbanceProfile
                      ) -> ConsistencyDelta:
    """Drift of the constraint offsets from the previous cycle to this one.

    The previous profile is shifted by one step so entries refer to the same
    absolute time. Deltas are positive where a bound tightened. A yield bound
    appearing where the previous cycle saw none counts as a tightening capped
    at NEWBORN_CAP; one disappearing counts as a (harmless) relaxation.
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
    d_sig[newborn] = NEWBORN_CAP

    # corridor rows: rhs are (hi, -lo)
    d_hi = prev.corridor_hi[1:m] - curr.corridor_hi[0:m - 1]
    d_lo = curr.corridor_lo[0:m - 1] - prev.corridor_lo[1:m]

    deltas = np.stack([d_sig, d_hi, d_lo])
    max_delta = float(np.max(deltas)) if deltas.size else 0.0
    return ConsistencyDelta(norm=float(np.linalg.norm(deltas)),
                            max_delta=max_delta,
                            consistent=bool(max_delta <= CONSISTENCY_TOL))


def nominal_profile(horizon: int, lane_width: float, ego_lane: str = "right"
                    ) -> DisturbanceProfile:
    """Profile with no road user: free yield bound, nominal corridor."""
    lo, hi = lane_bounds(ego_lane, lane_width)
    n = horizon + 1
    return DisturbanceProfile(
        yield_bound=np.full(n, NO_BOUND),
        corridor_lo=np.full(n, lo),
        corridor_hi=np.full(n, hi),
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
    bounds = collision_window(path, reach, d_safe)
    if evasive:
        lo, hi, blocked = lane_corridor(reach, ego_lane, path.lane_width)
        return DisturbanceProfile(yield_bound=bounds, corridor_lo=lo,
                                  corridor_hi=hi, blocked=blocked)
    return replace(nominal_profile(horizon, path.lane_width, ego_lane),
                   yield_bound=bounds)
