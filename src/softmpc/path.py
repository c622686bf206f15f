"""Reference path geometry in arc-length parameterization.

A path is a uniformly resampled polyline carrying position, heading and
curvature per sample. Lateral offsets follow the left-normal convention:
positive offsets point to the left of the direction of travel.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class PathRangeError(ValueError):
    """Arc length outside the sampled interval."""


@dataclass(frozen=True)
class PathGeometry:
    """Sampled reference path: arc length, global pose, curvature, lane width.

    Immutable after construction; safe to share between threads.
    """

    s: np.ndarray          # (n,) strictly increasing arc lengths [m]
    xy: np.ndarray         # (n, 2) global positions [m]
    heading: np.ndarray    # (n,) tangent headings [rad]
    curvature: np.ndarray  # (n,) signed curvatures [1/m]
    lane_width: float = 3.5

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("path needs at least two samples")
        if np.any(np.diff(s) <= 0.0):
            raise ValueError("arc lengths must be strictly increasing")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "xy", np.asarray(self.xy, dtype=float).reshape(s.size, 2))
        object.__setattr__(self, "heading", np.asarray(self.heading, dtype=float).reshape(s.size))
        object.__setattr__(self, "curvature", np.asarray(self.curvature, dtype=float).reshape(s.size))
        # unwrapped copy keeps heading interpolation safe across +-pi
        object.__setattr__(self, "_heading_cont", np.unwrap(self.heading))
        object.__setattr__(self, "_span", (float(s[0]), float(s[-1])))

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def _check_range(self, s: float) -> float:
        s = float(s)
        lo, hi = self._span
        if s < lo - 1e-9 or s > hi + 1e-9:
            raise PathRangeError(
                f"arc length {s:.6g} outside sampled interval "
                f"[{lo:.6g}, {hi:.6g}]"
            )
        return min(max(s, lo), hi)

    def curvature_at(self, s: float) -> float:
        """Piecewise-linear interpolation of the sampled curvature."""
        s = self._check_range(s)
        return float(np.interp(s, self.s, self.curvature))

    def curvature_and_slope_at(self, s: float) -> tuple[float, float]:
        """Curvature and its slope d(kappa)/ds at s, with one range check.

        The slope of the piecewise-linear interpolant is constant between
        samples.
        """
        s = self._check_range(s)
        i = int(np.searchsorted(self.s, s, side="right")) - 1
        i = min(max(i, 0), self.s.size - 2)
        return (float(np.interp(s, self.s, self.curvature)),
                float((self.curvature[i + 1] - self.curvature[i])
                      / (self.s[i + 1] - self.s[i])))

    def reference_steering_at(self, s: float, wheelbase: float) -> float:
        """Kinematic steering angle tracking the path: atan(l * kappa)."""
        return math.atan(wheelbase * self.curvature_at(s))

    def pose_at(self, s: float) -> tuple[float, float, float]:
        """Interpolated (x, y, heading) at arc length s."""
        s = self._check_range(s)
        x = float(np.interp(s, self.s, self.xy[:, 0]))
        y = float(np.interp(s, self.s, self.xy[:, 1]))
        h = float(np.interp(s, self.s, self._heading_cont))
        return x, y, h

    def poses_at(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized pose interpolation; values clipped to the sampled range."""
        s = np.clip(np.asarray(s, dtype=float), self.s[0], self.s[-1])
        x = np.interp(s, self.s, self.xy[:, 0])
        y = np.interp(s, self.s, self.xy[:, 1])
        h = np.interp(s, self.s, self._heading_cont)
        return x, y, h

    def to_global(self, s: float, lateral: float) -> tuple[float, float]:
        """Map path coordinates (s, lateral offset) to the global frame.

        Positive offsets go along the left normal of the path tangent.
        """
        x, y, h = self.pose_at(s)
        return x - lateral * math.sin(h), y + lateral * math.cos(h)

    def to_global_arr(self, s: np.ndarray, lateral: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized to_global over parallel arrays."""
        x, y, h = self.poses_at(s)
        return x - lateral * np.sin(h), y + lateral * np.cos(h)

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Inverse of to_global: path coordinates (s, lateral) of a global point.

        Finds the arc length whose interpolated heading makes the offset purely
        normal, so project(to_global(s, e)) recovers (s, e) to solver precision
        for |lateral| below the local curvature radius.
        """

        def along_track(s):
            px, py, h = self.pose_at(s)
            return (x - px) * math.cos(h) + (y - py) * math.sin(h)

        d2 = (self.xy[:, 0] - x) ** 2 + (self.xy[:, 1] - y) ** 2
        i = int(np.argmin(d2))
        lo_i, hi_i = max(i - 2, 0), min(i + 2, self.s.size - 1)
        a, b = float(self.s[lo_i]), float(self.s[hi_i])
        fa, fb = along_track(a), along_track(b)
        # widen the bracket if the sign change is not yet captured
        while fa * fb > 0.0 and (lo_i > 0 or hi_i < self.s.size - 1):
            lo_i, hi_i = max(lo_i - 4, 0), min(hi_i + 4, self.s.size - 1)
            a, b = float(self.s[lo_i]), float(self.s[hi_i])
            fa, fb = along_track(a), along_track(b)
        if fa * fb > 0.0:
            s_star = a if abs(fa) < abs(fb) else b
        else:
            while b - a > 1e-10:
                mid = 0.5 * (a + b)
                fm = along_track(mid)
                if fa * fm <= 0.0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            s_star = 0.5 * (a + b)
        px, py, h = self.pose_at(s_star)
        lateral = -(x - px) * math.sin(h) + (y - py) * math.cos(h)
        return float(s_star), float(lateral)


def straight_path(length: float, spacing: float = 0.5, lane_width: float = 3.5,
                  heading: float = 0.0, origin: tuple[float, float] = (0.0, 0.0)) -> PathGeometry:
    """Straight path starting at origin with constant heading."""
    n = max(int(round(length / spacing)) + 1, 2)
    s = np.linspace(0.0, length, n)
    xy = np.stack([origin[0] + s * math.cos(heading),
                   origin[1] + s * math.sin(heading)], axis=1)
    return PathGeometry(s=s, xy=xy, heading=np.full(n, heading),
                        curvature=np.zeros(n), lane_width=lane_width)


def circular_path(radius: float, arc: float, spacing: float = 0.5,
                  lane_width: float = 3.5) -> PathGeometry:
    """Counter-clockwise circle of given radius, starting at (R, 0) heading +Y."""
    n = max(int(round(arc / spacing)) + 1, 2)
    s = np.linspace(0.0, arc, n)
    ang = s / radius
    xy = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    return PathGeometry(s=s, xy=xy, heading=ang + math.pi / 2.0,
                        curvature=np.full(n, 1.0 / radius), lane_width=lane_width)


def clothoid_path(length: float, curv_rate: float, spacing: float = 0.5,
                  lane_width: float = 3.5) -> PathGeometry:
    """Clothoid (linearly growing curvature) integrated at the sample spacing."""
    n = max(int(round(length / spacing)) + 1, 2)
    s = np.linspace(0.0, length, n)
    kappa = curv_rate * s
    heading = 0.5 * curv_rate * s ** 2
    # trapezoidal integration of the unit tangent
    cx = np.concatenate([[0.0], np.cumsum(0.5 * (np.cos(heading[1:]) + np.cos(heading[:-1])) * np.diff(s))])
    cy = np.concatenate([[0.0], np.cumsum(0.5 * (np.sin(heading[1:]) + np.sin(heading[:-1])) * np.diff(s))])
    return PathGeometry(s=s, xy=np.stack([cx, cy], axis=1), heading=heading,
                        curvature=kappa, lane_width=lane_width)


def load_path_csv(filename: str, lane_width: float = 3.5) -> PathGeometry:
    """Load a path from CSV with header s,x,y,psi,kappa; validates monotone s."""
    rows = []
    with open(filename, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"s", "x", "y", "psi", "kappa"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(f"path CSV must have header with columns {sorted(required)}")
        for row in reader:
            rows.append((float(row["s"]), float(row["x"]), float(row["y"]),
                         float(row["psi"]), float(row["kappa"])))
    if len(rows) < 2:
        raise ValueError("path CSV needs at least two rows")
    arr = np.asarray(rows)
    return PathGeometry(s=arr[:, 0], xy=arr[:, 1:3], heading=arr[:, 3],
                        curvature=arr[:, 4], lane_width=lane_width)


def save_path_csv(path: PathGeometry, filename: str) -> None:
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "x", "y", "psi", "kappa"])
        for i in range(path.s.size):
            writer.writerow([repr(float(path.s[i])), repr(float(path.xy[i, 0])),
                             repr(float(path.xy[i, 1])), repr(float(path.heading[i])),
                             repr(float(path.curvature[i]))])
