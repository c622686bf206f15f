"""Reference path geometry in arc-length parameterization.

A path is a uniformly resampled polyline carrying position, heading and
curvature per sample. Lateral offsets follow the left-normal convention:
positive offsets point to the left of the direction of travel.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


# default arc-length spacing of the samples [m]
SPACING = 0.5


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
        # Python-float copies for the one-point curvature lookup
        object.__setattr__(self, "_s_list", s.tolist())
        object.__setattr__(self, "_curvature_list", self.curvature.tolist())

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
        """Piecewise-linear interpolation of the sampled curvature.

        np.interp's arithmetic on the cached Python lists: bisect for the
        interval, the stored value at an exact sample and at the last one,
        slope * (s - s_j) + kappa_j between samples, and NaN for a NaN s.
        The result is np.interp's bit for bit (for finite curvatures),
        without its per-call array overhead.
        """
        s = self._check_range(s)
        if s != s:
            return s
        xp, fp = self._s_list, self._curvature_list
        j = bisect.bisect_right(xp, s) - 1      # xp[0] <= s, so j >= 0
        if j == len(xp) - 1 or xp[j] == s:
            return fp[j]
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
        return slope * (s - xp[j]) + fp[j]

    def curvature_and_slope_at(self, s: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Curvatures and their slopes d(kappa)/ds at an array of arc lengths,
        with one range check.

        The slope of the piecewise-linear interpolant is constant between
        samples.
        """
        s = np.asarray(s, dtype=float)
        lo, hi = self._span
        out = np.flatnonzero((s < lo - 1e-9) | (s > hi + 1e-9))
        if out.size:
            self._check_range(s[out[0]])      # raises, naming the interval
        s = np.clip(s, lo, hi)
        i = np.clip(np.searchsorted(self.s, s, side="right") - 1,
                    0, self.s.size - 2)
        return (np.interp(s, self.s, self.curvature),
                (self.curvature[i + 1] - self.curvature[i])
                / (self.s[i + 1] - self.s[i]))

    def poses_at(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized pose interpolation; values clipped to the sampled range."""
        s = np.clip(np.asarray(s, dtype=float), self.s[0], self.s[-1])
        x = np.interp(s, self.s, self.xy[:, 0])
        y = np.interp(s, self.s, self.xy[:, 1])
        h = np.interp(s, self.s, self._heading_cont)
        return x, y, h

    def to_global_arr(self, s: np.ndarray, lateral: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Map path coordinates (s, lateral offset), given as parallel
        arrays, to the global frame; values clipped to the sampled range.

        Positive offsets go along the left normal of the path tangent.
        """
        x, y, h = self.poses_at(s)
        return x - lateral * np.sin(h), y + lateral * np.cos(h)


def straight_path(length: float, lane_width: float = 3.5) -> PathGeometry:
    """Straight path along the x axis from the origin."""
    n = max(int(round(length / SPACING)) + 1, 2)
    s = np.linspace(0.0, length, n)
    return PathGeometry(s=s, xy=np.stack([s, np.zeros(n)], axis=1),
                        heading=np.zeros(n), curvature=np.zeros(n),
                        lane_width=lane_width)


def circular_path(radius: float, arc: float,
                  spacing: float = SPACING) -> PathGeometry:
    """Counter-clockwise circle of given radius, starting at (R, 0) heading +Y."""
    n = max(int(round(arc / spacing)) + 1, 2)
    s = np.linspace(0.0, arc, n)
    ang = s / radius
    xy = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    return PathGeometry(s=s, xy=xy, heading=ang + math.pi / 2.0,
                        curvature=np.full(n, 1.0 / radius))


def clothoid_path(length: float, curv_rate: float,
                  spacing: float = SPACING) -> PathGeometry:
    """Clothoid (linearly growing curvature) integrated at the sample spacing."""
    n = max(int(round(length / spacing)) + 1, 2)
    s = np.linspace(0.0, length, n)
    kappa = curv_rate * s
    heading = 0.5 * curv_rate * s ** 2
    # trapezoidal integration of the unit tangent
    cx = np.concatenate([[0.0], np.cumsum(0.5 * (np.cos(heading[1:]) + np.cos(heading[:-1])) * np.diff(s))])
    cy = np.concatenate([[0.0], np.cumsum(0.5 * (np.sin(heading[1:]) + np.sin(heading[:-1])) * np.diff(s))])
    return PathGeometry(s=s, xy=np.stack([cx, cy], axis=1), heading=heading,
                        curvature=kappa)
