import math

import numpy as np
import pytest

from softmpc.path import (PathGeometry, PathRangeError, circular_path,
                          clothoid_path, straight_path)


def test_straight_path_zero_curvature():
    path = straight_path(100.0)
    for s in (0.0, 13.7, 50.0, 100.0):
        assert path.curvature_at(s) == 0.0


def test_circle_constant_curvature():
    path = circular_path(radius=100.0, arc=200.0)
    for s in (0.0, 55.5, 199.0):
        assert path.curvature_at(s) == pytest.approx(0.01, abs=1e-12)


def test_clothoid_interpolation_matches_dense_resampling():
    # coarse 0.5 m sampling vs a 0.01 m resampling of the same clothoid
    coarse = clothoid_path(length=80.0, curv_rate=1e-4, spacing=0.5)
    dense = clothoid_path(length=80.0, curv_rate=1e-4, spacing=0.01)
    for s in (0.25, 10.25, 40.75, 79.25):  # midway between coarse samples
        assert coarse.curvature_at(s) == pytest.approx(dense.curvature_at(s), abs=1e-9)


def test_curvature_out_of_range_names_interval():
    path = straight_path(50.0)
    with pytest.raises(PathRangeError, match=r"\[0, 50\]"):
        path.curvature_at(51.0)
    with pytest.raises(PathRangeError):
        path.curvature_at(-1.0)


@pytest.mark.parametrize("path", [
    straight_path(50.0),
    circular_path(radius=30.0, arc=60.0),
    clothoid_path(length=80.0, curv_rate=1e-3, spacing=0.37),
    PathGeometry(s=np.array([0.0, 0.3, 1.7, 2.0, 5.5]), xy=np.zeros((5, 2)),
                 heading=np.zeros(5),
                 curvature=np.array([0.02, -0.013, 0.0, 1.0 / 3.0, -0.1])),
    # zero curvature, but np.interp gives -0.0 at each -0.0 sample: the
    # bisect serves this path, not the flat lookup
    PathGeometry(s=np.array([-1.0, 0.5, 2.0, 4.0]), xy=np.zeros((4, 2)),
                 heading=np.zeros(4),
                 curvature=np.array([0.0, -0.0, -0.0, 0.0])),
], ids=["straight", "circle", "clothoid", "uneven", "signed-zero"])
def test_curvature_at_equals_np_interp_bit_for_bit(path):
    # the lookup runs np.interp's arithmetic on Python floats; on the
    # straight path, whose samples are all +0.0, it returns 0.0 without a
    # bisect, at every s within 1e-9 of the interval
    rng = np.random.default_rng(3)
    lo, hi = path.s_min, path.s_max
    points = np.concatenate([
        rng.uniform(lo, hi, 2000), path.s,
        path.s[:-1] + 0.5 * np.diff(path.s),
        [lo, hi, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)],
        lo - rng.uniform(0.0, 1e-9, 20), hi + rng.uniform(0.0, 1e-9, 20)])
    for s in points:
        want = float(np.interp(s, path.s, path.curvature))
        got = path.curvature_at(s)
        assert type(got) is float and got.hex() == want.hex(), s
    assert math.isnan(path.curvature_at(math.nan))
    assert math.isnan(np.interp(math.nan, path.s, path.curvature))
    # just beyond the 1e-9 band, at either end, the lookup raises
    for s in (lo - 2e-9, hi + 2e-9, -math.inf, math.inf):
        with pytest.raises(PathRangeError,
                           match=r"outside sampled interval \[.*\]"):
            path.curvature_at(s)


def test_to_global_on_straight_path():
    path = straight_path(100.0)
    x, y = path.to_global_arr(np.array([10.0, 10.0]), np.array([0.0, 2.0]))
    assert (x[0], y[0]) == pytest.approx((10.0, 0.0), abs=1e-12)
    # left normal of +X travel is +Y
    assert (x[1], y[1]) == pytest.approx((10.0, 2.0), abs=1e-12)


def test_to_global_on_circle_left_normal_points_inward():
    # CCW circle R=50 from (50, 0); left offset 1 m lands at radius 49.
    path = circular_path(radius=50.0, arc=math.pi * 50.0, spacing=0.05)
    x, y = path.to_global_arr(np.array([math.pi * 25.0]), np.array([1.0]))
    # analytic: radius-49 point at angle pi/2
    assert x[0] == pytest.approx(49.0 * math.cos(math.pi / 2.0), abs=1e-4)
    assert y[0] == pytest.approx(49.0 * math.sin(math.pi / 2.0), abs=1e-4)


def test_curvature_interpolant_is_lipschitz():
    path = clothoid_path(60.0, 5e-4, spacing=0.5)
    slopes = np.abs(np.diff(path.curvature) / np.diff(path.s))
    bound = float(np.max(slopes)) + 1e-15
    rng = np.random.default_rng(3)
    s_pairs = rng.uniform(0.0, 60.0, size=(200, 2))
    for s1, s2 in s_pairs:
        if s1 == s2:
            continue
        lhs = abs(path.curvature_at(s1) - path.curvature_at(s2))
        assert lhs <= bound * abs(s1 - s2) + 1e-12


def test_monotone_s_required():
    with pytest.raises(ValueError, match="strictly increasing"):
        PathGeometry(s=np.array([0.0, 1.0, 1.0]), xy=np.zeros((3, 2)),
                     heading=np.zeros(3), curvature=np.zeros(3))
