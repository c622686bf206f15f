import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmpc.environment import (NO_BOUND, SCAN_STEP, WINDOW_TOL,
                                 ConsistencyDelta, DisturbanceProfile,
                                 ReachableSet, RoadUserState, _box_distance,
                                 build_profile, collision_window,
                                 consistency_delta, lane_bounds, lane_corridor,
                                 nominal_profile, predict_reachable)
from softmpc.path import circular_path, clothoid_path, straight_path


def test_static_obstacle_zero_growth_boxes_are_points():
    ru = RoadUserState(lon=30.0, lat=0.0, v_lon=0.0, v_lat=0.0)
    reach = predict_reachable(ru, horizon=10, t_s=0.1, growth=(0.0, 0.0))
    np.testing.assert_allclose(reach.lon_lo, 30.0)
    np.testing.assert_allclose(reach.lon_hi, 30.0)
    np.testing.assert_allclose(reach.lat_lo, 0.0)
    np.testing.assert_allclose(reach.lat_hi, 0.0)


def test_reachable_closed_form_propagation():
    ru = RoadUserState(lon=50.0, lat=1.0, v_lon=10.0, v_lat=0.0)
    reach = predict_reachable(ru, horizon=20, t_s=0.1, growth=(0.5, 1.0))
    for n in range(21):
        center = 50.0 + 10.0 * n * 0.1
        half = 0.5 + 0.1 * n
        assert reach.lon_lo[n] == pytest.approx(center - half)
        assert reach.lon_hi[n] == pytest.approx(center + half)
        assert reach.lat_lo[n] == pytest.approx(1.0 - half)
        assert reach.lat_hi[n] == pytest.approx(1.0 + half)


def test_reachable_widths_nondecreasing():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ru = RoadUserState(lon=rng.uniform(0, 100), lat=rng.uniform(-4, 4),
                           v_lon=rng.uniform(-10, 20), v_lat=rng.uniform(-2, 2))
        growth = (rng.uniform(0, 2), rng.uniform(0, 3))
        reach = predict_reachable(ru, horizon=30, t_s=0.1, growth=growth)
        widths = reach.lon_hi - reach.lon_lo
        assert np.all(np.diff(widths) >= -1e-12)


def test_growth_must_be_nonnegative():
    with pytest.raises(ValueError):
        predict_reachable(RoadUserState(0, 0), 5, 0.1, (-0.1, 0.0))


def test_collision_window_empty_when_laterally_clear():
    path = straight_path(200.0)
    reach = ReachableSet(lon_lo=[50.0], lon_hi=[52.0], lat_lo=[8.0], lat_hi=[9.0])
    bounds = collision_window(path, reach, d_safe=5.0)
    assert bounds[0] == NO_BOUND


def test_collision_window_point_obstacle_analytic():
    path = straight_path(200.0)
    reach = ReachableSet(lon_lo=[50.0], lon_hi=[50.0], lat_lo=[0.0], lat_hi=[0.0])
    bounds = collision_window(path, reach, d_safe=5.0)
    assert bounds[0] == pytest.approx(45.0, abs=1e-5)


def _brute_force_sigma(path, box, d_safe, grid_step=0.01):
    s_grid = np.arange(path.s_min, path.s_max, grid_step)
    hits = np.where(_box_distance(path, s_grid, *box) <= d_safe)[0]
    return float(s_grid[hits[0]]) if hits.size else NO_BOUND


def test_collision_window_matches_grid_oracle_on_random_boxes():
    path = straight_path(150.0)
    rng = np.random.default_rng(17)
    for _ in range(100):
        lon_lo = rng.uniform(10.0, 120.0)
        lon_hi = lon_lo + rng.uniform(0.0, 15.0)
        lat_lo = rng.uniform(-6.0, 4.0)
        lat_hi = lat_lo + rng.uniform(0.0, 4.0)
        d_safe = rng.uniform(1.0, 7.0)
        reach = ReachableSet(lon_lo=[lon_lo], lon_hi=[lon_hi],
                             lat_lo=[lat_lo], lat_hi=[lat_hi])
        bounds = collision_window(path, reach, d_safe)
        oracle = _brute_force_sigma(path, (lon_lo, lon_hi, lat_lo, lat_hi), d_safe)
        if oracle == NO_BOUND:
            assert bounds[0] == NO_BOUND
        else:
            assert abs(bounds[0] - oracle) <= 0.01 + 1e-9


def test_collision_window_on_curved_path():
    path = circular_path(radius=200.0, arc=300.0, spacing=0.25)
    # obstacle sitting on the path half way along the arc
    reach = ReachableSet(lon_lo=[150.0], lon_hi=[150.0], lat_lo=[0.0], lat_hi=[0.0])
    bounds = collision_window(path, reach, d_safe=4.0)
    oracle = _brute_force_sigma(path, (150.0, 150.0, 0.0, 0.0), 4.0)
    assert abs(bounds[0] - oracle) <= 0.01 + 1e-9


@st.composite
def nested_boxes(draw):
    """(base, grown, d_safe): per step, grown contains base's box."""
    n = draw(st.integers(1, 4))
    coord = st.floats(0.0, 6.0)

    def arrays(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    lon_lo = arrays(st.floats(0.0, 190.0))
    lat_lo = arrays(st.floats(-8.0, 6.0))
    base = ReachableSet(lon_lo=lon_lo, lon_hi=lon_lo + arrays(coord),
                        lat_lo=lat_lo, lat_hi=lat_lo + arrays(coord))
    grown = ReachableSet(lon_lo=base.lon_lo - arrays(coord),
                         lon_hi=base.lon_hi + arrays(coord),
                         lat_lo=base.lat_lo - arrays(coord),
                         lat_hi=base.lat_hi + arrays(coord))
    return base, grown, draw(st.floats(0.5, 7.0))


@given(nested_boxes())
@example((ReachableSet(lon_lo=[80.0], lon_hi=[85.0], lat_lo=[-1.0], lat_hi=[1.0]),
          ReachableSet(lon_lo=[78.0], lon_hi=[87.0], lat_lo=[-2.0], lat_hi=[2.0]),
          5.0))
@settings(max_examples=60, deadline=None)
def test_collision_window_monotone_under_box_nesting(boxes):
    # a larger box is met no later: its yield bound is never above the one
    # of a box it contains, and it has a bound wherever that box has one
    base, grown, d_safe = boxes
    path = straight_path(200.0)
    b0 = collision_window(path, base, d_safe)
    b1 = collision_window(path, grown, d_safe)
    assert np.all(b1 <= b0 + 1e-9)


def test_lane_corridor_nominal_when_clear():
    reach = ReachableSet(lon_lo=[50.0] * 3, lon_hi=[55.0] * 3,
                         lat_lo=[3.0] * 3, lat_hi=[4.5] * 3)
    lo, hi, blocked = lane_corridor(reach, "right", lane_width=3.5)
    np.testing.assert_allclose(lo, -1.75)
    np.testing.assert_allclose(hi, 1.75)
    assert not blocked.any()


def test_lane_corridor_invasion_left_lane_free():
    reach = ReachableSet(lon_lo=[50.0], lon_hi=[55.0], lat_lo=[-0.5], lat_hi=[1.0])
    lo, hi, blocked = lane_corridor(reach, "right", lane_width=3.5)
    assert lo[0] == pytest.approx(1.75)
    assert hi[0] == pytest.approx(5.25)
    assert not blocked[0]


def test_lane_corridor_invasion_right_lane_free():
    # ego in the left lane, intruder enters it; evasion goes right
    reach = ReachableSet(lon_lo=[50.0], lon_hi=[55.0], lat_lo=[2.5], lat_hi=[4.0])
    lo, hi, blocked = lane_corridor(reach, "left", lane_width=3.5)
    assert lo[0] == pytest.approx(-1.75)
    assert hi[0] == pytest.approx(1.75)
    assert not blocked[0]
    # mirrored convention check: bounds are the negated left-lane corridor
    # relative to the invaded lane's own frame
    reach_wide = ReachableSet(lon_lo=[50.0], lon_hi=[55.0], lat_lo=[-6.0], lat_hi=[6.0])
    lo, hi, blocked = lane_corridor(reach_wide, "right", lane_width=3.5)
    assert blocked[0]


def _loop_collision_window(path, reach, d_safe):
    """collision_window as a loop over the steps: the reference the
    whole-horizon version must match bit for bit."""
    if d_safe <= 0.0:
        raise ValueError("d_safe must be positive")
    n_steps = len(reach)
    bounds = np.full(n_steps, NO_BOUND)
    grid = np.arange(path.s_min, path.s_max + SCAN_STEP, SCAN_STEP)
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
        lo_s = max(path.s_min, lon_lo - d_safe - SCAN_STEP)
        hi_s = min(path.s_max, lon_hi + d_safe + SCAN_STEP)
        if lo_s > hi_s:
            continue
        sub = grid[(grid >= lo_s - SCAN_STEP) & (grid <= hi_s + SCAN_STEP)]
        if sub.size == 0:
            continue
        inside = _box_distance(path, sub, lon_lo, lon_hi, lat_lo, lat_hi) <= d_safe
        idx = np.argmax(inside)
        if not inside[idx]:
            continue
        hit = float(sub[idx])
        lo = hit - SCAN_STEP
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
        n_iter = int(math.ceil(math.log2(SCAN_STEP / WINDOW_TOL))) + 1
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            w_lon = np.clip(mid, lon_lo_a, lon_hi_a)
            px, py = path.to_global_arr(mid, np.zeros_like(mid))
            qx, qy = path.to_global_arr(w_lon, lat_w)
            inside = np.hypot(qx - px, qy - py) <= d_safe
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
        bounds[act] = lo
    return bounds


def _loop_lane_corridor(reach, ego_lane, lane_width):
    """lane_corridor as a loop over the steps (reference, as above)."""
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


# the paths of the comparison: a straight road, a circle of radius 60 m and
# a clothoid reaching a 50 m radius, each 200 m long
_PATHS = {"straight": straight_path(200.0),
          "circular": circular_path(60.0, 200.0),
          "clothoid": clothoid_path(200.0, 1e-4)}
_T_S = 0.1


@given(kind=st.sampled_from(sorted(_PATHS)),
       ru=st.builds(RoadUserState, lon=st.floats(-40.0, 240.0),
                    lat=st.floats(-8.0, 8.0), v_lon=st.floats(-10.0, 25.0),
                    v_lat=st.floats(-3.0, 3.0)),
       growth=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 3.0)),
       d_safe=st.floats(0.5, 8.0), horizon=st.integers(0, 100),
       ego_lane=st.sampled_from(["right", "left"]))
# a box before the path start that never reaches it, and one past its end
@example("straight", RoadUserState(-30.0, 0.0), (0.5, 0.0), 4.0, 20, "right")
@example("circular", RoadUserState(230.0, 0.0), (0.5, 0.5), 4.0, 20, "right")
# hits on the first grid point, whose previous point lies before s_min
@example("straight", RoadUserState(2.0, 0.0), (0.0, 0.0), 4.0, 10, "right")
@example("clothoid", RoadUserState(-30.0, 0.5, 10.0), (0.5, 0.2), 4.0, 60, "right")
# zero-growth point boxes on a curve, entering the lane
@example("circular", RoadUserState(50.0, 1.0, 5.0, -0.5), (0.0, 0.0), 3.0, 50, "right")
# an empty window: the box stays laterally clear
@example("straight", RoadUserState(50.0, 10.0), (0.2, 0.0), 3.0, 30, "right")
# both lanes invaded (blocked), and the left ego lane
@example("straight", RoadUserState(40.0, 1.75, 5.0), (3.0, 0.5), 5.0, 40, "right")
@example("clothoid", RoadUserState(40.0, 3.5, 5.0, -1.0), (0.3, 0.3), 5.0, 40, "left")
@settings(max_examples=150, deadline=None)
def test_whole_horizon_profile_matches_the_step_loops(kind, ru, growth, d_safe,
                                                      horizon, ego_lane):
    path = _PATHS[kind]
    reach = predict_reachable(ru, horizon, _T_S, growth)
    bounds = collision_window(path, reach, d_safe)
    assert np.array_equal(bounds, _loop_collision_window(path, reach, d_safe))
    for got, ref in zip(lane_corridor(reach, ego_lane, path.lane_width),
                        _loop_lane_corridor(reach, ego_lane, path.lane_width)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@st.composite
def shifted_profiles(draw):
    """(prev, curr): curr is prev one step later, with no new information
    about the steps both cover; its last step is new and arbitrary."""
    n = draw(st.integers(3, 30))

    def values(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))
    sigma = values(st.one_of(st.floats(0.0, 500.0), st.just(NO_BOUND)), n + 1)
    lo = values(st.floats(-6.0, 4.0), n + 1)
    hi = lo + values(st.floats(0.0, 4.0), n + 1)
    prev = DisturbanceProfile(yield_bound=sigma[:n], corridor_lo=lo[:n],
                              corridor_hi=hi[:n])
    curr = DisturbanceProfile(yield_bound=sigma[1:], corridor_lo=lo[1:],
                              corridor_hi=hi[1:])
    return prev, curr


@given(shifted_profiles())
@example((nominal_profile(horizon=20, lane_width=3.5),) * 2)
@settings(max_examples=60, deadline=None)
def test_consistency_delta_is_zero_for_a_shifted_profile(profiles):
    # a constant profile (the nominal one) is its own shift
    delta = consistency_delta(*profiles)
    assert delta.norm == 0.0
    assert delta.consistent


def test_consistency_detects_yield_bound_shrink():
    n = 12
    base = np.linspace(60.0, 80.0, n)
    prev = DisturbanceProfile(yield_bound=base.copy(),
                              corridor_lo=np.full(n, -1.75),
                              corridor_hi=np.full(n, 1.75))
    curr_bound = base.copy()
    # current cycle's step j sees the bound the previous cycle had at j+1,
    # except one entry that tightened by 2 m
    curr_bound[:-1] = base[1:]
    curr_bound[4] -= 2.0
    curr = DisturbanceProfile(yield_bound=curr_bound,
                              corridor_lo=np.full(n, -1.75),
                              corridor_hi=np.full(n, 1.75))
    delta = consistency_delta(prev, curr)
    assert not delta.consistent
    assert delta.max_delta == pytest.approx(2.0)
    assert delta.norm == pytest.approx(2.0)


def test_consistency_receding_obstacle_holds():
    n = 12
    base = np.linspace(60.0, 80.0, n)
    prev = DisturbanceProfile(yield_bound=base.copy(),
                              corridor_lo=np.full(n, -1.75),
                              corridor_hi=np.full(n, 1.75))
    curr_bound = base.copy()
    curr_bound[:-1] = base[1:] + 0.5  # everything grew
    curr = DisturbanceProfile(yield_bound=curr_bound,
                              corridor_lo=np.full(n, -1.75),
                              corridor_hi=np.full(n, 1.75))
    delta = consistency_delta(prev, curr)
    assert delta.consistent
    assert delta.max_delta <= 0.0


def test_consistency_corridor_switch_is_violation():
    n = 10
    prev = nominal_profile(horizon=n - 1, lane_width=3.5)
    curr_lo = np.full(n, -1.75)
    curr_lo[5:] = 1.75  # corridor jumps to the left lane on later steps
    curr_hi = np.full(n, 1.75)
    curr_hi[5:] = 5.25
    curr = DisturbanceProfile(yield_bound=np.full(n, NO_BOUND),
                              corridor_lo=curr_lo, corridor_hi=curr_hi)
    delta = consistency_delta(prev, curr)
    assert not delta.consistent
    # lower bound rose by 3.5 on invaded steps
    assert delta.max_delta == pytest.approx(3.5)


def test_consistency_mismatched_horizons_rejected():
    a = nominal_profile(10, 3.5)
    b = nominal_profile(11, 3.5)
    with pytest.raises(ValueError):
        consistency_delta(a, b)


def test_build_profile_without_ru_is_nominal():
    path = straight_path(300.0)
    prof = build_profile(path, None, horizon=20, t_s=0.1, growth=(0.5, 0.5),
                         d_safe=6.0)
    assert np.all(prof.yield_bound == NO_BOUND)
    np.testing.assert_allclose(prof.corridor_lo, -1.75)


def test_build_profile_with_ru_ahead():
    path = straight_path(300.0)
    ru = RoadUserState(lon=80.0, lat=0.0, v_lon=5.0)
    prof = build_profile(path, ru, horizon=20, t_s=0.1, growth=(0.25, 0.5),
                         d_safe=6.0)
    assert np.isfinite(prof.yield_bound[0])
    assert prof.yield_bound[0] < 80.0
    # receding obstacle: bounds grow along the horizon despite inflation
    assert prof.yield_bound[10] > prof.yield_bound[0]
