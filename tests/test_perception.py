import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occlusense.grid import GridSpec, new_uniform_grid
from occlusense.perception import (
    Obstacle,
    Scan,
    raycast_scan,
    standard_inverse_update,
    visibility_mask,
)
from oracles import (
    cell_center,
    col_row,
    dense_resampled_scan,
    full_sweep_scan,
    obstacle_corners,
    random_occlusion_scene,
    rule_visibility_mask,
)

ORIGIN = (0.0, 0.0)


def unit_square(x, y, half=0.5):
    return Obstacle(center=(x, y), half_extents=(half, half))


# ---------------------------------------------------------------------------
# geometry primitives
# ---------------------------------------------------------------------------

def test_obstacle_validation_and_corners():
    with pytest.raises(ValueError):
        Obstacle(center=(0, 0), half_extents=(0.0, 1.0))
    corners = obstacle_corners(unit_square(5.0, 0.0))
    want = {(5.5, 0.5), (4.5, 0.5), (4.5, -0.5), (5.5, -0.5)}
    assert {(round(x, 9), round(y, 9)) for x, y in corners} == want


def test_stacked_corners_are_each_frames_corners():
    rect = Obstacle(center=(np.array([1.0, -2.0, 3.5]), 0.5), half_extents=(2.0, 0.75))
    stacked = obstacle_corners(rect)
    assert stacked.shape == (3, 4, 2)
    for i, x in enumerate(rect.center[0]):
        assert np.array_equal(stacked[i], obstacle_corners(Obstacle((x, 0.5), rect.half_extents)))


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------

def test_empty_scene_all_misses():
    scan = raycast_scan((), ORIGIN, n_beams=8, max_range=10.0)
    assert not scan.hits.any()
    assert np.all(scan.ranges == 10.0)
    assert scan.ranges.shape == scan.hits.shape == (8,)


def test_unit_square_ahead_hits_at_front_face():
    scene = (unit_square(5.0, 0.0),)
    scan = raycast_scan(scene, ORIGIN, n_beams=360, max_range=50.0)
    assert scan.hits[0]
    assert scan.ranges[0] == pytest.approx(4.5, abs=1e-12)


def test_obstacle_behind_ego_misses_forward_beam():
    scene = (unit_square(-5.0, 0.0),)
    scan = raycast_scan(scene, ORIGIN, n_beams=360, max_range=50.0)
    assert not scan.hits[0]
    assert scan.ranges[0] == 50.0
    # the rearward beam does see it
    assert scan.hits[180]
    assert scan.ranges[180] == pytest.approx(4.5, abs=1e-12)


def test_raycast_hit_capped_at_max_range():
    scene = (unit_square(30.0, 0.0),)
    scan = raycast_scan(scene, ORIGIN, n_beams=4, max_range=10.0)
    assert not scan.hits[0]
    assert scan.ranges[0] == 10.0


def test_raycast_matches_independent_sampler():
    rng = np.random.default_rng(8)
    for _ in range(12):
        scene, ego, _ = random_occlusion_scene(rng)
        scan = raycast_scan(scene, ego, n_beams=90, max_range=50.0)
        _, _, coarse = dense_resampled_scan(scene, ego, 90, 50.0, density=4)
        assert np.array_equal(scan.hits, coarse["hits"])
        np.testing.assert_allclose(scan.ranges, coarse["ranges"], rtol=0, atol=1e-9)


@st.composite
def sweep_cases(draw):
    """(scene, ego, n_beams) with scalar or (F,) positions.  Each rectangle
    is placed anywhere, straight ahead of the ego (its bearing interval
    straddles beam 0), absent from some frames (a NaN center x, y or both),
    or with the ego moved inside it, onto one of its edges or onto one of
    its corners."""
    n_beams = draw(st.sampled_from([1, 2, 7, 360]))
    n_frames = draw(st.sampled_from([None, 1, 4]))  # None: scalar positions

    def coordinate(lo, hi):
        values = np.array(draw(st.lists(st.floats(lo, hi), min_size=n_frames or 1, max_size=n_frames or 1)))
        return values if n_frames else float(values[0])

    ex, ey = coordinate(-10.0, 10.0), coordinate(-10.0, 10.0)
    obstacles = []
    for _ in range(draw(st.integers(1, 3))):
        half = (draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0)))
        cx, cy = coordinate(-15.0, 15.0), coordinate(-15.0, 15.0)
        placement = draw(st.sampled_from(["anywhere", "ahead", "absent", "inside", "edge", "corner"]))
        if placement == "ahead":
            cx, cy = ex + coordinate(1.0, 20.0), ey
        elif placement == "absent":
            gone = np.array(draw(st.lists(st.booleans(), min_size=n_frames or 1, max_size=n_frames or 1)))
            nan_x, nan_y = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
            cx = np.where(gone & nan_x, np.nan, cx) if n_frames else (math.nan if gone[0] and nan_x else cx)
            cy = np.where(gone & nan_y, np.nan, cy) if n_frames else (math.nan if gone[0] and nan_y else cy)
        rect = Obstacle((cx, cy), half)
        corners = obstacle_corners(rect)
        k = draw(st.integers(0, 3))
        if placement == "inside":
            ex, ey = (corners[..., k, 0] + cx) / 2.0, (corners[..., k, 1] + cy) / 2.0
        elif placement == "edge":
            u = draw(st.floats(0.0, 1.0))
            a, b = corners[..., k, :], corners[..., (k + 1) % 4, :]
            ex, ey = a[..., 0] + u * (b[..., 0] - a[..., 0]), a[..., 1] + u * (b[..., 1] - a[..., 1])
        elif placement == "corner":
            ex, ey = corners[..., k, 0], corners[..., k, 1]
        obstacles.append(rect)
    return tuple(obstacles), (ex, ey), n_beams


@settings(max_examples=400, deadline=None)
@given(sweep_cases())
@example(((unit_square(5.0, 0.0),), ORIGIN, 360))  # straddles bearing 0, beam 0 parallel
@example(((unit_square(0.5, 0.5),), ORIGIN, 7))    # origin on a corner
@example(((unit_square(0.5, 0.0),), ORIGIN, 2))    # origin on an edge
@example(((Obstacle((np.array([3.0, np.nan]), 0.0), (1.0, 1.0)),),
          (np.zeros(2), 0.0), 1))                          # absent in frame 1
@example(((Obstacle((3.0, np.array([0.0, np.nan])), (1.0, 1.0)),),
          (np.zeros(2), 0.0), 1))                          # absent as the simulator marks it: NaN y
def test_raycast_is_bit_identical_to_the_full_sweep(case):
    scene, ego, n_beams = case
    scan = raycast_scan(scene, ego, n_beams, 20.0)
    ranges, hits = full_sweep_scan(scene, ego, n_beams, 20.0)
    assert np.array_equal(scan.ranges, ranges)
    assert np.array_equal(scan.hits, hits)


# ---------------------------------------------------------------------------
# scan validation
# ---------------------------------------------------------------------------

def test_scan_validation_errors():
    r = np.array([1.0, 2.0, 3.0])
    h = np.array([True, False, True])
    Scan(ORIGIN, r, h, 5.0)  # sanity: this one is fine
    with pytest.raises(ValueError):
        Scan(ORIGIN, r[:2], h, 5.0)
    with pytest.raises(ValueError):
        Scan(ORIGIN, np.array([]), np.array([], dtype=bool), 5.0)
    with pytest.raises(ValueError):
        Scan(ORIGIN, np.array([1.0, -0.1, 3.0]), h, 5.0)
    with pytest.raises(ValueError):
        Scan(ORIGIN, np.array([1.0, 2.0, 6.0]), h, 5.0)
    with pytest.raises(ValueError):
        Scan(ORIGIN, r, h, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Scan(ORIGIN, r, h, bad)


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------

def column_grid():
    # one column of three cells straight ahead: centers x = 5.8, 4.8, 3.8
    return GridSpec(1, 3, 1.0, origin=(5.8, 0.0), frame="world")


def blocked_scan():
    scene = (unit_square(5.0, 0.0),)
    return raycast_scan(scene, ORIGIN, n_beams=360, max_range=50.0)


def test_all_miss_scan_leaves_everything_visible():
    spec = GridSpec(3, 3, 1.0, origin=(5.0, 1.0), frame="world")
    scan = raycast_scan((), ORIGIN, n_beams=360, max_range=50.0)
    assert not visibility_mask(scan, spec)[0].any()


def test_shadow_starts_half_cell_behind_hit():
    mask = visibility_mask(blocked_scan(), column_grid())[0]
    # hit range 4.5: cell at 5.8 is shadowed, 4.8 holds the surface, 3.8 is in front
    assert mask.tolist() == [True, False, False]


def test_cell_nearer_than_every_hit_is_visible():
    scene = (unit_square(10.0, 0.0),)
    scan = raycast_scan(scene, ORIGIN, n_beams=360, max_range=50.0)
    spec = GridSpec(3, 3, 1.0, origin=(6.0, 1.0), frame="world")
    assert not visibility_mask(scan, spec)[0].any()


def test_beyond_max_range_is_occluded():
    scan = raycast_scan((), ORIGIN, n_beams=360, max_range=5.0)
    spec = GridSpec(1, 2, 1.0, origin=(6.0, 0.0), frame="world")
    mask = visibility_mask(scan, spec)[0]
    # 6.0 > max_range, 5.0 == max_range
    assert mask.tolist() == [True, False]


def test_visibility_matches_rule_oracle_on_random_scenes():
    rng = np.random.default_rng(88)
    for _ in range(15):
        scene, ego, spec = random_occlusion_scene(rng)
        scan = raycast_scan(scene, ego, n_beams=360, max_range=50.0)
        _, _, coarse = dense_resampled_scan(scene, ego, 360, 50.0, density=1)
        want = rule_visibility_mask(spec, ego, coarse, 50.0)
        assert np.array_equal(visibility_mask(scan, spec)[0], want)


def _nearest_beam_by_argmin(theta: float, n: int) -> int:
    """Index of the beam 2*pi*i/n at the least angular distance from theta."""
    d = np.abs(theta - 2.0 * math.pi * np.arange(n) / n)
    return int(np.argmin(np.minimum(d, 2.0 * math.pi - d)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 120, 360])
def test_nearest_beam_matches_argmin_over_bearings(n):
    # Only the argmin beam hits, at a range every checked cell lies beyond:
    # the cell is occluded exactly when the rule judges it by that beam.
    rng = np.random.default_rng(n)
    spacing = 2.0 * math.pi / n
    for _ in range(20):
        ex, ey = ego = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        spec = GridSpec(6, 7, 1.0, (ex + rng.uniform(-12, 12), ey + rng.uniform(-12, 12)), "world")
        checked = 0
        for i in range(spec.n_cells):
            cx, cy = cell_center(spec, *col_row(spec, i))
            if math.hypot(cx - ex, cy - ey) < 1.0:
                continue
            theta = math.atan2(cy - ey, cx - ex) % (2.0 * math.pi)
            frac = theta / spacing - math.floor(theta / spacing)
            if abs(frac - 0.5) < 1e-6:
                continue  # near a midpoint the two nearest beams tie
            beam = _nearest_beam_by_argmin(theta, n)
            hits = np.arange(n) == beam
            scan = Scan(ego, np.where(hits, 0.1, 50.0), hits, 50.0)
            assert visibility_mask(scan, spec)[0][i], (n, i, theta)
            checked += 1
        assert checked > 0


def test_midpoint_cell_takes_the_even_beam():
    # Four beams at 0, 90, 180 and 270 degrees; the cells of this 2 x 2 grid
    # sit at 45, 135, 225 and 315 degrees, exactly midway between two beams.
    # Only the even beams hit, so rounding half to even occludes every cell
    # (rounding half up would judge the 45 and 225 degree cells by a miss).
    spec = GridSpec(2, 2, 2.0, origin=(1.0, 1.0), frame="world")
    hits = np.array([True, False, True, False])
    scan = Scan(ORIGIN, np.where(hits, 0.1, 5.0), hits, 5.0)
    assert visibility_mask(scan, spec)[0].tolist() == [True, True, True, True]


def test_occlusion_monotone_in_obstacle_size():
    rng = np.random.default_rng(9)
    for _ in range(10):
        scene, ego, spec = random_occlusion_scene(rng)
        if not scene:
            continue
        prev = None
        for scale in (1.0, 1.2, 1.5):
            grown = [
                Obstacle(o.center, (o.half_extents[0] * scale, o.half_extents[1] * scale))
                for o in scene
            ]
            mask = visibility_mask(raycast_scan(grown, ego, 360, 50.0), spec)[0]
            if prev is not None:
                assert np.all(~prev | mask)  # previously occluded -> still occluded
            prev = mask


# ---------------------------------------------------------------------------
# inverse-sensor update
# ---------------------------------------------------------------------------

def test_update_moves_observed_cells_and_freezes_occluded():
    spec = column_grid()
    base = new_uniform_grid(spec)
    updated = standard_inverse_update(base, *visibility_mask(blocked_scan(), spec))
    assert updated.probs[0] == 0.5           # shadowed: prior retained exactly
    assert updated.probs[1] == pytest.approx(0.9)   # struck surface
    assert updated.probs[2] == pytest.approx(0.2)   # traversed
    assert np.all(base.probs == 0.5)         # input untouched


def test_update_free_everywhere_on_empty_scene():
    spec = GridSpec(3, 3, 1.0, origin=(5.0, 1.0), frame="world")
    scan = raycast_scan((), ORIGIN, n_beams=360, max_range=50.0)
    updated = standard_inverse_update(new_uniform_grid(spec), *visibility_mask(scan, spec))
    assert np.all(updated.probs < 0.5)
    np.testing.assert_allclose(updated.probs, 0.2)


def test_occluded_cells_keep_arbitrary_prior_exactly():
    rng = np.random.default_rng(3)
    for _ in range(10):
        scene, ego, spec = random_occlusion_scene(rng)
        scan = raycast_scan(scene, ego, 360, 50.0)
        occluded, hit = visibility_mask(scan, spec)
        grid = new_uniform_grid(spec)
        grid.probs[:] = rng.uniform(0.01, 0.99, spec.n_cells)
        updated = standard_inverse_update(grid, occluded, hit)
        assert np.array_equal(updated.probs[occluded], grid.probs[occluded])
        assert not np.any(updated.probs[~occluded] == grid.probs[~occluded])


@pytest.mark.parametrize("occluded_shape,hit_shape", [
    ((3,), (2,)),      # the masks differ in shape
    ((2,), (2,)),      # both miss a cell of the 3-cell grid
    ((2, 4), (2, 4)),  # a stack of frames with one cell too many
    ((2, 3), (3,)),    # a stack against one frame
])
def test_update_rejects_masks_of_the_wrong_shape(occluded_shape, hit_shape):
    grid = new_uniform_grid(column_grid())
    with pytest.raises(ValueError, match="masks must share one shape"):
        standard_inverse_update(grid, np.zeros(occluded_shape, bool), np.zeros(hit_shape, bool))
