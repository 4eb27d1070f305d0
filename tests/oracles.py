"""Independent reference implementations the tests check the library against.

Everything here is written with different algorithms (and mostly different
numerics) than the package: exhaustive enumeration instead of factorized
updates, double loops instead of vectorized minima, segment-by-segment ray
clipping instead of slab tests.  Slow and obviously correct.
"""

import math

import numpy as np

from occlusense.grid import BinaryMap, GridSpec, joint_map_probability
from occlusense.perception import Obstacle


# ---------------------------------------------------------------------------
# Cell addressing and rectangle corners, one value at a time.
# ---------------------------------------------------------------------------

def cell_index(spec: GridSpec, col: int, row: int) -> int:
    """Flat index of cell (col, row): cells are stored row-major."""
    if not (0 <= col < spec.width_cells and 0 <= row < spec.height_cells):
        raise IndexError(f"cell ({col}, {row}) outside {spec.width_cells}x{spec.height_cells} grid")
    return row * spec.width_cells + col


def col_row(spec: GridSpec, index: int) -> tuple[int, int]:
    """Inverse of :func:`cell_index`."""
    if not (0 <= index < spec.n_cells):
        raise IndexError(f"index {index} outside grid with {spec.n_cells} cells")
    return index % spec.width_cells, index // spec.width_cells


def cell_center(spec: GridSpec, col: int, row: int) -> tuple[float, float]:
    """World position of a cell center (rows step along -x, columns along -y)."""
    ox, oy = spec.origin
    return ox - row * spec.resolution, oy - col * spec.resolution


def obstacle_corners(rect: Obstacle) -> np.ndarray:
    """(4, 2) corner positions, counter-clockwise; (F, 4, 2) for (F,)
    center coordinates."""
    hx, hy = rect.half_extents
    local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
    center = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in rect.center)), axis=-1)
    return local + center[..., None, :]


# ---------------------------------------------------------------------------
# Bayes fusion by full enumeration.
# ---------------------------------------------------------------------------

def enumeration_fused_posterior(grid, table, action: int) -> np.ndarray:
    """Per-cell occupancy posterior over all 2^n joint realizations.

    The joint prior factorizes over cells; the action likelihood of a full
    realization is the product of per-cell action likelihoods.  Summing
    realization posteriors per cell gives the marginal that fuse_action is
    supposed to compute in closed form.
    """
    n = grid.spec.n_cells
    lik_occ, lik_free = table.action_likelihood_arrays(action)
    probs = grid.probs
    masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # (2^n, n)
    prior = np.prod(np.where(masks == 1, probs, 1.0 - probs), axis=1)
    lik = np.prod(np.where(masks == 1, lik_occ, lik_free), axis=1)
    weight = prior * lik
    return (weight[:, None] * masks).sum(axis=0) / weight.sum()


def enumeration_prior_check(grid, n_probes: int, rng: np.random.Generator) -> None:
    """Spot-check that the enumeration's factorized prior matches
    joint_map_probability on random realizations (the Eq.-2 anchor)."""
    n = grid.spec.n_cells
    probs = grid.probs
    for _ in range(n_probes):
        bits = rng.integers(0, 2, size=n)
        direct = float(np.prod(np.where(bits == 1, probs, 1.0 - probs)))
        via_map = joint_map_probability(grid, BinaryMap(grid.spec, bits))
        assert direct == via_map


# ---------------------------------------------------------------------------
# Image similarity by double loop.
# ---------------------------------------------------------------------------

def brute_force_directed(a: BinaryMap, b: BinaryMap, c: int, mask=None) -> float:
    spec = a.spec
    included = [mask is None or bool(mask[i]) for i in range(spec.n_cells)]
    src = [col_row(spec, i) for i in range(spec.n_cells) if a.cells[i] == c and included[i]]
    dst = [col_row(spec, j) for j in range(spec.n_cells) if b.cells[j] == c and included[j]]
    if not src:
        return 0.0
    diameter = float(spec.width_cells + spec.height_cells)
    total = 0.0
    for (ci, ri) in src:
        best = diameter
        for (cj, rj) in dst:
            d = abs(ci - cj) + abs(ri - rj)
            if d < best:
                best = d
        total += best
    return total / len(src)


def brute_force_psi(a: BinaryMap, b: BinaryMap, mask=None) -> float:
    return math.fsum(
        brute_force_directed(x, y, c, mask)
        for c in (0, 1)
        for (x, y) in ((a, b), (b, a))
    )


# ---------------------------------------------------------------------------
# Ray casting by segment clipping (for the visibility oracle).
# ---------------------------------------------------------------------------

def _seg_ray_t(ox, oy, dx, dy, ax, ay, bx, by):
    """Smallest t >= 0 where origin + t*(dx,dy) crosses segment AB, or inf."""
    ex, ey = bx - ax, by - ay
    denom = dx * ey - dy * ex
    if abs(denom) < 1e-15:
        return math.inf
    qx, qy = ax - ox, ay - oy
    t = (qx * ey - qy * ex) / denom
    s = (qx * dy - qy * dx) / denom
    if t >= 0.0 and 0.0 <= s <= 1.0:
        return t
    return math.inf


def dense_ray_range(scene: tuple[Obstacle, ...], ego: tuple[float, float], bearing: float, max_range: float):
    """(range, hit) along one exact bearing, via per-edge intersection."""
    ex, ey = ego
    dx = math.cos(bearing)
    dy = math.sin(bearing)
    best = math.inf
    for obs in scene:
        corners = obstacle_corners(obs)
        for i in range(4):
            ax, ay = corners[i]
            bx, by = corners[(i + 1) % 4]
            t = _seg_ray_t(ex, ey, dx, dy, ax, ay, bx, by)
            if t < best:
                best = t
    if best <= max_range:
        return best, True
    return max_range, False


def dense_resampled_scan(scene: tuple[Obstacle, ...], ego: tuple[float, float], n_beams: int,
                         max_range: float, density: int = 10):
    """Cast rays at ``density`` x the beam count; return the full dense field
    plus the sensor's own bearings re-derived from it.

    Every ``density``-th dense bearing coincides with a sensor bearing, so
    subsampling the dense field reproduces what the sensor should report.
    """
    n_dense = n_beams * density
    dense_ranges = np.empty(n_dense)
    dense_hits = np.empty(n_dense, dtype=bool)
    for j in range(n_dense):
        bearing = 2.0 * math.pi * j / n_dense
        dense_ranges[j], dense_hits[j] = dense_ray_range(scene, ego, bearing, max_range)
    coarse = {
        "bearings": 2.0 * math.pi * np.arange(n_beams) / n_beams,
        "ranges": dense_ranges[::density].copy(),
        "hits": dense_hits[::density].copy(),
    }
    return dense_ranges, dense_hits, coarse


def cell_sensor_geometry(spec: GridSpec, ego: tuple[float, float], col: int, row: int):
    """(range, bearing in [0, 2pi)) of a cell center, by scalar math."""
    cx, cy = cell_center(spec, col, row)
    sx, sy = cx - ego[0], cy - ego[1]
    return math.sqrt(sx * sx + sy * sy), math.atan2(sy, sx) % (2.0 * math.pi)


def rule_visibility_mask(spec: GridSpec, ego: tuple[float, float], coarse: dict, max_range: float) -> np.ndarray:
    """Occlusion labels from re-derived beams: nearest beam by bearing, a
    cell is occluded beyond hit + half a cell, or beyond max_range."""
    n = len(coarse["bearings"])
    res = spec.resolution
    out = np.zeros(spec.n_cells, dtype=bool)
    for row in range(spec.height_cells):
        for col in range(spec.width_cells):
            r_cell, theta = cell_sensor_geometry(spec, ego, col, row)
            idx = int(round(theta / (2.0 * math.pi / n))) % n
            if coarse["hits"][idx]:
                occluded = r_cell > coarse["ranges"][idx] + res / 2.0
            else:
                occluded = r_cell > max_range
            out[cell_index(spec, col, row)] = occluded
    return out


def random_occlusion_scene(rng: np.random.Generator):
    """A randomized <=3-obstacle scene, ego position, and nearby world grid."""
    ex, ey = ego = (rng.uniform(-5, 5), rng.uniform(-5, 5))
    obstacles = []
    for _ in range(int(rng.integers(0, 4))):
        r = rng.uniform(5.0, 25.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        obstacles.append(Obstacle(
            center=(ex + r * math.cos(phi), ey + r * math.sin(phi)),
            half_extents=(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)),
        ))
    gr = rng.uniform(4.0, 15.0)
    gphi = rng.uniform(0.0, 2.0 * math.pi)
    spec = GridSpec(6, 7, 1.0,
                    (ex + gr * math.cos(gphi), ey + gr * math.sin(gphi)),
                    "world")
    return tuple(obstacles), ego, spec


# ---------------------------------------------------------------------------
# Random likelihood tables for fusion tests.
# ---------------------------------------------------------------------------

def random_likelihood_table(spec: GridSpec, n_actions: int, rng: np.random.Generator):
    """Well-conditioned random table: strictly positive, sums to 1 per
    (cell, state)."""
    from occlusense.behavior import LikelihoodTable

    raw = rng.uniform(0.05, 1.0, size=(spec.n_cells, n_actions, 2))
    entries = raw / raw.sum(axis=1, keepdims=True)
    counts = rng.integers(0, 50, size=(spec.n_cells, 2))
    return LikelihoodTable(spec, entries, counts, alpha=1.0)


# ---------------------------------------------------------------------------
# psi summary by a loop over per-episode series.
# ---------------------------------------------------------------------------

def looped_similarity_summary(episodes: list[list[tuple[float, float]]]) -> dict:
    """The psi summary of per-episode (t, psi) series, one episode at a time.

    Each episode's mid probe is found by a scan that keeps the first of
    equally near frames.  Means and SEs come from ``mean_and_se`` on lists.
    """
    from occlusense.metrics import mean_and_se

    episodes = [series for series in episodes if series]
    probes = {"t0": [], "mid": [], "end": []}
    for series in episodes:
        mid_t = 0.5 * (series[0][0] + series[-1][0])
        best = series[0]
        for t, psi in series:
            if abs(t - mid_t) < abs(best[0] - mid_t):
                best = (t, psi)
        probes["t0"].append(series[0][1])
        probes["mid"].append(best[1])
        probes["end"].append(series[-1][1])
    all_psi = [psi for series in episodes for _, psi in series]
    mean, se = mean_and_se(all_psi)
    summary = {"psi_mean": mean, "psi_se": se, "n_frames": len(all_psi), "probes": {}}
    for key, values in probes.items():
        m, s = mean_and_se(values)
        summary["probes"][key] = {"mean": m, "se": s, "n": len(values)}
    return summary


# ---------------------------------------------------------------------------
# Ray casting by the full sweep: every beam against every rectangle.
# ---------------------------------------------------------------------------

def _full_sweep_rectangle_t(ox, oy, dx, dy, rect: Obstacle) -> np.ndarray:
    """The slab test on every (frame, beam) pair: per-frame origin columns
    ``ox, oy`` against the (n_beams,) directions ``dx, dy``."""
    o0 = ox - np.asarray(rect.center[0], dtype=float)[..., None]
    o1 = oy - np.asarray(rect.center[1], dtype=float)[..., None]

    hx, hy = rect.half_extents
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tx1 = (-hx - o0) / dx
        tx2 = (hx - o0) / dx
        ty1 = (-hy - o1) / dy
        ty2 = (hy - o1) / dy
    tx_lo, tx_hi = np.minimum(tx1, tx2), np.maximum(tx1, tx2)
    ty_lo, ty_hi = np.minimum(ty1, ty2), np.maximum(ty1, ty2)
    # Beams parallel to a slab axis: inside the slab -> (-inf, inf), else miss.
    for lo, hi, parallel, inside in ((tx_lo, tx_hi, dx == 0.0, np.abs(o0) <= hx),
                                     (ty_lo, ty_hi, dy == 0.0, np.abs(o1) <= hy)):
        lo[..., parallel] = np.where(inside, -np.inf, np.inf)
        hi[..., parallel] = np.where(inside, np.inf, -np.inf)

    t_enter = np.maximum(tx_lo, ty_lo)
    t_exit = np.minimum(tx_hi, ty_hi)
    valid = (t_exit >= t_enter) & (t_exit >= 0.0)
    return np.where(valid, np.maximum(t_enter, 0.0), np.inf)


def full_sweep_scan(scene: tuple[Obstacle, ...], ego: tuple[float, float], n_beams: int, max_range: float):
    """(ranges, hits) of every beam tested against every rectangle, one
    sweep per frame of a stacked origin or scene."""
    bearings = 2.0 * math.pi * np.arange(n_beams) / n_beams
    dx, dy = np.cos(bearings), np.sin(bearings)
    ox, oy = (np.asarray(c, dtype=float)[..., None] for c in ego)
    t_min = np.full(np.broadcast_shapes(ox.shape, oy.shape, dx.shape), np.inf)
    for rect in scene:
        t_min = np.minimum(t_min, _full_sweep_rectangle_t(ox, oy, dx, dy, rect))
    hits = t_min <= max_range
    return np.where(hits, t_min, max_range), hits
