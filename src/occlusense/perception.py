"""Simulated range sensing and the standard occupancy baseline.

A planar lidar casts n evenly spaced beams against oriented rectangular
obstacles.  Grid cells are then classified visible or occluded by comparing
each cell center's range against the beam nearest to it in bearing, and
visible cells are updated with a fixed inverse sensor model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, OccupancyGrid, bayes_cell_update

#: Inverse sensor model: posterior assigned from a 0.5 prior for a cell the
#: beam terminates in, and for a cell the beam passes through.
P_OCC_UPDATE = 0.9
P_FREE_UPDATE = 0.2

DEFAULT_N_BEAMS = 360
DEFAULT_MAX_RANGE = 50.0

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def _per_frame(coordinate) -> np.ndarray:
    """A scalar or (F,) coordinate as a column that broadcasts against a
    trailing beam or cell axis."""
    return np.asarray(coordinate, dtype=float)[..., None]


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; heading is normalized to (-pi, pi] on construction.

    ``x`` and ``y`` may be (F,) arrays: one position per frame of a stack.
    """

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class Obstacle:
    """Oriented rectangle: center, half extents along its own axes, heading.

    Center coordinates may be (F,) arrays, one position per frame of a
    stack; a NaN center marks a frame the obstacle is absent from, and
    every beam misses it there.
    """

    center: tuple[float, float]
    half_extents: tuple[float, float]
    heading: float = 0.0

    def __post_init__(self) -> None:
        if self.half_extents[0] <= 0.0 or self.half_extents[1] <= 0.0:
            raise ValueError(f"half extents must be positive, got {self.half_extents}")

    def corners(self) -> np.ndarray:
        """(4, 2) world-frame corner positions, counter-clockwise."""
        hx, hy = self.half_extents
        local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
        c, s = math.cos(self.heading), math.sin(self.heading)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.asarray(self.center)


@dataclass(frozen=True)
class SceneGeometry:
    """Static obstacle set for one instant, or for each frame of a stack."""

    obstacles: tuple[Obstacle, ...] = ()

    def __init__(self, obstacles=()):
        object.__setattr__(self, "obstacles", tuple(obstacles))


@dataclass
class Scan:
    """One full sweep of n evenly spaced beams, or one sweep per frame.

    Beam i points at bearing ``2*pi*i/n`` in the sensor frame (relative to
    ``origin``'s heading), so beam 0 looks straight ahead.  ``ranges`` and
    ``hits`` are (n,) for one sweep and (F, n) for a stack.  A beam with
    ``hit`` False traveled to ``max_range`` without striking anything.
    """

    origin: Pose2D
    ranges: np.ndarray
    hits: np.ndarray
    max_range: float

    def __post_init__(self) -> None:
        self.ranges = np.asarray(self.ranges, dtype=float)
        self.hits = np.asarray(self.hits, dtype=bool)
        if self.ranges.ndim == 0 or self.ranges.shape[-1] == 0:
            raise ValueError("scan must contain at least one beam")
        if self.hits.shape != self.ranges.shape:
            raise ValueError("range and hit arrays must share one shape")
        if not (self.max_range > 0.0):
            raise ValueError("max_range must be positive")
        if np.any(self.ranges < 0.0) or np.any(self.ranges > self.max_range + 1e-9):
            raise ValueError("ranges must lie in [0, max_range]")


def _ray_rectangle_t(ox, oy, dx, dy, rect: Obstacle) -> np.ndarray:
    """Smallest nonnegative ray parameter hitting the rectangle, inf on miss.

    Uses the slab test in the rectangle's own frame, elementwise over
    broadcast arrays: ray origins ``ox, oy`` (per-frame columns) and the
    (n_beams,) unit directions ``dx, dy`` every frame shares.  A NaN
    rectangle center compares false everywhere, so the rectangle is missed.
    """
    c, s = math.cos(rect.heading), math.sin(rect.heading)
    vx, vy = ox - _per_frame(rect.center[0]), oy - _per_frame(rect.center[1])
    o0, o1 = c * vx + s * vy, -s * vx + c * vy  # world -> rectangle frame
    d0, d1 = dx * c + dy * s, dx * -s + dy * c

    hx, hy = rect.half_extents
    with np.errstate(divide="ignore", invalid="ignore"):
        tx1 = (-hx - o0) / d0
        tx2 = (hx - o0) / d0
        ty1 = (-hy - o1) / d1
        ty2 = (hy - o1) / d1
    tx_lo, tx_hi = np.minimum(tx1, tx2), np.maximum(tx1, tx2)
    ty_lo, ty_hi = np.minimum(ty1, ty2), np.maximum(ty1, ty2)
    # Beams parallel to a slab axis: inside the slab -> (-inf, inf), else miss.
    for lo, hi, parallel, inside in ((tx_lo, tx_hi, d0 == 0.0, np.abs(o0) <= hx),
                                     (ty_lo, ty_hi, d1 == 0.0, np.abs(o1) <= hy)):
        lo[..., parallel] = np.where(inside, -np.inf, np.inf)
        hi[..., parallel] = np.where(inside, np.inf, -np.inf)

    t_enter = np.maximum(tx_lo, ty_lo)
    t_exit = np.minimum(tx_hi, ty_hi)
    valid = (t_exit >= t_enter) & (t_exit >= 0.0)
    return np.where(valid, np.maximum(t_enter, 0.0), np.inf)


def raycast_scan(
    scene: SceneGeometry,
    ego: Pose2D,
    n_beams: int = DEFAULT_N_BEAMS,
    max_range: float = DEFAULT_MAX_RANGE,
) -> Scan:
    """Cast evenly spaced beams over [0, 2*pi) from the ego pose.

    Each beam reports the nearest rectangle intersection, capped at
    ``max_range``; beams that strike nothing report ``max_range`` with
    ``hit`` False.  A pose or obstacles holding (F,) positions cast one
    sweep per frame in one call.
    """
    if n_beams < 1:
        raise ValueError("need at least one beam")
    bearings = TWO_PI * np.arange(n_beams) / n_beams
    world_angles = ego.heading + bearings
    dx, dy = np.cos(world_angles), np.sin(world_angles)
    ox, oy = _per_frame(ego.x), _per_frame(ego.y)
    t_min = np.full(np.broadcast_shapes(ox.shape, oy.shape, dx.shape), np.inf)
    for rect in scene.obstacles:
        t_min = np.minimum(t_min, _ray_rectangle_t(ox, oy, dx, dy, rect))
    hits = t_min <= max_range
    ranges = np.where(hits, t_min, max_range)
    return Scan(ego, ranges, hits, max_range)


def _classify_cells(scan: Scan, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The occlusion rule: (occluded, hit) masks over flat cell indices.

    Each cell is judged by the beam nearest its bearing: beam
    ``rint(bearing / (2*pi/n)) mod n``, which rounds half to even, so a
    cell exactly midway between two beams takes the even-numbered one.  A
    cell is occluded when that beam terminated on an obstacle more than
    half a cell nearer than the cell center, or when it missed and the cell
    lies beyond the sensor's maximum range.  A cell is hit when its beam
    terminated within half a cell of its center (the cell holding the struck
    surface itself counts as observed).  Masks are (F, n_cells) for a stack
    of F frames.
    """
    n = scan.ranges.shape[-1]
    centers = spec.cell_centers()
    dx = centers[..., 0] - _per_frame(scan.origin.x)
    dy = centers[..., 1] - _per_frame(scan.origin.y)
    cell_range = np.hypot(dx, dy)
    cell_bearing = np.mod(np.arctan2(dy, dx) - scan.origin.heading, TWO_PI)
    nearest = np.rint(cell_bearing / (TWO_PI / n)).astype(np.intp) % n
    beam_range = np.take_along_axis(scan.ranges, nearest, axis=-1)
    beam_hit = np.take_along_axis(scan.hits, nearest, axis=-1)

    half = spec.resolution / 2.0
    behind_hit = beam_hit & (cell_range > beam_range + half)
    beyond_range = ~beam_hit & (cell_range > scan.max_range)
    hit = beam_hit & (np.abs(cell_range - beam_range) <= half)
    return behind_hit | beyond_range, hit


def visibility_mask(scan: Scan, spec: GridSpec) -> np.ndarray:
    """Boolean occluded-mask over flat cell indices (True = occluded)."""
    return _classify_cells(scan, spec)[0]


def standard_inverse_update(grid: OccupancyGrid, scan: Scan) -> OccupancyGrid:
    """Classical inverse-sensor update of every directly observed cell.

    Cells a beam passes through get the free update ``P_FREE_UPDATE``, the
    cell the beam terminates in gets the occupied update ``P_OCC_UPDATE``,
    and occluded cells (exactly those flagged by :func:`visibility_mask`)
    keep their prior untouched.  The update constants are the posterior a
    0.5-prior cell would take, i.e. the cell is updated with likelihood pair
    (p, 1 - p).  A one-frame prior serves as the prior of every frame of a
    stacked scan.
    """
    occluded, hit = _classify_cells(scan, grid.spec)
    free = ~occluded & ~hit
    p = np.broadcast_to(grid.probs, occluded.shape).copy()
    p[free] = bayes_cell_update(p[free], P_FREE_UPDATE, 1.0 - P_FREE_UPDATE)
    p[hit] = bayes_cell_update(p[hit], P_OCC_UPDATE, 1.0 - P_OCC_UPDATE)
    return OccupancyGrid(grid.spec, p)
