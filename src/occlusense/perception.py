"""Simulated range sensing and the standard occupancy baseline.

A planar lidar at an ``(x, y)`` origin casts n evenly spaced beams, beam 0
along +x (the road direction), against a tuple of axis-aligned rectangular
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

TWO_PI = 2.0 * math.pi


def _per_frame(coordinate) -> np.ndarray:
    """A scalar or (F,) coordinate as a column that broadcasts against a
    trailing beam or cell axis."""
    return np.asarray(coordinate, dtype=float)[..., None]


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangle: ``(x, y)`` center, half extents along x and y.

    A scene is a tuple of obstacles.  Center coordinates may be (F,) arrays,
    one position per frame of a stack; a NaN center marks a frame the
    obstacle is absent from, and every beam misses it there.
    """

    center: tuple[float, float]
    half_extents: tuple[float, float]

    def __post_init__(self) -> None:
        if self.half_extents[0] <= 0.0 or self.half_extents[1] <= 0.0:
            raise ValueError(f"half extents must be positive, got {self.half_extents}")


@dataclass
class Scan:
    """One full sweep of n evenly spaced beams, or one sweep per frame.

    Beam i points at bearing ``2*pi*i/n``, measured from +x, so beam 0
    looks straight ahead along the road.  ``origin`` is the sensor's
    ``(x, y)``, scalars or (F,) arrays as in ``Obstacle.center``.
    ``ranges`` and ``hits`` are (n,) for one sweep and (F, n) for a stack.
    A beam with ``hit`` False traveled to ``max_range`` without striking
    anything.
    """

    origin: tuple[float, float]
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
        if not (0.0 < self.max_range < math.inf):
            raise ValueError("max_range must be positive and finite")
        if np.any(self.ranges < 0.0) or np.any(self.ranges > self.max_range + 1e-9):
            raise ValueError("ranges must lie in [0, max_range]")


def _slab(o, d, h):
    """Entry and exit ray parameters of the slab |u| <= h along one axis,
    elementwise over origins ``o`` and direction components ``d``.  A ray
    parallel to the slab lies inside it for every t or for none."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (-h - o) / d
        t2 = (h - o) / d
    parallel = d == 0.0
    inside = np.where(np.abs(o) <= h, -np.inf, np.inf)
    return np.where(parallel, inside, np.minimum(t1, t2)), np.where(parallel, -inside, np.maximum(t1, t2))


def _ray_rectangle_t(o0, o1, d0, d1, rect: Obstacle) -> np.ndarray:
    """Smallest nonnegative ray parameter hitting the rectangle, inf on miss.

    The slab test (Kay & Kajiya 1986) on the axis-aligned rectangle,
    elementwise over ray origins ``o0, o1`` taken relative to its center
    and unit directions ``d0, d1``.  A NaN origin compares false
    everywhere, so the rectangle is missed.
    """
    hx, hy = rect.half_extents
    tx_lo, tx_hi = _slab(o0, d0, hx)
    ty_lo, ty_hi = _slab(o1, d1, hy)
    t_enter = np.maximum(tx_lo, ty_lo)
    t_exit = np.minimum(tx_hi, ty_hi)
    valid = (t_exit >= t_enter) & (t_exit >= 0.0)
    return np.where(valid, np.maximum(t_enter, 0.0), np.inf)


def _bearing_windows(o0, o1, rect: Obstacle, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First beam and beam count of the beams each frame can hit the
    rectangle with, from (F,) ray origins ``o0, o1`` relative to its center.

    The window spans the bearings of the four corners seen from the origin,
    widened by one beam on each side to absorb rounding.  Seen from outside,
    every corner lies less than pi from the center's bearing, so the corners
    are measured about it.  A frame whose origin lies inside or on the
    rectangle gets all n beams, and one with a NaN origin none.

    The corners are (+-hx, +-hy) relative to the rectangle's center, about
    the very origins the slab test uses.  World-frame corners round
    differently: with the origin on a corner, a window built from them can
    leave out beams the slab test hits.
    """
    hx, hy = rect.half_extents
    step = TWO_PI / n
    center = np.arctan2(-o1, -o0)[:, None]
    corner = np.arctan2(np.array([hy, hy, -hy, -hy]) - o1[:, None], np.array([hx, -hx, -hx, hx]) - o0[:, None])
    about = np.mod(corner - center + math.pi, TWO_PI) - math.pi
    first = np.ceil((center[:, 0] + about.min(axis=1)) / step) - 1.0
    count = np.floor((center[:, 0] + about.max(axis=1)) / step) + 2.0 - first
    full = ((np.abs(o0) <= hx) & (np.abs(o1) <= hy)) | (count >= n)
    absent = np.isnan(count) & ~full
    first = np.where(full | absent, 0.0, first).astype(np.intp)
    count = np.where(full, n, np.where(absent, 0.0, count)).astype(np.intp)
    return first, count


def raycast_scan(obstacles: tuple[Obstacle, ...], origin: tuple[float, float], n_beams: int,
                 max_range: float) -> Scan:
    """Cast evenly spaced beams over [0, 2*pi) from the ``(x, y)`` origin.

    Each beam reports the nearest intersection with any of ``obstacles``,
    capped at ``max_range``; beams that strike nothing report ``max_range``
    with ``hit`` False.  An origin or obstacles holding (F,) positions cast
    one sweep per frame in one call.  Each rectangle is tested only on the
    (frame, beam) pairs inside its bearing window; every other beam misses
    it.
    """
    if n_beams < 1:
        raise ValueError("need at least one beam")
    bearings = TWO_PI * np.arange(n_beams) / n_beams
    dx, dy = np.cos(bearings), np.sin(bearings)
    frames = np.broadcast_shapes(*(np.shape(c) for c in origin),
                                 *(np.shape(c) for rect in obstacles for c in rect.center))
    n_frames = math.prod(frames)

    def flat(coordinate) -> np.ndarray:
        return np.broadcast_to(np.asarray(coordinate, dtype=float), frames).reshape(n_frames)

    ox, oy = (flat(c) for c in origin)
    t_min = np.full(n_frames * n_beams, np.inf)
    for rect in obstacles:
        o0, o1 = ox - flat(rect.center[0]), oy - flat(rect.center[1])
        first, count = _bearing_windows(o0, o1, rect, n_beams)
        # Each frame's candidates are `count` consecutive beams from `first`, wrapping at n.
        frame = np.repeat(np.arange(n_frames), count)
        beam = (np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(frame))) % n_beams
        pair = frame * n_beams + beam
        t_min[pair] = np.minimum(t_min[pair], _ray_rectangle_t(o0[frame], o1[frame], dx[beam], dy[beam], rect))
    t_min = t_min.reshape(*frames, n_beams)
    hits = t_min <= max_range
    ranges = np.where(hits, t_min, max_range)
    return Scan(origin, ranges, hits, max_range)


def visibility_mask(scan: Scan, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
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
    ox, oy = scan.origin
    dx = centers[..., 0] - _per_frame(ox)
    dy = centers[..., 1] - _per_frame(oy)
    cell_range = np.hypot(dx, dy)
    cell_bearing = np.mod(np.arctan2(dy, dx), TWO_PI)
    nearest = np.rint(cell_bearing / (TWO_PI / n)).astype(np.intp) % n
    beam_range = np.take_along_axis(scan.ranges, nearest, axis=-1)
    beam_hit = np.take_along_axis(scan.hits, nearest, axis=-1)

    half = spec.resolution / 2.0
    behind_hit = beam_hit & (cell_range > beam_range + half)
    beyond_range = ~beam_hit & (cell_range > scan.max_range)
    hit = beam_hit & (np.abs(cell_range - beam_range) <= half)
    return behind_hit | beyond_range, hit


def standard_inverse_update(grid: OccupancyGrid, occluded: np.ndarray, hit: np.ndarray) -> OccupancyGrid:
    """Classical inverse-sensor update of every directly observed cell.

    ``occluded`` and ``hit`` are the masks :func:`visibility_mask` gives
    for the grid's frames.  Cells a beam passes through (neither occluded
    nor hit) get the free update ``P_FREE_UPDATE``, the cell the beam
    terminates in gets the occupied update ``P_OCC_UPDATE``, and occluded
    cells keep their prior untouched.  The update constants are the
    posterior a 0.5-prior cell would take, i.e. the cell is updated with
    likelihood pair (p, 1 - p).  A one-frame prior serves as the prior of
    every frame of stacked masks.
    """
    if occluded.shape != hit.shape or occluded.shape[-1:] != (grid.spec.n_cells,):
        raise ValueError(f"occluded and hit masks must share one shape ending in {grid.spec.n_cells} cells, "
                         f"got {occluded.shape} and {hit.shape}")
    free = ~occluded & ~hit
    p = np.broadcast_to(grid.probs, occluded.shape).copy()
    p[free] = bayes_cell_update(p[free], P_FREE_UPDATE, 1.0 - P_FREE_UPDATE)
    p[hit] = bayes_cell_update(p[hit], P_OCC_UPDATE, 1.0 - P_OCC_UPDATE)
    return OccupancyGrid(grid.spec, p)
