"""Occupancy-grid data model and per-cell Bayesian updates.

The map is a factorized Bernoulli field: each cell carries an independent
occupancy probability, and the joint probability of a full binary map is
the product of its per-cell terms.  All operations here are pure functions
over value-semantic data; updates return new grids.

Grids and maps hold one frame as an ``(n_cells,)`` array or a stack of F
frames as an ``(F, n_cells)`` array; every operation here works on either
and checks its inputs once per call, so a single frame is the F = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SpecMismatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .behavior import LikelihoodTable

#: Guard for divisions; denominators below this are treated as degenerate.
DIVISION_EPS = 1e-12

#: Occupancy probability of a cell nobody has observed yet.
UNIFORM_PRIOR = 0.5


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a fixed 2D occupancy grid.

    Cells are addressed as ``(col, row)`` and stored row-major, so the flat
    index of a cell is ``row * width_cells + col``.  The layout follows the
    vehicle-ahead convention: when the grid is anchored to a vehicle facing
    +x, rows advance toward the vehicle (the highest row sits directly in
    front of the bumper) and columns advance to the vehicle's right (the -y
    direction).  ``origin`` is the position of the center of cell (0, 0) in
    the coordinate frame named by ``frame``; its two coordinates may be
    ``(F,)`` arrays, one origin per frame of a stack.

    Attributes:
        width_cells: number of columns (lateral extent).
        height_cells: number of rows (longitudinal extent).
        resolution: cell edge length in meters.
        origin: world position of the center of cell (0, 0).
        frame: identifier of the anchoring frame ("world", "occluder", "ego").
    """

    width_cells: int
    height_cells: int
    resolution: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)
    frame: str = "world"

    def __post_init__(self) -> None:
        if self.width_cells < 1 or self.height_cells < 1:
            raise ValueError(
                f"grid must contain at least one cell, got {self.width_cells}x{self.height_cells}"
            )
        if not (self.resolution > 0.0):
            raise ValueError(f"resolution must be positive, got {self.resolution}")

    @property
    def n_cells(self) -> int:
        return self.width_cells * self.height_cells

    def cell_centers(self) -> np.ndarray:
        """(n_cells, 2) cell-center positions in flat-index order, or
        (F, n_cells, 2) for a spec with one origin per frame."""
        cols, rows = self.cell_coords().T
        ox, oy = (np.asarray(o, dtype=float)[..., None] for o in self.origin)
        return np.stack(np.broadcast_arrays(ox - rows * self.resolution, oy - cols * self.resolution), axis=-1)

    def cell_coords(self) -> np.ndarray:
        """(n_cells, 2) integer (col, row) coordinates in flat-index order."""
        cols = np.arange(self.n_cells) % self.width_cells
        rows = np.arange(self.n_cells) // self.width_cells
        return np.column_stack((cols, rows))

    def layout_matches(self, other: "GridSpec") -> bool:
        """True when two specs index the same abstract cell layout.

        Origins may differ: a vehicle-anchored layout is re-anchored every
        frame, which moves the origin without changing what cell i means.
        """
        return (
            self.width_cells == other.width_cells
            and self.height_cells == other.height_cells
            and abs(self.resolution - other.resolution) < 1e-12
            and self.frame == other.frame
        )

    def to_dict(self) -> dict:
        return {
            "width_cells": self.width_cells,
            "height_cells": self.height_cells,
            "resolution": self.resolution,
            "origin": [self.origin[0], self.origin[1]],
            "frame": self.frame,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(
            width_cells=int(d["width_cells"]),
            height_cells=int(d["height_cells"]),
            resolution=float(d["resolution"]),
            origin=(float(d["origin"][0]), float(d["origin"][1])),
            frame=str(d["frame"]),
        )


@dataclass
class OccupancyGrid:
    """Per-cell occupancy probabilities over a :class:`GridSpec`, for one
    frame ``(n_cells,)`` or a stack of frames ``(F, n_cells)``."""

    spec: GridSpec
    probs: np.ndarray

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim not in (1, 2) or self.probs.shape[-1] != self.spec.n_cells:
            raise ValueError(
                f"expected {self.spec.n_cells} probabilities, got shape {self.probs.shape}"
            )
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("occupancy probabilities must be finite")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise ValueError("occupancy probabilities must lie in [0, 1]")


@dataclass
class BinaryMap:
    """A hard {0, 1} occupancy assignment over a :class:`GridSpec`, for one
    frame ``(n_cells,)`` or a stack of frames ``(F, n_cells)``.  Cells are
    stored as ``uint8``; a bool mask is taken as a view, without a copy."""

    spec: GridSpec
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim not in (1, 2) or cells.shape[-1] != self.spec.n_cells:
            raise ValueError(f"expected {self.spec.n_cells} cells, got shape {cells.shape}")
        if cells.dtype == bool:
            self.cells = cells.view(np.uint8)
            return
        # Check the values as given: a cast first would turn 0.5 or 256 into 0.
        if not np.all((cells == 0) | (cells == 1)):
            raise ValueError("binary map cells must be 0 or 1")
        self.cells = cells.astype(np.uint8, copy=False)


def new_uniform_grid(spec: GridSpec) -> OccupancyGrid:
    """Grid with every cell at the uninformed prior of 0.5."""
    return OccupancyGrid(spec, np.full(spec.n_cells, UNIFORM_PRIOR))


def bayes_cell_update(prior, lik_occupied, lik_free):
    """Per-cell Bayes update from an observation likelihood pair.

    Works elementwise on scalars or arrays of cells; each cell is updated
    independently.

    Args:
        prior: current occupancy probability of each cell, in [0, 1].
        lik_occupied: likelihood of the observation given the cell occupied.
        lik_free: likelihood of the observation given the cell free.

    Returns:
        The posterior ``lik_occupied * prior / (lik_occupied * prior +
        lik_free * (1 - prior))``.

    Raises:
        ValueError: on out-of-range inputs, or when both weighted
            likelihoods vanish and a cell's posterior is undefined.
    """
    prior = np.asarray(prior, dtype=float)
    if not np.all((prior >= 0.0) & (prior <= 1.0)):
        raise ValueError(f"prior must lie in [0, 1], got {prior}")
    if np.any(np.asarray(lik_occupied) < 0.0) or np.any(np.asarray(lik_free) < 0.0):
        raise ValueError("likelihoods must be nonnegative")
    denom = lik_occupied * prior + lik_free * (1.0 - prior)
    if np.any(denom < DIVISION_EPS):
        raise ValueError(
            f"degenerate update at cell {int(np.argmin(denom))}: both weighted likelihoods are zero"
        )
    return lik_occupied * prior / denom


def fuse_action(grid: OccupancyGrid, table: "LikelihoodTable", action) -> OccupancyGrid:
    """Fuse one observed driver action per frame into every cell of the grid.

    ``action`` is one actionlet index, or an ``(F,)`` array of them for a
    stack of F frames.  Each cell is updated independently by
    :func:`bayes_cell_update` with the action-likelihood pair the table
    holds for it.  The input grid is left untouched.
    """
    if not grid.spec.layout_matches(table.spec):
        raise SpecMismatchError(
            f"grid layout {grid.spec} does not match table layout {table.spec}"
        )
    lik_occ, lik_free = table.action_likelihood_arrays(action)
    return OccupancyGrid(grid.spec, bayes_cell_update(grid.probs, lik_occ, lik_free))


def threshold(grid: OccupancyGrid, tau: float) -> BinaryMap:
    """Binarize a grid: cells with probability >= tau become occupied."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {tau}")
    return BinaryMap(grid.spec, grid.probs >= tau)


def joint_map_probability(grid: OccupancyGrid, cells: BinaryMap) -> float:
    """Probability of one full binary realization under the factorized map.

    The map posterior factorizes over cells, so this is the product of
    ``p_i`` where the realization marks cell i occupied and ``1 - p_i``
    where it marks it free.
    """
    if not grid.spec.layout_matches(cells.spec):
        raise SpecMismatchError("grid and realization layouts differ")
    terms = np.where(cells.cells == 1, grid.probs, 1.0 - grid.probs)
    return float(np.prod(terms))
