"""Map similarity and evaluation metrics.

The headline score compares two binary maps by a symmetric nearest-cell
distance, summed over both occupancy classes.  Distances are Manhattan
distances between integer (col, row) cell coordinates, so the score is in
cell units and 0.0 means the maps agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecMismatchError
from .grid import BinaryMap


@dataclass(frozen=True)
class PairScore:
    """Similarity breakdown for one map pair: psi plus its four terms.

    Floats for one pair of maps; (F,) arrays for a stack of F pairs.
    """

    d_ab_free: float
    d_ab_occ: float
    d_ba_free: float
    d_ba_occ: float
    psi: float


def _l1_distance_transform(targets: np.ndarray) -> np.ndarray:
    """Manhattan distance from every cell to the nearest target cell.

    ``targets`` is a boolean (H, W, S) array of S target sets on an H x W
    grid; a set without targets stays at inf.  Separable (Felzenszwalb &
    Huttenlocher): a forward and a backward min-pass along each grid axis,
    each step one array operation over all S sets.  Every value is an
    integer, so the float arithmetic is exact.
    """
    dist = np.where(np.ascontiguousarray(targets), 0.0, np.inf)  # each pass step: one contiguous block
    for lines in (dist, dist.swapaxes(0, 1)):  # views: the passes update dist
        for i in range(1, len(lines)):
            np.minimum(lines[i], lines[i - 1] + 1.0, out=lines[i])
        for i in range(len(lines) - 2, -1, -1):
            np.minimum(lines[i], lines[i + 1] + 1.0, out=lines[i])
    return dist


def score_pair(a: BinaryMap, b: BinaryMap, mask: np.ndarray | None = None) -> PairScore:
    """Symmetric two-class map distance psi (lower is more similar).

    psi is the sum of four directed terms d(a,b,c) and d(b,a,c), c in {0, 1}.
    d(x,y,c) is the mean Manhattan distance (in cell units) from each
    class-c cell of x to the closest class-c cell of y.  Conventions for
    empty classes:

    * x has no class-c cells: the term is 0.
    * y has no class-c cells: every cell of x pays the grid diameter
      (width + height in cells).

    ``mask`` is an optional boolean include-mask over flat cell indices;
    cells outside it are ignored on both sides.  Maps and mask may be
    (F, n_cells) stacks, scored frame by frame in one call.  The closest
    class-c cell comes from one L1 distance transform of the four target
    sets (both classes of both maps) of every frame (Birk & Carpin's psi).
    Identical maps score 0.0; the score is symmetric in its arguments
    (fsum makes the total independent of term order).
    """
    spec = a.spec
    if not spec.layout_matches(b.spec):
        raise SpecMismatchError("maps have different layouts")
    include = True if mask is None else np.asarray(mask, dtype=bool)
    if mask is not None and include.shape[-1:] != (spec.n_cells,):
        raise ValueError("mask shape does not match grid")
    # Sources d(a,b,0), d(a,b,1), d(b,a,0), d(b,a,1) and the targets they face.
    src = np.stack(np.broadcast_arrays(a.cells == 0, a.cells == 1, b.cells == 0, b.cells == 1)) & include
    dst = src[[2, 3, 0, 1]]
    n = spec.n_cells
    targets = dst.reshape(-1, n).T.reshape(spec.height_cells, spec.width_cells, -1)
    dist = _l1_distance_transform(targets).reshape(n, -1).T.reshape(dst.shape)
    n_src, n_dst = src.sum(axis=-1), dst.sum(axis=-1)
    total = np.where(src, dist, 0.0).sum(axis=-1)
    diameter = float(spec.width_cells + spec.height_cells)
    terms = np.where(n_src == 0, 0.0, np.where(n_dst == 0, diameter, total / np.maximum(n_src, 1)))
    psi = [math.fsum(frame) for frame in terms.reshape(4, -1).T.tolist()]
    if terms.ndim == 1:
        return PairScore(*terms.tolist(), psi[0])
    return PairScore(*terms, np.array(psi))


def posterior_mass_at_truth(posterior: np.ndarray, truth_index: int | np.ndarray) -> float | np.ndarray:
    """Probability mass a candidate posterior assigns to the true candidate.

    One candidate index gives a ``float``; an array of indices gives the
    mass at each of them.
    """
    posterior = np.asarray(posterior, dtype=float)
    if posterior.ndim != 1 or len(posterior) == 0:
        raise ValueError("posterior must be a nonempty 1D distribution")
    index = np.asarray(truth_index)
    outside = (index < 0) | (index >= len(posterior))
    if np.any(outside):
        raise ValueError(f"truth index {index[outside][0]} outside region of {len(posterior)} candidates")
    mass = posterior[index]
    return float(mass) if mass.ndim == 0 else mass


def improvement_ratio(p_ours: float, p_prior: float) -> float:
    """Relative gain of a posterior over the prior: (p_ours - p_prior) / p_prior."""
    if p_prior <= 0.0:
        raise ValueError(f"prior mass must be positive, got {p_prior}")
    return (p_ours - p_prior) / p_prior


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and standard error of an array-like (ddof=1; SE is 0 for a single value)."""
    arr = np.asarray(values, dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot aggregate an empty series")
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def aggregate_similarity(episode, t, psi) -> dict:
    """Summary of per-frame psi over many episodes.

    ``episode``, ``t`` and ``psi`` are (N,) columns with one entry per
    evaluated frame, each episode's frames together and in time order; an
    episode starts wherever ``episode`` changes.  Returns ``psi_mean``,
    ``psi_se`` and ``n_frames`` over every frame, and ``probes``: the
    mean, SE and number of episodes at each episode's first frame
    (``t0``), the frame nearest the middle of its window, the earlier one
    on a tie (``mid``), and its last frame (``end``).
    """
    episode, t, psi = np.asarray(episode), np.asarray(t, dtype=float), np.asarray(psi, dtype=float)
    if not len(episode) == len(t) == len(psi):
        raise ValueError("episode, t and psi columns differ in length")
    if len(psi) == 0:
        raise ValueError("no frames to aggregate")
    start = np.flatnonzero(np.r_[True, episode[1:] != episode[:-1]])
    end = np.r_[start[1:], len(psi)] - 1
    owner = np.repeat(np.arange(len(start)), end - start + 1)
    dist = np.abs(t - (0.5 * (t[start] + t[end]))[owner])
    # Frames sorted by episode, then by distance (stable): each episode's
    # nearest frame, the earliest of equals, comes first.
    mid = np.lexsort((dist, owner))[start]
    probes = {}
    for key, rows in (("end", end), ("mid", mid), ("t0", start)):
        mean, se = mean_and_se(psi[rows])
        probes[key] = {"mean": mean, "se": se, "n": len(rows)}
    mean, se = mean_and_se(psi)
    return {"psi_mean": mean, "psi_se": se, "n_frames": len(psi), "probes": probes}
