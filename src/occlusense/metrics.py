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
    """Similarity breakdown for one map pair: psi plus its four terms."""

    d_ab_free: float
    d_ab_occ: float
    d_ba_free: float
    d_ba_occ: float
    psi: float


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
    cells outside it are ignored on both sides.  One distance matrix per
    class serves both directions: its row minima give d(a,b,c) and its
    column minima d(b,a,c).  Identical maps score 0.0; the score is
    symmetric in its arguments (fsum makes the total independent of term
    order).
    """
    if not a.spec.layout_matches(b.spec):
        raise SpecMismatchError("maps have different layouts")
    include = np.ones(a.spec.n_cells, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if include.shape != (a.spec.n_cells,):
        raise ValueError("mask shape does not match grid")
    coords = a.spec.cell_coords()
    diameter = float(a.spec.width_cells + a.spec.height_cells)
    terms = []
    for c in (0, 1):
        src = coords[(a.cells == c) & include]
        dst = coords[(b.cells == c) & include]
        if len(src) == 0 or len(dst) == 0:
            terms.append((diameter if len(src) else 0.0, diameter if len(dst) else 0.0))
            continue
        dist = np.abs(src[:, None, :] - dst[None, :, :]).sum(axis=2)
        terms.append((float(dist.min(axis=1).mean()), float(dist.min(axis=0).mean())))
    (d_ab_free, d_ba_free), (d_ab_occ, d_ba_occ) = terms
    return PairScore(d_ab_free, d_ab_occ, d_ba_free, d_ba_occ,
                     math.fsum((d_ab_free, d_ab_occ, d_ba_free, d_ba_occ)))


def posterior_mass_at_truth(posterior: np.ndarray, truth_index: int) -> float:
    """Probability mass a candidate posterior assigns to the true candidate."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.ndim != 1 or len(posterior) == 0:
        raise ValueError("posterior must be a nonempty 1D distribution")
    if not (0 <= truth_index < len(posterior)):
        raise ValueError(f"truth index {truth_index} outside region of {len(posterior)} candidates")
    return float(posterior[truth_index])


def improvement_ratio(p_ours: float, p_prior: float) -> float:
    """Relative gain of a posterior over the prior: (p_ours - p_prior) / p_prior."""
    if p_prior <= 0.0:
        raise ValueError(f"prior mass must be positive, got {p_prior}")
    return (p_ours - p_prior) / p_prior


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and standard error (ddof=1; SE is 0 for a single value)."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot aggregate an empty series")
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


@dataclass
class SimilarityReport:
    """Aggregated psi statistics over evaluated frames.

    ``probes`` holds (mean, se, n) at the start, midpoint and end of each
    episode's evaluated window, keyed "t0", "mid" and "end"; the overall
    row averages every evaluated frame.
    """

    psi_mean: float
    psi_se: float
    n_frames: int
    probes: dict[str, tuple[float, float, int]]

    def to_dict(self) -> dict:
        return {
            "psi_mean": self.psi_mean,
            "psi_se": self.psi_se,
            "n_frames": self.n_frames,
            "probes": {
                k: {"mean": m, "se": s, "n": n} for k, (m, s, n) in sorted(self.probes.items())
            },
        }


def aggregate_similarity(episodes: list[list[tuple[float, float]]]) -> SimilarityReport:
    """Aggregate per-frame (time, psi) series from many episodes.

    Probe points are taken per episode: the first evaluated frame, the frame
    nearest the middle of the evaluated window, and the last frame.
    """
    all_psi = [psi for series in episodes for _, psi in series if series]
    if not all_psi:
        raise ValueError("no frames to aggregate")
    probes: dict[str, list[float]] = {"t0": [], "mid": [], "end": []}
    for series in episodes:
        if not series:
            continue
        times = np.array([t for t, _ in series])
        mid_t = 0.5 * (times[0] + times[-1])
        mid_idx = int(np.argmin(np.abs(times - mid_t)))
        probes["t0"].append(series[0][1])
        probes["mid"].append(series[mid_idx][1])
        probes["end"].append(series[-1][1])
    mean, se = mean_and_se(all_psi)
    probe_stats = {}
    for key, vals in probes.items():
        m, s = mean_and_se(vals)
        probe_stats[key] = (m, s, len(vals))
    return SimilarityReport(mean, se, len(all_psi), probe_stats)
