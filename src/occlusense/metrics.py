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


def directed_distance(a: BinaryMap, b: BinaryMap, c: int, mask: np.ndarray | None = None) -> float:
    """Mean nearest-neighbor distance from a's class-c cells into b.

    For every cell of ``a`` with value ``c``, take the Manhattan distance
    (in cell units) to the closest cell of ``b`` with the same value, and
    average.  Conventions for empty classes:

    * ``a`` has no class-c cells: the distance is 0.
    * ``b`` has no class-c cells: every term is the grid diameter
      (width + height in cells).

    Args:
        a: source map (distances start at its class-c cells).
        b: target map (distances end at its class-c cells).
        c: occupancy class, 0 or 1.
        mask: optional boolean include-mask over flat cell indices; cells
            outside the mask are ignored on both sides.

    Returns:
        Nonnegative mean distance in cell units.
    """
    if c not in (0, 1):
        raise ValueError(f"occupancy class must be 0 or 1, got {c}")
    if not a.spec.layout_matches(b.spec):
        raise SpecMismatchError("maps have different layouts")
    include = np.ones(a.spec.n_cells, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if include.shape != (a.spec.n_cells,):
        raise ValueError("mask shape does not match grid")

    coords = a.spec.cell_coords()
    src = coords[(a.cells == c) & include]
    if len(src) == 0:
        return 0.0
    dst = coords[(b.cells == c) & include]
    if len(dst) == 0:
        return float(a.spec.width_cells + a.spec.height_cells)
    diff = np.abs(src[:, None, :] - dst[None, :, :]).sum(axis=2)
    return float(diff.min(axis=1).mean())


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

    psi is the sum of the four directed terms d(a,b,0), d(a,b,1), d(b,a,0)
    and d(b,a,1).  Identical maps score 0.0; the score is symmetric in its
    arguments (fsum makes the total independent of term order).
    """
    d_ab_free = directed_distance(a, b, 0, mask)
    d_ab_occ = directed_distance(a, b, 1, mask)
    d_ba_free = directed_distance(b, a, 0, mask)
    d_ba_occ = directed_distance(b, a, 1, mask)
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
