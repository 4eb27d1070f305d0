"""Driver behavior as a sensor: actionlets and per-cell action likelihoods.

Observed driver kinematics are summarized into 21-dimensional feature
windows (distance to the crosswalk plus ten velocity and ten acceleration
samples over the last half second), clustered into a discrete vocabulary
of actionlets with k-means, and paired with ground-truth occupancy to
estimate how likely each actionlet is given each cell's state.  Those
likelihood tables are what the map-level fusion consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecMismatchError
from .grid import GridSpec

FEATURE_DIM = 21
WINDOW_SECONDS = 0.5
SAMPLES_PER_SIGNAL = 10
#: Slowest log rate the feature window admits (samples per second);
#: ``ScenarioConfig`` refuses slower ones.
MIN_LOG_RATE = 20.0

SCHEMA_VERSION = 1


def extract_features(log, t) -> np.ndarray:
    """Summarize the occluder's trajectory around time ``t``.

    ``log`` is any episode-log-like object exposing ``t`` (timestamps),
    ``occ_speed``, ``occ_accel``, ``occ_front_x`` arrays and a
    ``crosswalk_x`` scalar.  Velocity and acceleration are linearly
    interpolated at ten evenly spaced times over [t - 0.5, t], oldest
    first.  Returns the feature row ``[crosswalk distance, ten velocity
    samples, ten acceleration samples]``; for an ``(F,)`` array of times it
    returns an ``(F, 21)`` stack of rows.

    The log's rate is not checked here: an episode log's ``t`` comes from
    a ``ScenarioConfig``, which refuses rates below :data:`MIN_LOG_RATE`.

    Raises:
        ValueError: if the log does not cover the half-second window ending
            at each ``t`` (a one-frame log covers none).
    """
    times = np.asarray(log.t, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t - WINDOW_SECONDS < times[0] - 1e-9) or np.any(t > times[-1] + 1e-9):
        raise ValueError(
            f"window ending in [{np.min(t):.3f}, {np.max(t):.3f}] not covered by log "
            f"[{times[0]:.3f}, {times[-1]:.3f}]"
        )
    sample_times = np.linspace(t - WINDOW_SECONDS, t, SAMPLES_PER_SIGNAL, axis=-1)
    vel = np.interp(sample_times, times, np.asarray(log.occ_speed, dtype=float))
    acc = np.interp(sample_times, times, np.asarray(log.occ_accel, dtype=float))
    front = np.interp(t, times, np.asarray(log.occ_front_x, dtype=float))
    return np.concatenate((np.expand_dims(log.crosswalk_x - front, -1), vel, acc), axis=-1)


@dataclass
class ActionletModel:
    """k-means vocabulary over standardized feature windows.

    Centroids live in standardized feature space; ``feature_mean`` and
    ``feature_scale`` map raw features into it.  ``sse_history`` records
    the within-cluster sum of squares at the start of each training
    iteration, and ``stop_reason`` says whether Lloyd's loop ``converged``
    or stopped on ``max_iters`` (training artifacts, not persisted).
    """

    k: int
    centroids: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    sse_history: list[float] = field(default_factory=list)
    stop_reason: str | None = None

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=float)
        self.feature_mean = np.asarray(self.feature_mean, dtype=float)
        self.feature_scale = np.asarray(self.feature_scale, dtype=float)
        if self.centroids.shape != (self.k, FEATURE_DIM):
            raise ValueError(f"expected centroids of shape ({self.k}, {FEATURE_DIM})")
        if self.feature_mean.shape != (FEATURE_DIM,) or self.feature_scale.shape != (FEATURE_DIM,):
            raise ValueError("scaler shape mismatch")
        if not all(np.isfinite(a).all() for a in (self.centroids, self.feature_mean, self.feature_scale)):
            raise ValueError("centroids and feature scaler must be finite")
        if np.any(self.feature_scale <= 0.0):
            raise ValueError("feature scales must be strictly positive")

    def scale(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.feature_mean) / self.feature_scale

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "actionlet_model",
            "k": self.k,
            "feature_mean": self.feature_mean.tolist(),
            "feature_scale": self.feature_scale.tolist(),
            "centroids": self.centroids.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActionletModel":
        if d.get("kind") != "actionlet_model":
            raise ValueError("not an actionlet model document")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"schema_version {d.get('schema_version')!r}; only {SCHEMA_VERSION} is read, re-run train")
        return cls(
            k=int(d["k"]),
            centroids=np.array(d["centroids"], dtype=float),
            feature_mean=np.array(d["feature_mean"], dtype=float),
            feature_scale=np.array(d["feature_scale"], dtype=float),
        )


#: Relative width of the band in which the expanded squared distances of
#: :func:`_nearest_centroids` may rank two centroids wrongly.
_RECHECK_TOL = 16 * (FEATURE_DIM + 4) * 2.0**-53


def _nearest_centroids(Xs: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray,
                       dist: np.ndarray | None = None, diff: np.ndarray | None = None):
    """Nearest centroid of each row of ``Xs`` and its squared distance.

    Returns ``(assign, min_sq)``, bit for bit what the direct rule gives:
    ``assign`` is the argmin over ``einsum("mkd,mkd->mk", D, D)`` with
    ``D = Xs[:, None] - centroids`` (ties to the lowest index), and
    ``min_sq`` is ``einsum("md,md->m", E, E)`` with ``E = Xs -
    centroids[assign]``.  ``x_sq`` is ``einsum("md,md->m", Xs, Xs)``;
    ``dist`` (m, k) and ``diff`` (m, d) are scratch buffers, allocated
    when not given.

    The ranking comes from the expansion ``x_sq - 2 Xs @ C.T + c_sq``, one
    matrix product, and only the rows it cannot rank are measured
    directly.  Error bound: with unit roundoff u = 2**-53, d = 21
    components and gamma_n = n u / (1 - n u), a length-d dot product
    summed in any order is within gamma_d |x||c| <= gamma_d (|x|^2 +
    |c|^2) / 2 of exact, so the expansion (three such products and two
    additions) is within about 2 (d + 2) u (|x|^2 + |c|^2) of the true
    squared distance.  The direct sum of d rounded squared differences
    is within gamma_(d+2) of it, and it is at most 2 (|x|^2 + |c|^2).
    The two computed values of one pair therefore differ by at most
    4 (d + 4) u S, with S = |x|^2 + max |c|^2, and two centroids whose
    expanded distances are more than 8 (d + 4) u S apart are ranked the
    same way by the direct rule.  A row whose second-smallest expanded
    distance is within ``_RECHECK_TOL * S`` = 16 (d + 4) u S of its
    smallest (twice that, for the second-order terms) is recomputed with
    the direct rule; exact ties always fall in that band.
    """
    m, k = len(Xs), len(centroids)
    dist = np.empty((m, k)) if dist is None else dist
    diff = np.empty_like(Xs) if diff is None else diff
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    np.matmul(Xs, centroids.T, out=dist)
    dist *= -2.0
    dist += x_sq[:, None]
    dist += c_sq
    assign = np.argmin(dist, axis=1)
    rows = np.arange(m)
    best = dist[rows, assign]
    dist[rows, assign] = np.inf
    second = dist[rows, np.argmin(dist, axis=1)]
    unsure = second - best <= _RECHECK_TOL * (x_sq + c_sq.max())
    if np.any(unsure):
        d = Xs[unsure, None, :] - centroids[None, :, :]
        assign[unsure] = np.argmin(np.einsum("mkd,mkd->mk", d, d), axis=1)
    # Every index is in range; mode="raise" would copy through a temporary.
    np.take(centroids, assign, axis=0, out=diff, mode="clip")
    np.subtract(Xs, diff, out=diff)
    return assign, np.einsum("md,md->m", diff, diff)


def kmeans_fit(features, k: int, *, seed: int, max_iters: int = 100) -> ActionletModel:
    """Cluster feature windows into k actionlets.

    Features are standardized per component (constant components get unit
    scale), seeded with the k-means++ rule from a deterministic generator,
    and refined by Lloyd iterations.  Clusters that empty out are re-seeded
    at the point farthest from its assigned centroid.  The within-cluster
    sum of squares is recorded every iteration and asserted non-increasing.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"expected feature rows of length {FEATURE_DIM}")
    m = len(X)
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < k:
        raise ValueError(f"need at least k={k} samples, got {m}")

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = X - mean
    Xs /= scale

    diff = np.empty_like(Xs)  # (m, d) scratch of the seeding and of each assignment
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(Xs, k, rng, diff)

    x_sq = np.einsum("md,md->m", Xs, Xs)
    dist = np.empty((m, k))
    history: list[float] = []
    prev_assign = None
    stop_reason = "max_iters"
    for _ in range(max_iters):
        assign, min_sq = _nearest_centroids(Xs, centroids, x_sq, dist, diff)
        sse = float(min_sq.sum())
        if history and sse > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise AssertionError(f"k-means SSE increased: {history[-1]} -> {sse}")
        history.append(sse)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            stop_reason = "converged"
            break
        prev_assign = assign

        counts = np.bincount(assign, minlength=k)
        # One weighted bincount per column adds each cluster's rows in row order.
        sums = np.stack([np.bincount(assign, Xs[:, j], k) for j in range(FEATURE_DIM)], axis=1)
        nonempty = counts > 0
        centroids = centroids.copy()
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not np.all(nonempty):
            # Re-seed each empty cluster at the point currently worst served.
            taken = min_sq.copy()
            for j in np.flatnonzero(~nonempty):
                far = int(np.argmax(taken))
                centroids[j] = Xs[far]
                taken[far] = -1.0
    return ActionletModel(k, centroids, mean, scale, history, stop_reason)


def _kmeans_pp_init(Xs: np.ndarray, k: int, rng: np.random.Generator, buf: np.ndarray) -> np.ndarray:
    """k-means++ seeds; ``buf`` is an (m, d) scratch for the squared differences."""
    m = len(Xs)
    centroids = np.empty((k, Xs.shape[1]))

    def sq_dist(c):
        np.subtract(Xs, c, out=buf)
        return np.square(buf, out=buf).sum(axis=1)

    centroids[0] = Xs[rng.integers(m)]
    closest = sq_dist(centroids[0])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=closest / total))
        centroids[j] = Xs[idx]
        closest = np.minimum(closest, sq_dist(centroids[j]))
    return centroids


def assign_actionlet(model: ActionletModel, features):
    """Index of the nearest centroid in scaled space (ties -> lowest index).

    ``features`` is one feature row, giving an ``int``, or an ``(F, 21)``
    stack of rows, giving an ``(F,)`` label array.
    """
    rows = np.asarray(features, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected feature rows of length {FEATURE_DIM}")
    Xs = model.scale(rows.reshape(-1, FEATURE_DIM))
    labels, _ = _nearest_centroids(Xs, model.centroids, np.einsum("md,md->m", Xs, Xs))
    return int(labels[0]) if rows.ndim == 1 else labels


@dataclass
class LikelihoodTable:
    """Empirical actionlet likelihoods conditioned on each cell's state.

    ``entries[i, a, c]`` estimates p(action a | cell i has occupancy c); for
    every (cell, occupancy) pair the distribution over actions sums to one.
    ``sample_counts[i, c]`` is the number of training maps with cell i in
    state c.
    """

    spec: GridSpec
    entries: np.ndarray
    sample_counts: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        self.sample_counts = np.asarray(self.sample_counts, dtype=np.int64)
        n = self.spec.n_cells
        if self.entries.ndim != 3 or self.entries.shape[0] != n or self.entries.shape[2] != 2:
            raise ValueError(f"entries must have shape (n_cells, n_actions, 2), got {self.entries.shape}")
        if self.sample_counts.shape != (n, 2):
            raise ValueError("sample_counts must have shape (n_cells, 2)")

    @property
    def n_actions(self) -> int:
        return self.entries.shape[1]

    def validate(self) -> None:
        sums = self.entries.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise ValueError("action likelihoods must sum to 1 for every (cell, occupancy)")
        if np.any(self.entries <= 0.0):
            raise ValueError("smoothed likelihood entries must be strictly positive")

    def action_likelihood_arrays(self, action) -> tuple[np.ndarray, np.ndarray]:
        """(lik_occupied, lik_free) arrays over cells for one action, or
        ``(F, n_cells)`` arrays for an ``(F,)`` array of actions."""
        action = np.asarray(action)
        if np.any((action < 0) | (action >= self.n_actions)):
            raise ValueError(f"action {action} outside table with {self.n_actions} actions")
        return self.entries[:, action, 1].T, self.entries[:, action, 0].T

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "likelihood_table",
            "spec": self.spec.to_dict(),
            "alpha": self.alpha,
            "entries": self.entries.tolist(),
            "sample_counts": self.sample_counts.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LikelihoodTable":
        if d.get("kind") != "likelihood_table":
            raise ValueError("not a likelihood table document")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"schema_version {d.get('schema_version')!r}; only {SCHEMA_VERSION} is read, re-run train")
        return cls(
            spec=GridSpec.from_dict(d["spec"]),
            entries=np.array(d["entries"], dtype=float),
            sample_counts=np.array(d["sample_counts"], dtype=np.int64),
            alpha=float(d["alpha"]),
        )


def estimate_likelihoods(chunks, spec: GridSpec, n_actions: int, alpha: float) -> LikelihoodTable:
    """Count-based estimate of p(action | cell state) with Laplace smoothing.

    Args:
        chunks: iterable of ``(labels, maps)`` pairs, read once: ``(n,)``
            actionlet indices of n training samples and their ``(n, n_cells)``
            ground-truth 0/1 occupancy, as bool or integer arrays, counted as
            they are without a copy.  The counts are int64 sums over the
            chunks, so any split of the samples gives the same table.
        spec: layout the maps index.
        n_actions: vocabulary size (must exceed every label).
        alpha: Laplace smoothing strength; each (cell, state) distribution is
            ``(count(a, i, c) + alpha) / (count(i, c) + alpha * n_actions)``.
            With ``alpha = 0``, states never observed fall back to uniform.
    """
    if n_actions < 1:
        raise ValueError("need at least one action")
    if alpha < 0.0:
        raise ValueError("smoothing strength must be nonnegative")
    # counts[c, a, i]: samples labelled a with cell i in state c.
    counts = np.zeros((2, n_actions, spec.n_cells), dtype=np.int64)
    per_label = np.zeros(n_actions, dtype=np.int64)
    for labels, maps in chunks:
        labels = np.asarray(labels, dtype=np.int64)
        maps = np.asarray(maps)
        if maps.dtype.kind not in "biu":  # a cast would count 0.5 as free and 1.7 as occupied
            raise ValueError(f"training maps must be bool or integer arrays, got {maps.dtype}")
        if labels.ndim != 1 or maps.ndim != 2 or len(maps) != len(labels):
            raise ValueError(f"need one label per map, got shapes {labels.shape} and {maps.shape}")
        if np.any((labels < 0) | (labels >= n_actions)):
            raise ValueError(f"labels outside action vocabulary of size {n_actions}")
        if maps.shape[1] != spec.n_cells:
            raise SpecMismatchError(f"training maps have {maps.shape[1]} cells; the table spec has {spec.n_cells}")
        if maps.size and (maps.min() < 0 or maps.max() > 1):
            raise ValueError("training maps must hold 0 or 1")
        for a in range(n_actions):
            counts[1, a] += maps[labels == a].sum(axis=0, dtype=np.int64)
        per_label += np.bincount(labels, minlength=n_actions)
    counts[0] = per_label[:, None] - counts[1]
    sample_counts = counts.sum(axis=1)  # (2, n_cells)
    denom = sample_counts[:, None, :] + alpha * n_actions
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = (counts + alpha) / denom
    probs = np.where(denom > 0.0, probs, 1.0 / n_actions)
    return LikelihoodTable(spec, probs.transpose(2, 1, 0), sample_counts.T, alpha)


def save_model_json(obj, path: str) -> None:
    """Write an ActionletModel or LikelihoodTable to a JSON file."""
    with open(path, "w") as fh:
        json.dump(obj.to_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_actionlet_model(path: str) -> ActionletModel:
    with open(path) as fh:
        return ActionletModel.from_dict(json.load(fh))


def load_likelihood_table(path: str) -> LikelihoodTable:
    with open(path) as fh:
        return LikelihoodTable.from_dict(json.load(fh))
