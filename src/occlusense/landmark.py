"""Landmark mode: semantic pedestrian actions and position imputation.

Instead of a grid, the unknown is a single pedestrian position.  A
multinomial logit model maps a candidate position to a distribution over
five semantic actions; Bayes' rule over a uniform prior on the occluded
candidate set then turns one observed action into a posterior over where
the pedestrian is.  The logit is fit by damped Newton steps (IRLS) with
Armijo backtracking on the L2-regularized log-likelihood, which is
concave, so the fit is checked against an independent convex optimizer
rather than any latent-variable scheme.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

SCHEMA_VERSION = 1
FEATURE_MAP_ID = "bias_x_y_range"
N_FEATURES = 4
#: Points per chunk of a batched :meth:`OccludedRegion.locate`.
LOCATE_CHUNK = 64
#: Relative log-likelihood gain below which :func:`fit_logit` stops.
TOL = 1e-9


class SemanticAction(Enum):
    """Discrete pedestrian behaviors distinguishable from tracking output."""

    MOVING_FAST = 0
    MOVING_SLOW = 1
    ACCELERATING = 2
    DECELERATING = 3
    STOPPED = 4


N_ACTIONS = len(SemanticAction)

#: An action's label is its lowercase name.
_LABEL_TO_ACTION = {action.name.lower(): action for action in SemanticAction}


def action_from_label(label: str) -> SemanticAction:
    """Parse an action label, tolerant of case and spaces."""
    key = label.strip().lower().replace(" ", "_").replace("-", "_")
    if key not in _LABEL_TO_ACTION:
        raise ValueError(f"unknown action label {label!r}")
    return _LABEL_TO_ACTION[key]


@dataclass(frozen=True)
class LandmarkState:
    """Pedestrian position: x lateral (right positive), y forward, meters."""

    x: float
    y: float


def position_features(xy: np.ndarray) -> np.ndarray:
    """Feature map [1, x, y, ||(x, y)||] applied row-wise to (m, 2) input."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    norm = np.hypot(xy[:, 0], xy[:, 1])
    return np.column_stack((np.ones(len(xy)), xy[:, 0], xy[:, 1], norm))


def _features_t(xy: np.ndarray) -> np.ndarray:
    """C-contiguous (features, m) transpose of :func:`position_features`."""
    return np.ascontiguousarray(position_features(xy).T)


def _softmax(weights: np.ndarray, phi_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-max-shifted scores ``weights @ phi_t``, their log-normalizers and softmax.

    ``phi_t`` is the C-contiguous (features, m) transpose of the feature
    rows, so the scores and probabilities are (actions, m) and every
    reduction runs along the short leading axis over long contiguous rows.
    """
    scores = weights @ phi_t
    scores -= scores.max(axis=0)
    e = np.exp(scores)
    total = e.sum(axis=0)
    return scores, np.log(total), e / total


@dataclass
class LogitModel:
    """Multinomial logit p(action | position) = softmax(W phi(position))."""

    weights: np.ndarray
    reg: float
    loglik_history: list[float] = field(default_factory=list)
    #: Why :func:`fit_logit` stopped (``tolerance``, ``max_iters``,
    #: ``zero_gradient`` or ``line_search``) and the gradient norm there;
    #: fit diagnostics, not part of the saved model.
    stop_reason: str | None = None
    grad_norm: float | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (N_ACTIONS, N_FEATURES):
            raise ValueError(f"weights must have shape ({N_ACTIONS}, {N_FEATURES})")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")

    def predict_proba(self, xy: np.ndarray) -> np.ndarray:
        """(m, 5) action distributions for (m, 2) positions."""
        return _softmax(self.weights, _features_t(xy))[2].T

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "logit_model",
            "feature_map": FEATURE_MAP_ID,
            "weights": self.weights.tolist(),
            "reg": self.reg,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogitModel":
        """Load a model document of ``SCHEMA_VERSION``; keys other than the
        weights' are ignored, so files that still carry a ``thresholds``
        object load too."""
        if d.get("kind") != "logit_model":
            raise ValueError("not a logit model document")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"schema_version {d.get('schema_version')!r}; only {SCHEMA_VERSION} is read, re-run train")
        if d.get("feature_map") != FEATURE_MAP_ID:
            raise ValueError(f"unsupported feature map {d.get('feature_map')!r}")
        return cls(weights=np.array(d["weights"], dtype=float), reg=float(d["reg"]))


def save_logit_model(model: LogitModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_logit_model(path: str) -> LogitModel:
    with open(path) as fh:
        return LogitModel.from_dict(json.load(fh))


def _label_cells(labels) -> np.ndarray:
    """Flat index of each sample's label in an (actions, m) array, in sample order."""
    labels = np.asarray(labels)
    return labels * len(labels) + np.arange(len(labels))


def _onehot(cells: np.ndarray) -> np.ndarray:
    """(actions, m) indicator of the samples' labels, from :func:`_label_cells`."""
    onehot = np.zeros((N_ACTIONS, len(cells)))
    onehot.flat[cells] = 1.0
    return onehot


def _loglik_and_probs(weights, phi_t, cells, reg: float) -> tuple[float, np.ndarray]:
    """Regularized log-likelihood at ``weights`` and the (actions, m) softmax it came from."""
    scores, log_norm, probs = _softmax(weights, phi_t)
    picked = np.take(scores, cells)
    return float((picked - log_norm).sum() - 0.5 * reg * np.sum(weights**2)), probs


def _gradient(weights, phi, onehot, probs, reg: float) -> np.ndarray:
    """Gradient of the regularized log-likelihood, given the softmax at ``weights``.

    The (actions, m) residual is written Fortran-ordered, so its product
    with the (m, features) rows ``phi`` is the same BLAS call, and gives the
    same bits, as the row-layout ``(onehot - probs).T @ phi``.
    """
    return np.subtract(onehot, probs, order="F") @ phi - reg * weights


def regularized_loglik(weights: np.ndarray, xy: np.ndarray, labels: np.ndarray, reg: float) -> float:
    """Sum log-likelihood of the labels minus (reg/2) ||W||^2."""
    return _loglik_and_probs(np.asarray(weights, dtype=float), _features_t(xy), _label_cells(labels), reg)[0]


def loglik_gradient(weights: np.ndarray, xy: np.ndarray, labels: np.ndarray, reg: float) -> np.ndarray:
    """Analytic gradient of :func:`regularized_loglik` in ``weights``."""
    weights = np.asarray(weights, dtype=float)
    phi = position_features(xy)
    probs = _softmax(weights, np.ascontiguousarray(phi.T))[2]
    return _gradient(weights, phi, _onehot(_label_cells(labels)), probs, reg)


def fit_logit(xy: np.ndarray, labels: np.ndarray, reg: float, max_iters: int) -> LogitModel:
    """Fit the action model to (m, 2) positions and their (m,) action codes
    by damped Newton steps (IRLS) with Armijo backtracking.

    The objective is concave; with ``reg > 0`` it is strictly concave and
    the optimum is unique.  Newton steps are affine-invariant, so the
    unscaled features need no step-size rule.  ``lstsq`` solves each 20x20
    Newton system; at ``reg = 0`` the Hessian is singular along the one
    shift shared by all action rows, where the gradient has no component.
    The log-likelihood is recorded per iteration and asserted
    non-decreasing; the fit stops once its relative gain falls below
    ``TOL``, and the model records why it stopped and the gradient norm.

    Raises:
        ValueError: when ``xy`` is not (m, 2) with m > 0 and one label per
            row, a label lies outside the vocabulary, ``reg`` is negative,
            or zero while every sample carries the same label (the
            unregularized optimum diverges).
    """
    X = np.asarray(xy, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError("positions must be an (m, 2) array")
    if y.shape != (len(X),):
        raise ValueError(f"need one label per position, got {y.shape} labels for {len(X)} positions")
    if len(X) == 0:
        raise ValueError("no training samples")
    if np.any(y < 0) or np.any(y >= N_ACTIONS):
        raise ValueError("action labels outside the vocabulary")
    if reg < 0.0:
        raise ValueError("regularization strength must be nonnegative")
    if reg == 0.0 and len(np.unique(y)) == 1:
        raise ValueError("all samples share one action: use reg > 0 to keep the fit bounded")

    # Fixed inputs: rows for the gradient product, their transpose for the
    # softmax, and where each label sits in the (actions, m) layout.
    phi = position_features(X)
    phi_t = np.ascontiguousarray(phi.T)
    cells = _label_cells(y)
    onehot = _onehot(cells)
    n_params = N_ACTIONS * N_FEATURES
    W = np.zeros((N_ACTIONS, N_FEATURES))
    val, probs = _loglik_and_probs(W, phi_t, cells, reg)
    history = [val]
    grad = _gradient(W, phi, onehot, probs, reg)
    reason = "max_iters"
    for _ in range(max_iters):
        if float(np.sum(grad**2)) <= 1e-18:
            reason = "zero_gradient"
            break
        # Negated Hessian sum_i p_i(delta - p_i^T) (x) phi_i phi_i^T + reg I,
        # from the (actions * features, m) rows p_a * phi.
        weighted = (probs[:, None, :] * phi_t).reshape(n_params, -1)
        hess = reg * np.eye(n_params) - weighted @ weighted.T
        for a in range(0, n_params, N_FEATURES):
            hess[a:a + N_FEATURES, a:a + N_FEATURES] += weighted[a:a + N_FEATURES] @ phi
        direction = np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0].reshape(N_ACTIONS, N_FEATURES)
        slope = float(np.sum(grad * direction))
        # Armijo backtracking from the full Newton step.
        step = 1.0
        while step > 1e-16:
            cand = W + step * direction
            val, probs = _loglik_and_probs(cand, phi_t, cells, reg)
            if val >= history[-1] + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            reason = "line_search"
            break
        W, grad = cand, _gradient(cand, phi, onehot, probs, reg)
        if val < history[-1] - 1e-9 * max(1.0, abs(history[-1])):
            raise AssertionError(f"log-likelihood decreased: {history[-1]} -> {val}")
        gain = val - history[-1]
        history.append(val)
        if gain < TOL * max(1.0, abs(val)):
            reason = "tolerance"
            break
    return LogitModel(W, reg, history, stop_reason=reason, grad_norm=float(np.sqrt(np.sum(grad**2))))


@dataclass(frozen=True)
class OccludedRegion:
    """Discrete candidate positions the pedestrian could occupy."""

    candidates: np.ndarray

    def __post_init__(self) -> None:
        cand = np.asarray(self.candidates, dtype=float)
        if cand.ndim != 2 or cand.shape[1] != 2 or len(cand) == 0:
            raise ValueError("region needs at least one (x, y) candidate")
        object.__setattr__(self, "candidates", cand)

    @property
    def n(self) -> int:
        return len(self.candidates)

    @staticmethod
    def check_lattice(x_min: float, x_max: float, y_min: float, y_max: float, step: float) -> None:
        """The rule of :meth:`from_grid`'s arguments, checked without building the lattice."""
        if not (step > 0.0 and x_min <= x_max and y_min <= y_max
                and ((x_max - x_min) / step + 1.0) * ((y_max - y_min) / step + 1.0) <= sys.maxsize):
            raise ValueError("invalid region bounds: the lattice needs a positive step, each minimum "
                             f"at most its maximum, and a finite count of at most {sys.maxsize} candidates")

    @classmethod
    def from_grid(cls, x_min: float, x_max: float, y_min: float, y_max: float, step: float) -> "OccludedRegion":
        """Regular lattice of candidates covering a rectangle."""
        cls.check_lattice(x_min, x_max, y_min, y_max, step)
        xs = np.arange(x_min, x_max + step / 2, step)
        ys = np.arange(y_min, y_max + step / 2, step)
        gx, gy = np.meshgrid(xs, ys)
        return cls(np.column_stack((gx.ravel(), gy.ravel())))

    def locate(self, xy, tol: float) -> int | np.ndarray | None:
        """Index of the candidate nearest a point in max-norm, if within ``tol``.

        A (2,) point gives an ``int``, or ``None`` when no candidate lies
        within ``tol``.  (m, 2) points give an int64 array with -1 for those.
        Ties go to the first candidate.  Batches are computed in chunks of
        ``LOCATE_CHUNK`` points, which bounds the (chunk, n) temporaries.
        """
        xy = np.asarray(xy, dtype=float)
        if xy.ndim not in (1, 2) or xy.shape[-1] != 2:
            raise ValueError("locate takes a (2,) point or (m, 2) points")
        pts = xy.reshape(-1, 2)
        cand_x, cand_y = np.ascontiguousarray(self.candidates.T)
        found = np.empty(len(pts), dtype=np.int64)
        for start in range(0, len(pts), LOCATE_CHUNK):
            chunk = pts[start:start + LOCATE_CHUNK]
            d = np.abs(cand_x - chunk[:, :1])
            np.maximum(d, np.abs(cand_y - chunk[:, 1:]), out=d)
            best = d.argmin(axis=1)
            within = d[np.arange(len(best)), best] <= tol
            found[start:start + len(chunk)] = np.where(within, best, -1)
        if xy.ndim == 2:
            return found
        return int(found[0]) if found[0] >= 0 else None


def posterior_over_region(model: LogitModel, region: OccludedRegion,
                          observed: SemanticAction | int) -> np.ndarray:
    """Posterior over candidates after observing one action.

    The prior over candidates is uniform, so the posterior is the observed
    action's likelihood at each candidate, normalized.  A model whose
    likelihood is constant over the region returns the uniform prior
    exactly.
    """
    a = observed.value if isinstance(observed, SemanticAction) else int(observed)
    if not (0 <= a < N_ACTIONS):
        raise ValueError(f"action index {a} outside vocabulary")
    lik = model.predict_proba(region.candidates)[:, a]
    if np.all(lik == lik[0]):
        return np.full(region.n, 1.0 / region.n)
    total = lik.sum()
    if not (total > 0.0):
        raise ArithmeticError("posterior normalization failed: zero total likelihood")
    return lik / total


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus mounting height above a flat ground plane."""

    fx: float
    fy: float
    cx: float
    cy: float
    height_m: float

    def __post_init__(self) -> None:
        if not np.isfinite((self.fx, self.fy, self.cx, self.cy, self.height_m)).all():
            raise ValueError("camera intrinsics and height must be finite")
        if self.fx <= 0.0 or self.fy <= 0.0 or self.height_m <= 0.0:
            raise ValueError("focal lengths and camera height must be positive")


@dataclass(frozen=True)
class LandmarkObservation:
    """Back-projected pedestrian position."""

    state: LandmarkState


def bbox_to_landmark(bbox, camera: CameraModel):
    """Back-project detection boxes to ground-plane positions.

    The box's bottom-center pixel is assumed to touch the ground.  With a
    level camera at ``height_m``, a pixel ``dv`` rows below the principal
    point corresponds to depth ``fy * height_m / dv``; lateral offset
    follows from the pinhole model.  A box is rejected as ``bad_bbox``
    when its width or height is not positive, else as ``horizon`` when
    its bottom is at or above the principal row, else as ``bad_bbox``
    when its position is not finite (a NaN or infinite entry, or an
    offset that overflows).

    Args:
        bbox: one (x, y, w, h) box in pixels, top-left origin, or (m, 4) boxes.
        camera: intrinsics and mounting height.

    Returns:
        For one box, its :class:`LandmarkObservation`.  For (m, 4) boxes,
        the (m, 2) (lateral, depth) positions, NaN in rejected rows, and the
        (m,) rejection reasons, ``""`` for accepted rows.

    Raises:
        ValueError: for one box that is rejected, or input of another shape.
    """
    boxes = np.asarray(bbox, dtype=float)
    if boxes.ndim not in (1, 2) or boxes.shape[-1] != 4:
        raise ValueError("bbox_to_landmark takes a (4,) box or (m, 4) boxes")
    x, y, w, h = boxes.reshape(-1, 4).T
    # Each operation matches the scalar expression, so every row is rounded
    # as the same float arithmetic on one box would round it; like Python
    # floats, inf and NaN results pass without warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = x + w / 2.0
        dv = (y + h) - camera.cy
        depth = camera.fy * camera.height_m / dv
        lateral = (u - camera.cx) * depth / camera.fx
    bad_size = (w <= 0.0) | (h <= 0.0)
    horizon = ~bad_size & (dv <= 0.0)
    xy = np.column_stack((lateral, depth))
    bad_bbox = ~horizon & (bad_size | ~np.isfinite(xy).all(axis=1))
    xy[bad_bbox | horizon] = np.nan
    reason = np.where(bad_bbox, "bad_bbox", np.where(horizon, "horizon", ""))
    if boxes.ndim == 2:
        return xy, reason
    if bad_size[0]:
        raise ValueError(f"bounding box must have positive size, got w={w[0]}, h={h[0]}")
    if horizon[0]:
        raise ValueError("box bottom at or above the horizon: cannot intersect the ground plane")
    if bad_bbox[0]:
        raise ValueError(f"bounding box {boxes.tolist()} gives a non-finite position")
    return LandmarkObservation(LandmarkState(float(xy[0, 0]), float(xy[0, 1])))
