import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from occlusense.landmark import (
    CameraModel,
    LogitModel,
    OccludedRegion,
    SemanticAction,
    TOL,
    action_from_label,
    bbox_to_landmark,
    fit_logit,
    load_logit_model,
    loglik_gradient,
    position_features,
    posterior_over_region,
    regularized_loglik,
    save_logit_model,
)

N_ACTIONS, N_FEATURES = 5, 4


# ---------------------------------------------------------------------------
# action labels
# ---------------------------------------------------------------------------

def test_action_labels_round_trip():
    for action in SemanticAction:
        assert action_from_label(action.name.lower()) is action
    assert action_from_label(" Moving Fast ") is SemanticAction.MOVING_FAST
    with pytest.raises(ValueError):
        action_from_label("teleporting")


# ---------------------------------------------------------------------------
# logit objective and fitting
# ---------------------------------------------------------------------------

def random_instance(rng, m=40):
    xy = rng.uniform(-10, 10, (m, 2))
    labels = rng.integers(0, N_ACTIONS, m)
    return xy, labels


def test_position_features():
    phi = position_features(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(phi, [[1.0, 3.0, 4.0, 5.0]])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(20):
        xy, labels = random_instance(rng)
        W = rng.normal(0, 0.5, (N_ACTIONS, N_FEATURES))
        reg = float(rng.uniform(0.001, 0.1))
        grad = loglik_gradient(W, xy, labels, reg)
        h = 1e-6
        for _probe in range(6):
            i, j = rng.integers(N_ACTIONS), rng.integers(N_FEATURES)
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            fd = (regularized_loglik(Wp, xy, labels, reg)
                  - regularized_loglik(Wm, xy, labels, reg)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def scipy_optimum(xy, labels, reg):
    """Regularized log-likelihood at L-BFGS-B's optimum."""
    res = minimize(
        lambda w: -regularized_loglik(w.reshape(N_ACTIONS, N_FEATURES), xy, labels, reg),
        np.zeros(N_ACTIONS * N_FEATURES),
        jac=lambda w: -loglik_gradient(w.reshape(N_ACTIONS, N_FEATURES), xy, labels, reg).ravel(),
        method="L-BFGS-B", options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12},
    )
    return -res.fun


def test_fit_reaches_scipy_optimum():
    rng = np.random.default_rng(12)
    xy = np.column_stack((rng.uniform(0, 10, 200), rng.uniform(5, 15, 200)))
    labels = np.where(xy[:, 0] < 5.0, SemanticAction.STOPPED.value,
                      SemanticAction.MOVING_FAST.value)
    model = fit_logit(xy, labels, reg=0.01, max_iters=2000)

    optimum = scipy_optimum(xy, labels, 0.01)
    # the ascent reaches the unique optimum the independent optimizer finds
    assert model.loglik_history[-1] == pytest.approx(optimum, rel=1e-3)
    assert model.loglik_history[-1] <= optimum + 1e-6  # never exceeds the optimum

    # the decision signal is strong on either side of the boundary
    p_near, p_far = model.predict_proba(np.array([[0.0, 10.0], [10.0, 10.0]]))
    assert p_near[SemanticAction.STOPPED.value] > 0.9
    assert p_far[SemanticAction.STOPPED.value] < 0.1


def test_history_is_monotone():
    rng = np.random.default_rng(13)
    for _ in range(5):
        xy, labels = random_instance(rng, m=60)
        model = fit_logit(xy, labels, reg=0.05, max_iters=2000)
        hist = model.loglik_history
        assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("reg", [0.05, 0.0])
def test_newton_fit_converges_on_unscaled_features(reg):
    # Distance bands along y (1-25 m) against x within +-3 m: far from
    # isotropic features, with 20% label noise.
    rng = np.random.default_rng(21)
    m = 4800
    xy = np.column_stack((rng.uniform(-3, 3, m), rng.uniform(1, 25, m)))
    labels = np.minimum((xy[:, 1] // 6).astype(np.int64), N_ACTIONS - 1)
    noisy = rng.random(m) < 0.2
    labels[noisy] = rng.integers(0, N_ACTIONS, noisy.sum())
    model = fit_logit(xy, labels, reg=reg, max_iters=2000)
    assert model.stop_reason == "tolerance"
    assert len(model.loglik_history) <= 30
    # The gradient at zero weights has norm about 2e4.  Where Newton's
    # quadratic sequence crosses the gain tolerance sets how far below that
    # the fit ends: 1.6e-6 here, at most 3.6e-5 over 40 draws of this data.
    assert model.grad_norm < 1e-4
    assert model.grad_norm == float(np.sqrt(np.sum(loglik_gradient(model.weights, xy, labels, reg) ** 2)))
    assert model.loglik_history[-1] == pytest.approx(scipy_optimum(xy, labels, reg), rel=1e-9)
    assert fit_logit(xy, labels, reg=reg, max_iters=2).stop_reason == "max_iters"


def row_layout_fit(xy, labels, reg, max_iters):
    """The Newton ascent of :func:`fit_logit` with (samples, actions) scores.

    The softmax reduces along each 5-wide row, the gradient is
    ``(onehot - probs).T @ phi``, and the Armijo search, history and stops
    are restated here; the (actions, samples) layout must give the same
    weights and history bit for bit.  The Newton system is assembled from
    the row-layout probabilities as :func:`fit_logit` assembles it: its
    block products over the samples round differently when the operands
    are transposed views, so that step has no layout-free form to compare.
    """
    phi = position_features(xy)
    rows = np.arange(len(labels))
    n_params = N_ACTIONS * N_FEATURES

    def loglik_and_probs(W):
        scores = phi @ W.T
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        total = e.sum(axis=1, keepdims=True)
        picked = scores[rows, labels]
        return float((picked - np.log(total[:, 0])).sum() - 0.5 * reg * np.sum(W**2)), e / total

    def gradient(W, probs):
        onehot = np.zeros_like(probs)
        onehot[rows, labels] = 1.0
        return (onehot - probs).T @ phi - reg * W

    def newton_direction(probs, grad):
        probs_t, phi_t = np.ascontiguousarray(probs.T), np.ascontiguousarray(phi.T)
        weighted = (probs_t[:, None, :] * phi_t).reshape(n_params, -1)
        hess = reg * np.eye(n_params) - weighted @ weighted.T
        for a in range(0, n_params, N_FEATURES):
            hess[a:a + N_FEATURES, a:a + N_FEATURES] += weighted[a:a + N_FEATURES] @ phi
        return np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0].reshape(N_ACTIONS, N_FEATURES)

    W = np.zeros((N_ACTIONS, N_FEATURES))
    val, probs = loglik_and_probs(W)
    history = [val]
    grad = gradient(W, probs)
    for _ in range(max_iters):
        if float(np.sum(grad**2)) <= 1e-18:
            break
        direction = newton_direction(probs, grad)
        slope = float(np.sum(grad * direction))
        step = 1.0
        while step > 1e-16:
            cand = W + step * direction
            val, probs = loglik_and_probs(cand)
            if val >= history[-1] + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        W, grad = cand, gradient(cand, probs)
        gain = val - history[-1]
        history.append(val)
        if gain < TOL * max(1.0, abs(val)):
            break
    return W, history


@pytest.mark.parametrize("reg", [0.05, 0.0])
@pytest.mark.parametrize("max_iters, reason", [(7, "max_iters"), (5000, "tolerance")])
def test_fit_is_bit_identical_to_row_layout(reg, max_iters, reason):
    # 2% label noise: the fit takes 10-11 Newton iterations, so 7 stops early.
    rng = np.random.default_rng(21)
    m = 1000
    xy = np.column_stack((rng.uniform(-3, 3, m), rng.uniform(1, 25, m)))
    labels = np.minimum((xy[:, 1] // 6).astype(np.int64), N_ACTIONS - 1)
    noisy = rng.random(m) < 0.02
    labels[noisy] = rng.integers(0, N_ACTIONS, noisy.sum())
    model = fit_logit(xy, labels, reg=reg, max_iters=max_iters)
    weights, history = row_layout_fit(xy, labels, reg, max_iters)
    assert model.stop_reason == reason
    assert np.array_equal(model.weights, weights)
    assert model.loglik_history == history
    assert model.grad_norm == float(np.sqrt(np.sum(loglik_gradient(weights, xy, labels, reg) ** 2)))


def test_no_positional_signal_stays_uniform():
    pos = np.tile([2.0, 7.0], (25, 1))
    labels = np.repeat(np.arange(N_ACTIONS), 5)
    model = fit_logit(pos, labels, reg=0.01, max_iters=2000)
    assert model.stop_reason == "zero_gradient"
    probs = model.predict_proba(np.array([[2.0, 7.0], [-4.0, 12.0]]))
    np.testing.assert_array_equal(probs, 0.2)


def test_zero_weights_predict_uniform_exactly():
    model = LogitModel(np.zeros((N_ACTIONS, N_FEATURES)), reg=0.01)
    probs = model.predict_proba(np.array([[1.0, 2.0], [-3.0, 9.0]]))
    assert np.all(probs == 0.2)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(14)
    W = rng.normal(size=(N_ACTIONS, N_FEATURES))
    shift = rng.normal(size=N_FEATURES)
    m1 = LogitModel(W, reg=0.0)
    m2 = LogitModel(W + shift, reg=0.0)
    pts = rng.uniform(-5, 5, (10, 2))
    np.testing.assert_allclose(m1.predict_proba(pts), m2.predict_proba(pts), atol=1e-12)


def test_fit_validation():
    two = np.array([[0.0, 1.0], [1.0, 1.0]])
    cases = [
        (two, [0], 0.01, "one label per position"),
        (two, [0, 1, 2], 0.01, "one label per position"),
        (two, [[0, 1]], 0.01, "one label per position"),
        ([[0.0, 1.0, 2.0]], [0], 0.01, r"\(m, 2\)"),
        ([0.0, 1.0], [0], 0.01, r"\(m, 2\)"),
        ([[[0.0, 1.0]]], [0], 0.01, r"\(m, 2\)"),
        (np.empty((0, 2)), np.empty(0, dtype=np.int64), 0.01, "no training samples"),
        ([[0.0, 1.0]], [9], 0.01, "outside the vocabulary"),
        ([[0.0, 1.0]], [-1], 0.01, "outside the vocabulary"),
        ([[0.0, 1.0]], [0], -0.1, "nonnegative"),
        (two, [2, 2], 0.0, "share one action"),
    ]
    for xy, labels, reg, message in cases:
        with pytest.raises(ValueError, match=message):
            fit_logit(xy, labels, reg=reg, max_iters=2000)


# ---------------------------------------------------------------------------
# candidate regions and posteriors
# ---------------------------------------------------------------------------

class FakeModel:
    """predict_proba stub returning a fixed likelihood matrix."""

    def __init__(self, probs):
        self._probs = np.asarray(probs, dtype=float)

    def predict_proba(self, xy):
        assert len(xy) == len(self._probs)
        return self._probs


def region_of(n):
    return OccludedRegion(np.column_stack((np.arange(n, dtype=float), np.zeros(n))))


def test_posterior_normalizes_likelihood():
    region = region_of(2)
    model = FakeModel([[0.3, 0.7, 0, 0, 0], [0.1, 0.9, 0, 0, 0]])
    post = posterior_over_region(model, region, 0)
    np.testing.assert_allclose(post, [0.75, 0.25])


def test_posterior_scale_invariance():
    region = region_of(2)
    a = posterior_over_region(FakeModel([[0.3] * 5, [0.1] * 5]), region, 2)
    b = posterior_over_region(FakeModel([[0.6] * 5, [0.2] * 5]), region, 2)
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_posterior_single_candidate_and_uniform():
    assert posterior_over_region(FakeModel([[0.2] * 5]), region_of(1), 4).tolist() == [1.0]
    post = posterior_over_region(FakeModel([[0.37] * 5] * 16), region_of(16), 1)
    assert np.all(post == 1.0 / 16.0)


def test_posterior_rejects_bad_action():
    with pytest.raises(ValueError):
        posterior_over_region(FakeModel([[0.2] * 5]), region_of(1), 5)


def test_region_from_grid_lattice():
    region = OccludedRegion.from_grid(0.0, 2.0, 0.0, 2.0, 1.0)
    assert region.n == 9
    assert region.locate([1.0, 1.0], tol=0.5) is not None
    assert region.locate([9.0, 9.0], tol=0.5) is None
    with pytest.raises(ValueError):
        OccludedRegion.from_grid(0.0, 2.0, 0.0, 2.0, 0.0)
    # Too many candidates, refused before any array is allocated.
    for bounds in ((-8.0, 8.0, 1.0, 25.0, 1e-9), (-1e308, 8.0, 1.0, 25.0, 2.0)):
        with pytest.raises(ValueError, match="candidates"):
            OccludedRegion.from_grid(*bounds)
    with pytest.raises(ValueError):
        OccludedRegion(np.zeros((0, 2)))


def locate_reference(candidates, points, tol):
    """Per-point max-norm argmin, -1 where the nearest candidate is beyond ``tol``."""
    found = []
    for point in points:
        d = np.abs(candidates - point).max(axis=1)
        idx = int(np.argmin(d))
        found.append(idx if d[idx] <= tol else -1)
    return np.array(found, dtype=np.int64)


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 200])
def test_batched_locate_matches_per_point_argmin(m):
    region = OccludedRegion.from_grid(-3.0, 3.0, 1.0, 25.0, 0.5)
    rng = np.random.default_rng(m)
    # Some points fall outside the lattice by more than the tolerance.
    points = rng.uniform([-4.0, 0.0], [4.0, 26.0], (m, 2))
    # Every third point sits midway between two candidates: an exact tie.
    pairs = rng.integers(0, region.n - 1, m)
    points[::3] = (region.candidates[pairs[::3]] + region.candidates[pairs[::3] + 1]) / 2.0
    found = region.locate(points, tol=0.25)
    assert found.dtype == np.int64 and found.shape == (m,)
    np.testing.assert_array_equal(found, locate_reference(region.candidates, points, 0.25))
    for point, idx in zip(points, found):
        assert region.locate(point, tol=0.25) == (None if idx < 0 else idx)


def test_locate_ties_go_to_the_first_candidate_and_misses_to_minus_one():
    region = OccludedRegion(np.array([[0.0, 5.0], [0.5, 5.0], [0.0, 5.5], [0.5, 5.5]]))
    assert region.locate([0.25, 5.0], tol=0.25) == 0
    assert region.locate([0.25, 5.25], tol=0.25) == 0
    assert region.locate([0.5, 5.25], tol=0.25) == 1
    assert region.locate([9.0, 9.0], tol=0.25) is None
    np.testing.assert_array_equal(region.locate([[0.5, 5.25], [9.0, 9.0], [0.25, 5.5]], tol=0.25),
                                  [1, -1, 2])
    with pytest.raises(ValueError):
        region.locate([1.0, 2.0, 3.0], tol=0.25)


# ---------------------------------------------------------------------------
# camera back-projection
# ---------------------------------------------------------------------------

CAMERA = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, height_m=1.5)


def test_bbox_centered_ahead():
    # bottom-center at (320, 302.5): dv = 62.5 -> depth 500*1.5/62.5 = 12 m
    obs = bbox_to_landmark((295.0, 202.5, 50.0, 100.0), CAMERA)
    assert obs.state.x == pytest.approx(0.0)
    assert obs.state.y == pytest.approx(12.0)


def test_bbox_lateral_and_depth_scaling():
    # same bottom row, shifted 125 px right -> lateral = 125 * 12 / 500 = 3 m
    obs = bbox_to_landmark((420.0, 202.5, 50.0, 100.0), CAMERA)
    assert obs.state.x == pytest.approx(3.0)
    assert obs.state.y == pytest.approx(12.0)
    # doubling dv halves the depth
    obs2 = bbox_to_landmark((295.0, 265.0, 50.0, 100.0), CAMERA)
    assert obs2.state.y == pytest.approx(6.0)


def test_bbox_errors():
    with pytest.raises(ValueError):
        bbox_to_landmark((295.0, 100.0, 50.0, 100.0), CAMERA)  # bottom above horizon
    with pytest.raises(ValueError):
        bbox_to_landmark((295.0, 202.5, 0.0, 100.0), CAMERA)
    with pytest.raises(ValueError):
        CameraModel(fx=-1.0, fy=500.0, cx=320.0, cy=240.0, height_m=1.5)
    for field in ("fx", "fy", "cx", "cy", "height_m"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                CameraModel(**{"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "height_m": 1.5, field: value})
    with pytest.raises(ValueError, match="non-finite"):
        bbox_to_landmark((np.nan, 202.5, 50.0, 100.0), CAMERA)
    with pytest.raises(ValueError):
        bbox_to_landmark(np.zeros((2, 3)), CAMERA)


def project_reference(box, camera: CameraModel):
    """One box by Python float arithmetic: (lateral, depth), or the rejection reason."""
    x, y, w, h = (float(v) for v in box)
    if w <= 0.0 or h <= 0.0:
        return "bad_bbox"
    u = x + w / 2.0
    dv = (y + h) - camera.cy
    if dv <= 0.0:
        return "horizon"
    depth = camera.fy * camera.height_m / dv
    lateral = (u - camera.cx) * depth / camera.fx
    if not (math.isfinite(lateral) and math.isfinite(depth)):
        return "bad_bbox"
    return lateral, depth


def float_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


#: Zero and negative sizes, bottoms on and just below the horizon row, NaN/inf entries
#: and finite entries whose lateral offset overflows.
SPECIAL_BOXES = [(10.0, 200.0, 0.0, 50.0), (10.0, 200.0, 50.0, -0.0), (10.0, 200.0, -5.0, 50.0),
                 (10.0, 190.0, 5.0, 50.0), (10.0, 190.0, 5.0, np.nextafter(50.0, 100.0)),
                 (1e308, 190.0, 5.0, np.nextafter(50.0, 100.0)),
                 (np.nan, 200.0, 50.0, 100.0), (10.0, 200.0, np.nan, 100.0), (10.0, 200.0, 50.0, np.nan),
                 (np.inf, 200.0, 50.0, 100.0), (10.0, np.inf, 50.0, 100.0), (10.0, -np.inf, 50.0, 100.0),
                 (-np.inf, 200.0, np.inf, 100.0), (10.0, 200.0, np.inf, 100.0), (295.0, 200.0, 50.0, 100.0),
                 (1e308, 1e308, 1e308, 1e308)]


@pytest.mark.parametrize("m", [0, 1, 500])
def test_batched_bbox_matches_per_box_calls_bit_for_bit(m):
    rng = np.random.default_rng(m)
    boxes = np.column_stack((rng.uniform(-400.0, 1000.0, m), rng.uniform(-200.0, 500.0, m),
                             rng.uniform(-20.0, 120.0, m), rng.uniform(-20.0, 240.0, m)))
    boxes = rng.permutation(np.vstack((boxes, SPECIAL_BOXES)))
    xy, reason = bbox_to_landmark(boxes, CAMERA)
    assert xy.shape == (len(boxes), 2) and reason.shape == (len(boxes),)
    reasons = {"bad_bbox", "horizon"}
    for box, got_xy, got_reason in zip(boxes, xy, reason):
        want = project_reference(box, CAMERA)
        if isinstance(want, str):
            assert got_reason == want
            assert np.isnan(got_xy).all()
            with pytest.raises(ValueError) as err:
                bbox_to_landmark(box, CAMERA)
            assert ("horizon" in str(err.value)) == (want == "horizon")
        else:
            assert got_reason == ""
            state = bbox_to_landmark(box, CAMERA).state
            assert type(state.x) is float and type(state.y) is float
            np.testing.assert_array_equal(float_bits(got_xy), float_bits(want))
            np.testing.assert_array_equal(float_bits((state.x, state.y)), float_bits(want))
        reasons.discard(got_reason)
    assert not reasons  # both rejection reasons were exercised


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_logit_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    model = LogitModel(rng.normal(size=(N_ACTIONS, N_FEATURES)), reg=0.02)
    path = tmp_path / "logit.json"
    save_logit_model(model, str(path))
    assert set(json.loads(path.read_text())) == {"schema_version", "kind", "feature_map", "weights", "reg"}
    loaded = load_logit_model(str(path))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.reg == 0.02


def test_logit_loader_accepts_files_with_thresholds(tmp_path):
    doc = LogitModel(np.ones((N_ACTIONS, N_FEATURES)), reg=0.01).to_dict()
    doc["thresholds"] = {"accel": 0.5, "fast_speed": 4.0, "stopped_speed": 0.2}
    path = tmp_path / "logit.json"
    path.write_text(json.dumps(doc))
    loaded = load_logit_model(str(path))
    assert np.array_equal(loaded.weights, np.ones((N_ACTIONS, N_FEATURES)))
    assert loaded.reg == 0.01


def test_logit_loader_rejects_other_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "actionlet_model"}')
    with pytest.raises(ValueError):
        load_logit_model(str(path))
    path.write_text('{"kind": "logit_model", "feature_map": "something_else"}')
    with pytest.raises(ValueError):
        load_logit_model(str(path))
