from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlusense import behavior
from occlusense.behavior import (
    FEATURE_DIM,
    ActionletModel,
    LikelihoodTable,
    assign_actionlet,
    estimate_likelihoods,
    extract_features,
    kmeans_fit,
    load_actionlet_model,
    load_likelihood_table,
    save_model_json,
)
from occlusense.errors import SpecMismatchError
from occlusense.grid import GridSpec, fuse_action, new_uniform_grid


@dataclass
class FakeLog:
    """Minimal stand-in exposing the arrays feature extraction reads."""

    t: np.ndarray
    occ_speed: np.ndarray
    occ_accel: np.ndarray
    occ_front_x: np.ndarray
    crosswalk_x: float = 10.0


def linear_log(v0=5.0, accel=0.0, duration=2.0, rate=20.0, front0=-15.0):
    t = np.arange(0.0, duration + 1e-9, 1.0 / rate)
    speed = v0 + accel * t
    front = front0 + v0 * t + 0.5 * accel * t**2
    return FakeLog(t, speed, np.full_like(t, accel), front)


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def split_row(row):
    """(crosswalk distance, velocity samples, acceleration samples)."""
    return row[0], row[1:11], row[11:]


def test_constant_speed_features():
    row = extract_features(linear_log(), t=1.0)
    assert row.shape == (FEATURE_DIM,)
    dist, vel, acc = split_row(row)
    assert dist == pytest.approx(20.0)  # 10 - (-15 + 5*1)
    np.testing.assert_allclose(vel, 5.0)
    np.testing.assert_allclose(acc, 0.0)


def test_braking_features_are_linear_ramp():
    _, vel, acc = split_row(extract_features(linear_log(v0=5.5, accel=-1.0), t=0.5))
    np.testing.assert_allclose(vel, 5.5 - np.linspace(0.0, 0.5, 10), atol=1e-12)
    np.testing.assert_allclose(acc, -1.0)
    # samples are oldest first
    assert vel[0] > vel[-1]


def test_window_coverage_errors():
    log = linear_log(duration=2.0)
    with pytest.raises(ValueError):
        extract_features(log, t=0.3)   # window would start before the log
    with pytest.raises(ValueError):
        extract_features(log, t=2.5)   # window ends after the log
    extract_features(log, t=0.5)       # exactly at the boundary is fine
    extract_features(log, t=2.0)
    with pytest.raises(ValueError):
        extract_features(linear_log(duration=0.0), t=0.0)  # a one-frame log covers no window


# ---------------------------------------------------------------------------
# k-means vocabulary
# ---------------------------------------------------------------------------

def two_blobs(rng, n=100, sigma=0.1):
    a = rng.normal(0.0, sigma, (n, FEATURE_DIM))
    b = rng.normal(5.0, sigma, (n, FEATURE_DIM))
    return np.vstack([a, b])


def test_kmeans_recovers_two_blobs():
    rng = np.random.default_rng(0)
    X = two_blobs(rng)
    model = kmeans_fit(X, k=2, seed=1)
    labels = np.array([assign_actionlet(model, x) for x in X])
    # each blob lands in exactly one cluster
    assert len(set(labels[:100])) == 1
    assert len(set(labels[100:])) == 1
    assert labels[0] != labels[100]
    # unscaled centroids sit within 3 standard errors of the blob means
    se = 0.1 / np.sqrt(100)
    for start in (0, 100):
        rows = slice(start, start + 100)
        cid = labels[start]
        raw = model.centroids[cid] * model.feature_scale + model.feature_mean
        assert np.all(np.abs(raw - X[rows].mean(axis=0)) < 3 * se)


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, FEATURE_DIM))
    m1 = kmeans_fit(X, k=10, seed=7)
    m2 = kmeans_fit(X, k=10, seed=7)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert m1.sse_history == m2.sse_history


def test_kmeans_sse_monotone():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, FEATURE_DIM))
    model = kmeans_fit(X, k=10, seed=3)
    hist = model.sse_history
    assert len(hist) >= 1
    assert all(b <= a + 1e-9 * max(1.0, a) for a, b in zip(hist, hist[1:]))


def test_kmeans_identical_points_degenerate():
    X = np.tile(np.arange(FEATURE_DIM, dtype=float), (5, 1))
    model = kmeans_fit(X, k=3, seed=0)
    assert model.sse_history[-1] == 0.0
    # every centroid collapses onto the single (scaled) point
    np.testing.assert_allclose(model.centroids, 0.0, atol=1e-12)


def test_kmeans_k1_is_global_mean():
    rng = np.random.default_rng(7)
    X = rng.normal(2.0, 1.5, (40, FEATURE_DIM))
    model = kmeans_fit(X, k=1, seed=0)
    raw = model.centroids[0] * model.feature_scale + model.feature_mean
    np.testing.assert_allclose(raw, X.mean(axis=0), atol=1e-12)


def test_kmeans_input_validation():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(4, FEATURE_DIM))
    with pytest.raises(ValueError):
        kmeans_fit(X, k=5, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(X, k=0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((4, 7)), k=2, seed=0)


def test_kmeans_accepts_feature_windows():
    windows = extract_features(linear_log(accel=-1.0), t=np.arange(0.5, 2.01, 0.25))
    assert windows.shape == (7, FEATURE_DIM)
    model = kmeans_fit(windows, k=2, seed=0)
    assert model.k == 2
    assert assign_actionlet(model, windows[0]) in (0, 1)
    assert set(assign_actionlet(model, windows).tolist()) <= {0, 1}


def reference_kmeans(X, k, max_iters=100, seed=0):
    """The direct Lloyd loop: a full (m, k, d) difference array for the
    distances, ``np.add.at`` for the centroid sums.  Returns the
    centroids, the SSE history, whether an empty cluster was re-seeded and
    whether the loop converged."""
    Xs = (X - X.mean(axis=0)) / X.std(axis=0)
    m = len(Xs)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, FEATURE_DIM))
    centroids[0] = Xs[rng.integers(m)]
    closest = ((Xs - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        idx = int(rng.integers(m)) if total <= 0.0 else int(rng.choice(m, p=closest / total))
        centroids[j] = Xs[idx]
        closest = np.minimum(closest, ((Xs - centroids[j]) ** 2).sum(axis=1))
    history, prev, reseeded = [], None, False
    for _ in range(max_iters):
        d = Xs[:, None, :] - centroids[None, :, :]
        sq = np.einsum("mkd,mkd->mk", d, d)
        assign = np.argmin(sq, axis=1)
        min_sq = sq[np.arange(m), assign]
        history.append(float(min_sq.sum()))
        if prev is not None and np.array_equal(assign, prev):
            return centroids, history, reseeded, True
        prev = assign
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros((k, FEATURE_DIM))
        np.add.at(sums, assign, Xs)
        nonempty = counts > 0
        centroids = centroids.copy()
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        taken = min_sq.copy()
        for j in np.flatnonzero(~nonempty):
            reseeded = True
            far = int(np.argmax(taken))
            centroids[j] = Xs[far]
            taken[far] = -1.0
    return centroids, history, reseeded, False


def kmeans_case(name):
    """(features, k, max_iters) of one bit-identity case."""
    rng = np.random.default_rng(21)
    if name.startswith("random"):
        return rng.normal(size=(500, FEATURE_DIM)) * rng.uniform(0.1, 10.0, FEATURE_DIM), 10, 100
    if name == "many_rows":
        return rng.normal(size=(5000, FEATURE_DIM)), 10, 100
    if name == "duplicate_rows":
        rows = rng.normal(size=(60, FEATURE_DIM))
        return np.repeat(rows, rng.integers(1, 6, len(rows)), axis=0), 10, 100
    if name == "emptied_cluster":
        # Three distinct points for five clusters: the extra seeds duplicate
        # earlier ones, lose every tie and are re-seeded.
        return np.repeat(rng.normal(size=(3, FEATURE_DIM)), 2, axis=0), 5, 100
    if name == "reseed_cycle":
        # The mean of seven equal rows is not always that row to the last
        # bit, so a cluster empties and is re-seeded on every iteration.
        return np.repeat(rng.normal(size=(3, FEATURE_DIM)), [7, 5, 9], axis=0), 5, 100
    assert name == "max_iters"
    return rng.normal(size=(400, FEATURE_DIM)), 10, 3


@pytest.mark.parametrize("case", ["random", "random_seed_4", "many_rows", "duplicate_rows", "emptied_cluster",
                                  "reseed_cycle", "max_iters"])
def test_kmeans_is_bit_identical_to_direct_loop(case):
    X, k, max_iters = kmeans_case(case)
    seed = 4 if case == "random_seed_4" else 0
    centroids, history, reseeded, converged = reference_kmeans(X, k, max_iters, seed)
    model = kmeans_fit(X, k=k, max_iters=max_iters, seed=seed)
    assert np.array_equal(model.centroids, centroids)
    assert model.sse_history == history
    assert model.stop_reason == ("converged" if converged else "max_iters")
    # each case exercises what its name says
    assert reseeded == (case in ("emptied_cluster", "reseed_cycle"))
    assert converged == (case not in ("reseed_cycle", "max_iters"))


def direct_nearest(Xs, C):
    d = Xs[:, None, :] - C[None, :, :]
    assign = np.argmin(np.einsum("mkd,mkd->mk", d, d), axis=1)
    e = Xs - C[assign]
    return assign, np.einsum("md,md->m", e, e)


def count_rechecked_rows(monkeypatch):
    """Rows the direct (m, k, d) rule is evaluated on, counted per call."""
    rows = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "mkd,mkd->mk":
            rows.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return rows


def nearest(Xs, C):
    return behavior._nearest_centroids(Xs, C, np.einsum("md,md->m", Xs, Xs))


def test_nearest_centroid_exact_ties_go_to_lowest_index(monkeypatch):
    rng = np.random.default_rng(31)
    # Small integers: every distance is an exact integer, so many rows are
    # equally far from two or more centroids.
    Xs = rng.integers(-1, 2, (300, FEATURE_DIM)).astype(float)
    C = rng.integers(-1, 2, (10, FEATURE_DIM)).astype(float)
    C[7] = C[2]
    exact = ((Xs[:, None, :].astype(int) - C[None].astype(int)) ** 2).sum(-1)
    tied = (exact == exact.min(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.sum() > 50
    want_assign, want_sq = direct_nearest(Xs, C)
    rechecked = count_rechecked_rows(monkeypatch)
    assign, min_sq = nearest(Xs, C)
    assert np.array_equal(assign, np.argmax(exact == exact.min(axis=1, keepdims=True), axis=1))
    assert np.array_equal(assign, want_assign)
    assert np.array_equal(min_sq, want_sq)
    assert sum(rechecked) >= tied.sum()


def test_nearest_centroid_recheck_repairs_cancellation(monkeypatch):
    rng = np.random.default_rng(3)
    # Offset by 1e4 with a spread of 1e-3: the expansion |x|^2 - 2 x.c + |c|^2
    # cancels to about 2e-6 absolute, the size of the gaps between centroids.
    Xs = 1e4 + rng.normal(0.0, 1e-3, (300, FEATURE_DIM))
    C = 1e4 + rng.normal(0.0, 1e-3, (10, FEATURE_DIM))
    want_assign, want_sq = direct_nearest(Xs, C)
    rechecked = count_rechecked_rows(monkeypatch)
    assign, min_sq = nearest(Xs, C)
    assert np.array_equal(assign, want_assign)
    assert np.array_equal(min_sq, want_sq)
    assert sum(rechecked) == len(Xs)
    # without the recheck the expansion alone ranks some rows wrongly
    monkeypatch.setattr(behavior, "_RECHECK_TOL", -np.inf)
    assert not np.array_equal(nearest(Xs, C)[0], want_assign)


def test_assign_matches_kmeans_labels():
    X, k, _ = kmeans_case("random")
    model = kmeans_fit(X, k=k, seed=2)
    want, _ = direct_nearest(model.scale(X), model.centroids)
    assert np.array_equal(assign_actionlet(model, X), want)
    assert [assign_actionlet(model, x) for x in X[:20]] == want[:20].tolist()


def test_assign_tie_breaks_to_lowest_index():
    centroids = np.zeros((5, FEATURE_DIM))
    centroids[1, 0] = 1.0
    centroids[4, 0] = -1.0
    centroids[0, 0] = centroids[2, 0] = centroids[3, 0] = 9.0
    model = ActionletModel(5, centroids, np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM))
    # the probe is equidistant from centroids 1 and 4; lowest index wins
    assert assign_actionlet(model, np.zeros(FEATURE_DIM)) == 1


def test_assign_rejects_bad_shape():
    model = ActionletModel(1, np.zeros((1, FEATURE_DIM)), np.zeros(FEATURE_DIM), np.ones(FEATURE_DIM))
    with pytest.raises(ValueError):
        assign_actionlet(model, np.zeros(5))


# ---------------------------------------------------------------------------
# likelihood table
# ---------------------------------------------------------------------------

def one_cell_samples(n_occ_a0=10, n_occ_a1=8):
    """(spec, labels, maps) of a one-cell grid that is always occupied."""
    labels = np.array([0] * n_occ_a0 + [1] * n_occ_a1)
    return GridSpec(1, 1), labels, np.ones((len(labels), 1), dtype=np.int64)


def test_laplace_smoothing_hand_case():
    spec, labels, maps = one_cell_samples()
    table = estimate_likelihoods([(labels, maps)], spec, n_actions=2, alpha=1.0)
    # entries[cell, action, occupancy]
    assert table.entries[0, 0, 1] == pytest.approx(11.0 / 20.0)
    assert table.entries[0, 1, 1] == pytest.approx(9.0 / 20.0)
    # the free state was never observed: smoothing alone -> uniform
    assert table.entries[0, 0, 0] == pytest.approx(0.5)
    table.validate()
    assert table.sample_counts[0, 1] == 18
    assert table.sample_counts[0, 0] == 0


def test_alpha_zero_gives_exact_frequencies():
    spec, labels, maps = one_cell_samples(4, 1)
    table = estimate_likelihoods([(labels, maps)], spec, n_actions=2, alpha=0.0)
    assert table.entries[0, 0, 1] == 0.8
    assert table.entries[0, 1, 1] == 0.2
    # unobserved state falls back to uniform rather than 0/0
    assert table.entries[0, 0, 0] == 0.5


@pytest.mark.parametrize("alpha", [1.0, 0.0, 0.37])
def test_counts_match_a_per_sample_tally(alpha):
    rng = np.random.default_rng(12)
    spec = GridSpec(3, 4)
    labels = rng.choice([0, 1, 3], size=200)  # action 2 never occurs
    maps = (rng.random((200, spec.n_cells)) < 0.3).astype(np.int64)
    maps[:, 5] = 1  # one cell never free
    table = estimate_likelihoods([(labels, maps)], spec, n_actions=4, alpha=alpha)
    counts = np.zeros((spec.n_cells, 4, 2), dtype=np.int64)
    for label, cells in zip(labels, maps):
        counts[np.arange(spec.n_cells), label, cells] += 1
    state_counts = counts.sum(axis=1)
    assert np.array_equal(table.sample_counts, state_counts)
    for i in range(spec.n_cells):
        for c in (0, 1):
            denom = state_counts[i, c] + alpha * 4
            want = (counts[i, :, c] + alpha) / denom if denom > 0 else np.full(4, 0.25)
            assert np.array_equal(table.entries[i, :, c], want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_chunking_gives_the_one_chunk_table(data):
    """The counts are integer sums over the chunks, so any split of the
    samples, empty chunks included, gives the bits of one chunk."""
    n, n_cells, k = data.draw(st.integers(0, 30)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    cells = st.lists(st.booleans(), min_size=n_cells, max_size=n_cells)
    maps = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.uint8).reshape(n, n_cells)
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, n), max_size=6))), n]
    alpha = data.draw(st.sampled_from([0.0, 0.37, 1.0]))
    spec = GridSpec(n_cells, 1)
    one = estimate_likelihoods([(labels, maps)], spec, n_actions=k, alpha=alpha)
    chunks = ((labels[lo:hi], maps[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    many = estimate_likelihoods(chunks, spec, n_actions=k, alpha=alpha)
    assert many.entries.tobytes() == one.entries.tobytes()
    assert many.sample_counts.tobytes() == one.sample_counts.tobytes()


def test_map_dtypes_give_identical_tables():
    rng = np.random.default_rng(13)
    spec = GridSpec(3, 4)
    # about 330 occupied samples per (cell, action): more than a uint8 holds
    labels = rng.integers(0, 3, 2000)
    occupied = rng.random((2000, spec.n_cells)) < 0.5
    tables = [estimate_likelihoods([(labels, occupied.astype(dtype))], spec, n_actions=4, alpha=1.0)
              for dtype in (bool, np.uint8, np.int64)]
    assert np.array_equal(tables[0].sample_counts[:, 1], np.count_nonzero(occupied, axis=0))
    for table in tables[1:]:
        assert np.array_equal(table.entries, tables[0].entries)
        assert np.array_equal(table.sample_counts, tables[0].sample_counts)
    with pytest.raises(ValueError, match="0 or 1"):
        estimate_likelihoods([([0], np.array([[2]], dtype=np.uint8))], GridSpec(1, 1), n_actions=2, alpha=1.0)


def test_likelihood_arrays_and_bounds():
    spec, labels, maps = one_cell_samples()
    table = estimate_likelihoods([(labels, maps)], spec, n_actions=3, alpha=1.0)
    lik_occ, lik_free = table.action_likelihood_arrays(0)
    assert lik_occ[0] == table.entries[0, 0, 1]
    assert lik_free[0] == table.entries[0, 0, 0]
    np.testing.assert_allclose(table.entries.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        table.action_likelihood_arrays(3)


def test_estimation_input_validation():
    spec = GridSpec(1, 1)
    occ = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        estimate_likelihoods([([5], occ)], spec, n_actions=2, alpha=1.0)
    with pytest.raises(ValueError):
        estimate_likelihoods([([0, 1], occ)], spec, n_actions=2, alpha=1.0)  # one label per map
    with pytest.raises(SpecMismatchError):
        estimate_likelihoods([([0], np.array([[1, 0]]))], spec, n_actions=2, alpha=1.0)
    with pytest.raises(ValueError, match="0 or 1"):
        estimate_likelihoods([([0], np.array([[2]]))], spec, n_actions=2, alpha=1.0)
    with pytest.raises(ValueError):
        estimate_likelihoods([([], np.empty((0, 1)))], spec, n_actions=0, alpha=1.0)
    with pytest.raises(ValueError):
        estimate_likelihoods([([], np.empty((0, 1)))], spec, n_actions=2, alpha=-0.5)


@pytest.mark.parametrize("value", [0.5, 0.9, 1.7])
def test_float_maps_are_refused_not_truncated(value):
    """A cast to integers counted 0.5 and 0.9 as free and 1.7 as occupied."""
    maps = np.array([[0.0, value]])
    with pytest.raises(ValueError, match="bool or integer"):
        estimate_likelihoods([([0], maps)], GridSpec(2, 1), n_actions=2, alpha=1.0)


def test_table_informative_for_correlated_cell_only():
    rng = np.random.default_rng(11)
    spec = GridSpec(2, 1)
    maps = rng.integers(0, 2, size=(400, 2))
    table = estimate_likelihoods([(maps[:, 0], maps)], spec, n_actions=2, alpha=1.0)  # the action is cell 0's state
    fused = fuse_action(new_uniform_grid(spec), table, action=1)
    assert fused.probs[0] > 0.6          # the action encodes this cell's state
    assert abs(fused.probs[1] - 0.5) < 0.1   # independent cell stays near prior


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_actionlet_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    model = kmeans_fit(rng.normal(size=(30, FEATURE_DIM)), k=4, seed=9)
    path = tmp_path / "actionlets.json"
    save_model_json(model, str(path))
    loaded = load_actionlet_model(str(path))
    assert loaded.k == model.k
    assert np.array_equal(loaded.centroids, model.centroids)
    assert np.array_equal(loaded.feature_mean, model.feature_mean)
    assert np.array_equal(loaded.feature_scale, model.feature_scale)


def test_likelihood_table_json_round_trip(tmp_path):
    spec, labels, maps = one_cell_samples()
    table = estimate_likelihoods([(labels, maps)], spec, n_actions=2, alpha=1.0)
    path = tmp_path / "likelihoods.json"
    save_model_json(table, str(path))
    loaded = load_likelihood_table(str(path))
    assert loaded.spec == table.spec
    assert np.array_equal(loaded.entries, table.entries)
    assert np.array_equal(loaded.sample_counts, table.sample_counts)
    assert loaded.alpha == table.alpha


def test_loaders_reject_wrong_kind(tmp_path):
    spec, labels, maps = one_cell_samples()
    table = estimate_likelihoods([(labels, maps)], spec, n_actions=2, alpha=1.0)
    path = tmp_path / "likelihoods.json"
    save_model_json(table, str(path))
    with pytest.raises(ValueError):
        load_actionlet_model(str(path))
