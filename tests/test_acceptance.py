"""Acceptance gate: the guarantees this package ships with.

Each test checks one numbered criterion end to end and prints a single
``[ACCEPT] criterion N: PASS`` / ``FAIL`` line.  Run with output enabled
to see the lines as they go by:

    pytest tests/test_acceptance.py -v -s

Criterion 3 runs the full default pipeline (1440 episodes) and dominates
the wall time; everything else finishes in seconds.
"""

import hashlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from occlusense.behavior import FEATURE_DIM, kmeans_fit
from occlusense.cli import main
from occlusense.grid import BinaryMap, GridSpec, OccupancyGrid, fuse_action
from occlusense.landmark import fit_logit, loglik_gradient, regularized_loglik
from occlusense.metrics import score_pair
from occlusense.perception import raycast_scan, visibility_mask

from oracles import (
    brute_force_psi,
    dense_resampled_scan,
    enumeration_fused_posterior,
    enumeration_prior_check,
    random_likelihood_table,
    random_occlusion_scene,
    rule_visibility_mask,
)


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPT] criterion {n}: FAIL")
        raise
    print(f"\n[ACCEPT] criterion {n}: PASS")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# 1. Closed-form action fusion equals full joint enumeration.
# ---------------------------------------------------------------------------

def test_criterion_1_fusion_matches_enumeration():
    with criterion(1):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            spec = GridSpec(n, 1, 1.0, (0.0, 0.0), "world")
            grid = OccupancyGrid(spec, rng.uniform(0.05, 0.95, n))
            n_actions = int(rng.integers(1, 5))
            table = random_likelihood_table(spec, n_actions, rng)
            action = int(rng.integers(n_actions))

            fused = fuse_action(grid, table, action).probs
            reference = enumeration_fused_posterior(grid, table, action)
            assert np.max(np.abs(fused - reference)) <= 1e-12
            # The enumeration's factorized prior is itself anchored to the
            # joint map probability on random realizations.
            enumeration_prior_check(grid, 5, rng)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Map similarity: identity, symmetry, brute-force agreement, hand case.
# ---------------------------------------------------------------------------

def test_criterion_2_similarity_matches_brute_force():
    with criterion(2):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = int(rng.integers(1, 9))
            h = int(rng.integers(1, 9))
            spec = GridSpec(w, h, 1.0, (0.0, 0.0), "world")
            a = BinaryMap(spec, rng.integers(0, 2, w * h))
            b = BinaryMap(spec, rng.integers(0, 2, w * h))
            psi = score_pair(a, b).psi
            assert psi == brute_force_psi(a, b)
            assert psi == score_pair(b, a).psi
            assert score_pair(a, a).psi == 0.0

        # Hand-checked 1x2 case: each directed term walks one cell.
        spec = GridSpec(2, 1, 1.0, (0.0, 0.0), "world")
        assert score_pair(BinaryMap(spec, [1, 0]), BinaryMap(spec, [0, 1])).psi == 4.0


# ---------------------------------------------------------------------------
# 3. Full pipeline: behavior fusion beats the plain inverse sensor model.
# ---------------------------------------------------------------------------

def test_criterion_3_fused_maps_beat_standard(tmp_path):
    with criterion(3):
        start = time.perf_counter()
        out = tmp_path / "pipeline"
        dataset = out / "dataset.jsonl"
        assert main(["simulate", "--out", str(out)]) == 0
        assert main(["train", "--dataset", str(dataset), "--out", str(out)]) == 0
        assert main(["eval", "--dataset", str(dataset), "--models", str(out),
                     "--out", str(out)]) == 0

        sim = json.loads((out / "manifest_simulate.json").read_text())
        assert sim["counters"]["episodes"] >= 200

        summary = json.loads((out / "eval_summary.json").read_text())
        standard = summary["methods"]["standard"]["psi_mean"]
        fused = summary["methods"]["fused"]["psi_mean"]
        assert fused < standard
        assert fused / standard < 0.7
        assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 4. Landmark posteriors: mass at ground truth beats the uniform prior
#    for the actions that correlate with nearby pedestrians.
# ---------------------------------------------------------------------------

ACTION_LABELS = ["moving_fast", "moving_slow", "accelerating", "decelerating", "stopped"]

REGION_CFG = """\
region.x_min = -3
region.x_max = 3
region.y_min = 1
region.y_max = 25
region.step = 1
"""


def _distance_band(y: float) -> str:
    if y < 6.0:
        return "stopped"
    if y < 14.0:
        return "decelerating"
    return "moving_fast"


def _landmark_records(rng, n_clips=4, n_train=150, n_eval=60):
    """Clips where the action depends on forward distance, with label noise.

    Directly observed (non-occluded) records train the model; occluded
    records sit on the candidate lattice and are the evaluation targets,
    drawn from the same distance bands.
    """
    records = []
    for c in range(n_clips):
        clip = f"clip{c:02d}"
        for _ in range(n_train):
            x = float(rng.uniform(-3, 3))
            y = float(rng.uniform(1, 25))
            action = _distance_band(y) if rng.random() < 0.9 else ACTION_LABELS[int(rng.integers(5))]
            records.append({"clip_id": clip, "frame": 0, "x": x, "y": y,
                            "cov": [[1.0, 0.0], [0.0, 1.0]], "action": action,
                            "occluded": False})
        for _ in range(n_eval):
            draw = rng.random()
            if draw < 0.4:
                action, lo, hi = "stopped", 1, 5
            elif draw < 0.7:
                action, lo, hi = "decelerating", 7, 13
            else:
                action, lo, hi = "moving_fast", 15, 25
            records.append({"clip_id": clip, "frame": 0,
                            "x": float(rng.integers(-3, 4)),
                            "y": float(rng.integers(lo, hi + 1)),
                            "cov": [[1.0, 0.0], [0.0, 1.0]], "action": action,
                            "occluded": True})
    return records


def test_criterion_4_informed_landmark_posteriors(tmp_path):
    with criterion(4):
        start = time.perf_counter()
        dataset = tmp_path / "landmarks.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n"
                                   for r in _landmark_records(np.random.default_rng(0))))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(REGION_CFG)
        out = tmp_path / "out"
        common = ["--mode", "landmark", "--config", str(cfg), "--seed", "0", "--out", str(out)]
        assert main(["train", "--dataset", str(dataset)] + common) == 0
        assert main(["eval", "--dataset", str(dataset), "--models", str(out)] + common) == 0

        actions = json.loads((out / "eval_summary.json").read_text())["actions"]
        assert actions["stopped"]["improvement_ratio"] > 0.2
        assert actions["decelerating"]["improvement_ratio"] > 0.0
        # moving_fast carries no constraint: distant pedestrians spread its
        # posterior thin, and the mass at truth may fall below the prior.
        assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 5. Clustering: SSE never increases, and well-separated blobs are found.
# ---------------------------------------------------------------------------

def test_criterion_5_kmeans_monotone_and_recovers_blobs():
    with criterion(5):
        rng = np.random.default_rng(55)
        for seed in range(50):
            X = rng.normal(size=(60, FEATURE_DIM)) * rng.uniform(0.5, 3.0, size=FEATURE_DIM)
            model = kmeans_fit(X, k=4, seed=seed)
            sse = model.sse_history
            assert all(later <= earlier for earlier, later in zip(sse, sse[1:]))

        means = np.stack([np.zeros(FEATURE_DIM), np.full(FEATURE_DIM, 5.0)])
        blob_rng = np.random.default_rng(56)
        X = np.vstack([m + 0.1 * blob_rng.standard_normal((100, FEATURE_DIM)) for m in means])
        model = kmeans_fit(X, k=2, seed=0)
        found = model.centroids * model.feature_scale + model.feature_mean
        found = found[np.argsort(found[:, 0])]
        assert np.all(np.abs(found - means) < 3 * 0.1 / math.sqrt(100))


# ---------------------------------------------------------------------------
# 6. Action-model training: monotone objective, trustworthy gradients.
# ---------------------------------------------------------------------------

def test_criterion_6_logit_monotone_and_gradients_check():
    with criterion(6):
        rng = np.random.default_rng(66)
        for _ in range(20):
            m = int(rng.integers(5, 40))
            X = rng.uniform(-10, 25, size=(m, 2))
            y = rng.integers(0, 5, size=m)
            W = rng.normal(scale=0.5, size=(5, 4))
            reg = float(10.0 ** rng.uniform(-3, -1))
            grad = loglik_gradient(W, X, y, reg)
            for _ in range(6):
                i, j = int(rng.integers(5)), int(rng.integers(4))
                h = 1e-6
                bumped = W.copy()
                bumped[i, j] += h
                hi = regularized_loglik(bumped, X, y, reg)
                bumped[i, j] -= 2 * h
                lo = regularized_loglik(bumped, X, y, reg)
                fd = (hi - lo) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-5 * max(1e-2, abs(fd))

        for _ in range(5):
            m = int(rng.integers(30, 80))
            X, y = rng.uniform(-10, 25, size=(m, 2)), rng.integers(0, 5, size=m)
            history = fit_logit(X, y, reg=0.05, max_iters=2000).loglik_history
            assert all(later >= earlier for earlier, later in zip(history, history[1:]))


# ---------------------------------------------------------------------------
# 7. Determinism: the whole pipeline is byte-identical under a fixed seed.
# ---------------------------------------------------------------------------

ARTIFACTS = ("dataset.jsonl", "actionlets.json", "likelihoods.json",
             "eval_frames.csv", "eval_summary.json")


def test_criterion_7_pipeline_is_byte_identical(tmp_path):
    with criterion(7):
        digests = []
        for name in ("first", "second"):
            out = tmp_path / name
            dataset = out / "dataset.jsonl"
            assert main(["simulate", "--episodes", "12", "--seed", "5", "--out", str(out)]) == 0
            assert main(["train", "--dataset", str(dataset), "--seed", "5",
                         "--out", str(out)]) == 0
            assert main(["eval", "--dataset", str(dataset), "--models", str(out),
                         "--seed", "5", "--out", str(out)]) == 0
            digests.append({a: sha256(out / a) for a in ARTIFACTS})
        assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# 8. Visibility labeling agrees exactly with a 10x-density ray oracle.
# ---------------------------------------------------------------------------

def test_criterion_8_visibility_matches_dense_ray_oracle():
    with criterion(8):
        rng = np.random.default_rng(88)
        n_beams, max_range = 120, 30.0
        for _ in range(100):
            scene, ego, spec = random_occlusion_scene(rng)
            scan = raycast_scan(scene, ego, n_beams, max_range)
            _, _, coarse = dense_resampled_scan(scene, ego, n_beams, max_range, density=10)
            # The production scan and the resampled dense field must tell the
            # same story before their visibility labels are compared.
            assert np.array_equal(scan.hits, coarse["hits"])
            assert np.allclose(scan.ranges, coarse["ranges"], atol=1e-9, rtol=0.0)
            mask = visibility_mask(scan, spec)[0]
            reference = rule_visibility_mask(spec, ego, coarse, max_range)
            assert np.array_equal(mask, reference)
