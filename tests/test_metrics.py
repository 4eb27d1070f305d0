import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlusense.grid import BinaryMap, GridSpec
from occlusense.errors import SpecMismatchError
from occlusense.metrics import (
    aggregate_similarity,
    improvement_ratio,
    mean_and_se,
    posterior_mass_at_truth,
    score_pair,
)
from oracles import brute_force_directed, brute_force_psi, looped_similarity_summary


def psi(a, b):
    return score_pair(a, b).psi


def bmap(spec, bits):
    return BinaryMap(spec, np.array(bits, dtype=np.int8))


def terms(a, b, mask=None):
    """psi's four directed terms: d(a,b,0), d(a,b,1), d(b,a,0), d(b,a,1)."""
    s = score_pair(a, b, mask)
    return (s.d_ab_free, s.d_ab_occ, s.d_ba_free, s.d_ba_occ)


def oracle_terms(a, b, mask=None):
    return tuple(brute_force_directed(x, y, c, mask) for (x, y) in ((a, b), (b, a)) for c in (0, 1))


# ---------------------------------------------------------------------------
# directed terms of psi
# ---------------------------------------------------------------------------

def test_identity_is_zero():
    spec = GridSpec(3, 3)
    a = bmap(spec, np.random.default_rng(0).integers(0, 2, 9))
    assert terms(a, a) == (0.0, 0.0, 0.0, 0.0)


def test_single_cell_distance():
    spec = GridSpec(2, 1)
    a = bmap(spec, [1, 0])
    b = bmap(spec, [0, 1])
    assert terms(a, b) == (1.0, 1.0, 1.0, 1.0)


def test_empty_class_conventions():
    spec = GridSpec(3, 3)
    allfree = bmap(spec, [0] * 9)
    someocc = bmap(spec, [1, 0, 0, 0, 1, 0, 0, 0, 0])
    # no source cells of class 1 -> 0; a target without class 1 -> every
    # source cell pays the diameter (3 + 3), in either argument order
    s = score_pair(allfree, someocc)
    assert (s.d_ab_occ, s.d_ba_occ) == (0.0, 6.0)
    s = score_pair(someocc, allfree)
    assert (s.d_ab_occ, s.d_ba_occ) == (6.0, 0.0)


def test_rejects_layout_mismatch():
    a = bmap(GridSpec(2, 2), [0, 1, 0, 1])
    b = bmap(GridSpec(4, 1), [0, 1, 0, 1])
    with pytest.raises(SpecMismatchError):
        score_pair(a, b)
    with pytest.raises(ValueError):
        score_pair(a, a, np.ones(3, dtype=bool))


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        w, h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        spec = GridSpec(w, h)
        a = bmap(spec, rng.integers(0, 2, spec.n_cells))
        b = bmap(spec, rng.integers(0, 2, spec.n_cells))
        assert terms(a, b) == oracle_terms(a, b)


def test_masked_terms_match_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(80):
        w, h = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        spec = GridSpec(w, h)
        a = bmap(spec, rng.integers(0, 2, spec.n_cells))
        b = bmap(spec, rng.integers(0, 2, spec.n_cells))
        # sparse, dense, empty and full masks all occur
        mask = rng.random(spec.n_cells) < rng.choice([0.0, 0.2, 0.6, 1.0])
        assert terms(a, b, mask) == oracle_terms(a, b, mask)
        assert score_pair(a, b, mask).psi == brute_force_psi(a, b, mask)


def test_stacked_terms_match_brute_force_oracle_per_frame():
    rng = np.random.default_rng(5)
    n_frames = 16
    for _ in range(25):
        w, h = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        spec = GridSpec(w, h)

        def stack(shares):
            # Per-frame occupied shares of 0 and 1 give maps missing a class.
            return rng.random((n_frames, spec.n_cells)) < rng.choice(shares, size=(n_frames, 1))

        a, b = stack([0.0, 0.2, 0.5, 1.0]).astype(int), stack([0.0, 0.2, 0.5, 1.0]).astype(int)
        masks = stack([0.0, 0.3, 1.0])  # each frame its own mask: empty, sparse or full
        for mask in (masks, None):
            score = score_pair(bmap(spec, a), bmap(spec, b), mask)
            for k in range(n_frames):
                ak, bk, mk = bmap(spec, a[k]), bmap(spec, b[k]), None if mask is None else mask[k]
                got = (score.d_ab_free[k], score.d_ab_occ[k], score.d_ba_free[k], score.d_ba_occ[k])
                assert got == oracle_terms(ak, bk, mk)
                assert score.psi[k] == brute_force_psi(ak, bk, mk)


# ---------------------------------------------------------------------------
# psi (score_pair)
# ---------------------------------------------------------------------------

def test_psi_1x2_hand_case():
    spec = GridSpec(2, 1)
    a = bmap(spec, [1, 0])
    b = bmap(spec, [0, 1])
    # all four directed terms are 1.0
    assert psi(a, b) == 4.0


def test_psi_symmetry_and_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        spec = GridSpec(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        a = bmap(spec, rng.integers(0, 2, spec.n_cells))
        b = bmap(spec, rng.integers(0, 2, spec.n_cells))
        assert psi(a, b) == psi(b, a)
        assert psi(a, a) == 0.0
        assert psi(a, b) == brute_force_psi(a, b)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=6, max_size=6),
       st.lists(st.integers(0, 1), min_size=6, max_size=6))
def test_psi_nonnegative_symmetric(abits, bbits):
    spec = GridSpec(3, 2)
    a, b = bmap(spec, abits), bmap(spec, bbits)
    score = psi(a, b)
    assert score >= 0.0
    assert score == psi(b, a)


def test_score_pair_components_sum():
    spec = GridSpec(3, 2)
    rng = np.random.default_rng(3)
    a = bmap(spec, rng.integers(0, 2, 6))
    b = bmap(spec, rng.integers(0, 2, 6))
    s = score_pair(a, b)
    assert s.psi == math.fsum((s.d_ab_free, s.d_ab_occ, s.d_ba_free, s.d_ba_occ))
    assert s.psi == brute_force_psi(a, b)


def test_masked_scoring_restricts_cells():
    spec = GridSpec(3, 1)
    a = bmap(spec, [1, 0, 0])
    b = bmap(spec, [0, 0, 1])
    mask = np.array([True, True, False])
    # with cell 2 masked out, b has no occupied cells inside the mask
    assert score_pair(a, b, mask).d_ab_occ == 4.0  # diameter = 3 + 1
    assert score_pair(a, b, mask).d_ba_occ == 0.0
    assert score_pair(a, b).d_ab_occ == 2.0


# ---------------------------------------------------------------------------
# posterior mass / improvement ratio
# ---------------------------------------------------------------------------

def test_uniform_mass_16():
    posterior = np.full(16, 1.0 / 16.0)
    assert posterior_mass_at_truth(posterior, 5) == 0.0625


def test_mass_index_bounds():
    with pytest.raises(ValueError):
        posterior_mass_at_truth(np.array([0.5, 0.5]), 2)
    with pytest.raises(ValueError):
        posterior_mass_at_truth(np.array([0.5, 0.5]), -1)
    with pytest.raises(ValueError, match="truth index 2 outside"):
        posterior_mass_at_truth(np.array([0.5, 0.5]), np.array([0, 2, 1]))
    with pytest.raises(ValueError):
        posterior_mass_at_truth(np.array([0.5, 0.5]), np.array([-1]))


def test_mass_at_index_array_matches_single_indices():
    posterior = np.array([0.1, 0.2, 0.3, 0.4])
    index = np.array([3, 0, 3, 2])
    masses = posterior_mass_at_truth(posterior, index)
    assert masses.tolist() == [posterior_mass_at_truth(posterior, int(i)) for i in index]
    assert posterior_mass_at_truth(posterior, np.array([], dtype=np.int64)).shape == (0,)


def test_improvement_ratio_cases():
    assert improvement_ratio(0.257, 0.064) == pytest.approx(3.016, abs=5e-4)
    assert improvement_ratio(0.2, 0.2) == 0.0
    with pytest.raises(ValueError):
        improvement_ratio(0.5, 0.0)


def test_mean_and_se():
    mean, se = mean_and_se([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert se == pytest.approx(math.sqrt(1.0 / 3.0))
    assert mean_and_se(np.array([1.0, 2.0, 3.0])) == (mean, se)
    mean, se = mean_and_se([4.2])
    assert (mean, se) == (4.2, 0.0)
    with pytest.raises(ValueError):
        mean_and_se(np.array([]))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def columns(episodes: dict[int, list[tuple[float, float]]]):
    """(episode, t, psi) columns of per-episode (t, psi) series, in dict order."""
    rows = [(ep, t, p) for ep, series in episodes.items() for t, p in series]
    return tuple(np.array(col) for col in zip(*rows))


def test_aggregate_probes_start_mid_end():
    # two episodes with known psi time series
    ep1 = [(0.0, 4.0), (1.0, 2.0), (2.0, 0.0)]
    ep2 = [(0.0, 6.0), (0.5, 5.0), (1.0, 4.0), (1.5, 3.0)]
    summary = aggregate_similarity(*columns({0: ep1, 1: ep2}))
    values = [p for _, p in ep1 + ep2]
    assert summary["n_frames"] == 7
    assert summary["psi_mean"] == pytest.approx(np.mean(values))
    assert summary["probes"]["t0"] == {"mean": 5.0, "se": 1.0, "n": 2}
    assert summary["probes"]["end"]["mean"] == 1.5
    # ep1's middle t=1.0 holds psi 2.0; ep2's middle 0.75 is as near t=0.5
    # as t=1.0, and the tie goes to the earlier frame, psi 5.0.
    assert summary["probes"]["mid"]["mean"] == 3.5
    assert set(summary) == {"psi_mean", "psi_se", "n_frames", "probes"}
    assert set(summary["probes"]) == {"end", "mid", "t0"}
    assert summary == looped_similarity_summary([ep1, ep2])


def test_aggregate_one_frame_episodes():
    summary = aggregate_similarity(*columns({3: [(0.5, 7.0)], 4: [(0.25, 1.0), (0.5, 2.0)], 8: [(0.9, 4.0)]}))
    assert summary["n_frames"] == 4
    assert summary["probes"]["t0"]["mean"] == summary["probes"]["mid"]["mean"] == 4.0
    assert summary["probes"]["end"]["mean"] == pytest.approx(13.0 / 3.0)
    assert all(p["n"] == 3 for p in summary["probes"].values())
    single = aggregate_similarity(*columns({0: [(1.5, 2.5)]}))
    assert single == {"psi_mean": 2.5, "psi_se": 0.0, "n_frames": 1,
                      "probes": {k: {"mean": 2.5, "se": 0.0, "n": 1} for k in ("end", "mid", "t0")}}


def test_aggregate_splits_episodes_where_the_id_changes():
    # Ids with gaps and out of order: every change of id starts an episode.
    series = {17: [(0.25, 1.0), (0.5, 2.0)], 2: [(0.1, 3.0)], 40: [(0.0, 5.0), (0.25, 6.0), (0.5, 7.0)]}
    summary = aggregate_similarity(*columns(series))
    assert summary == looped_similarity_summary(list(series.values()))
    assert summary["probes"]["t0"]["mean"] == 3.0
    assert summary["probes"]["end"]["mean"] == 4.0
    assert summary["probes"]["mid"]["mean"] == 10.0 / 3.0  # 1.0 (tie, earlier frame), 3.0 and 6.0


@pytest.mark.parametrize("seed", range(5))
def test_aggregate_matches_a_loop_over_episodes(seed):
    """Times on a lattice of binary fractions make exact ties for the mid probe common."""
    rng = np.random.default_rng(seed)
    series = {}
    for ep in np.sort(rng.choice(500, size=rng.integers(1, 40), replace=False)):
        n = int(rng.integers(1, 12))
        t = np.sort(rng.choice(np.arange(0.0, 3.0, 0.25), size=n, replace=False)).tolist()
        series[int(ep)] = list(zip(t, rng.choice([0.0, 0.1, 1e-05, 2.0, rng.uniform(0, 9)], size=n).tolist()))
    assert aggregate_similarity(*columns(series)) == looped_similarity_summary(list(series.values()))


def test_aggregate_rejects_empty_or_mismatched_columns():
    with pytest.raises(ValueError, match="no frames"):
        aggregate_similarity(np.array([], dtype=int), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="length"):
        aggregate_similarity(np.array([0, 0]), np.array([0.0, 0.1]), np.array([1.0]))
