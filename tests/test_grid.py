import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlusense.errors import SpecMismatchError
from occlusense.grid import (
    BinaryMap,
    GridSpec,
    OccupancyGrid,
    bayes_cell_update,
    fuse_action,
    joint_map_probability,
    new_uniform_grid,
    threshold,
)
from oracles import (
    cell_center,
    cell_index,
    col_row,
    enumeration_fused_posterior,
    enumeration_prior_check,
    random_likelihood_table,
)

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------

def test_spec_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        GridSpec(0, 7)
    with pytest.raises(ValueError):
        GridSpec(6, 0)
    with pytest.raises(ValueError):
        GridSpec(6, 7, resolution=0.0)


def test_spec_index_round_trip():
    spec = GridSpec(6, 7, 0.5, (3.0, -1.0))
    seen = set()
    for row in range(7):
        for col in range(6):
            i = cell_index(spec, col, row)
            assert col_row(spec, i) == (col, row)
            seen.add(i)
    assert seen == set(range(42))
    # The program's vectorised layout agrees with the one-cell oracle.
    coords = [col_row(spec, i) for i in range(spec.n_cells)]
    assert spec.cell_coords().tolist() == [list(c) for c in coords]
    assert spec.cell_centers().tolist() == [list(cell_center(spec, *c)) for c in coords]


def test_layout_matches_ignores_origin():
    a = GridSpec(6, 7, 1.0, (0.0, 0.0), "occluder")
    b = GridSpec(6, 7, 1.0, (100.0, -3.0), "occluder")
    c = GridSpec(6, 7, 0.5, (0.0, 0.0), "occluder")
    assert a.layout_matches(b)
    assert not a.layout_matches(c)
    assert not a.layout_matches(GridSpec(6, 7, 1.0, (0.0, 0.0), "world"))


def test_spec_dict_round_trip():
    spec = GridSpec(4, 3, 0.5, (1.5, -2.0), "ego")
    assert GridSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# new_uniform_grid
# ---------------------------------------------------------------------------

def test_uniform_grid_examples():
    assert np.array_equal(new_uniform_grid(GridSpec(2, 2)).probs, [0.5] * 4)
    assert np.array_equal(new_uniform_grid(GridSpec(1, 1)).probs, [0.5])


# ---------------------------------------------------------------------------
# bayes_cell_update
# ---------------------------------------------------------------------------

def test_bayes_hand_cases():
    # (0.5, 0.6, 0.2): 0.3 / (0.3 + 0.1) = 0.75
    assert bayes_cell_update(0.5, 0.6, 0.2) == pytest.approx(0.75, abs=1e-15)
    assert bayes_cell_update(1.0, 0.3, 0.9) == 1.0


def test_bayes_uninformative_is_identity():
    for lik in (0.1, 0.5, 0.9, 1.0):
        assert bayes_cell_update(0.5, lik, lik) == pytest.approx(0.5, abs=1e-15)


def test_bayes_degenerate_denominator_errors():
    with pytest.raises(ValueError):
        bayes_cell_update(0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        bayes_cell_update(1.0, 0.0, 0.7)  # all weight on occupied, zero likelihood


def test_bayes_rejects_out_of_range():
    with pytest.raises(ValueError):
        bayes_cell_update(1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        bayes_cell_update(0.5, -0.1, 0.5)


def test_bayes_works_elementwise_on_arrays():
    prior = np.array([0.5, 1.0, 0.25])
    lik_occ = np.array([0.6, 0.3, 0.9])
    lik_free = np.array([0.2, 0.9, 0.1])
    posterior = bayes_cell_update(prior, lik_occ, lik_free)
    assert posterior.tolist() == [bayes_cell_update(*args) for args in zip(prior, lik_occ, lik_free)]
    with pytest.raises(ValueError, match="cell 1"):
        bayes_cell_update(prior, np.array([0.6, 0.0, 0.9]), lik_free)
    with pytest.raises(ValueError):
        bayes_cell_update(np.array([0.5, -0.1]), 0.5, 0.5)


@given(prior=st.floats(0.01, 0.99), lik_occ=st.floats(0.01, 1.0), lik_free=st.floats(0.01, 1.0))
def test_bayes_output_in_unit_interval(prior, lik_occ, lik_free):
    assert 0.0 <= bayes_cell_update(prior, lik_occ, lik_free) <= 1.0


@given(prior=st.floats(0.01, 0.99), lik_free=st.floats(0.01, 1.0),
       lo=st.floats(0.01, 1.0), hi=st.floats(0.01, 1.0))
def test_bayes_monotone_in_occupied_likelihood(prior, lik_free, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    assert bayes_cell_update(prior, lo, lik_free) <= bayes_cell_update(prior, hi, lik_free) + 1e-15


# ---------------------------------------------------------------------------
# fuse_action
# ---------------------------------------------------------------------------

def test_fuse_uninformative_table_is_identity():
    spec = GridSpec(3, 2)
    rng = np.random.default_rng(0)
    table = random_likelihood_table(spec, 4, rng)
    table.entries[:, :, 1] = table.entries[:, :, 0]  # equal likelihoods per state
    grid = OccupancyGrid(spec, rng.uniform(0.1, 0.9, spec.n_cells))
    fused = fuse_action(grid, table, 2)
    np.testing.assert_allclose(fused.probs, grid.probs, atol=1e-15)


def test_fuse_single_cell_arithmetic():
    spec = GridSpec(2, 1)
    table = random_likelihood_table(spec, 2, np.random.default_rng(1))
    table.entries[0, 0, 1] = 0.9  # p(a=0 | cell0 occupied)
    table.entries[0, 0, 0] = 0.1  # p(a=0 | cell0 free)
    fused = fuse_action(new_uniform_grid(spec), table, 0)
    assert fused.probs[0] == pytest.approx(0.9, abs=1e-12)
    expected1 = bayes_cell_update(0.5, table.entries[1, 0, 1], table.entries[1, 0, 0])
    assert fused.probs[1] == pytest.approx(expected1, abs=1e-15)


def test_fuse_certainty_is_absorbing():
    spec = GridSpec(2, 2)
    table = random_likelihood_table(spec, 3, np.random.default_rng(2))
    grid = OccupancyGrid(spec, np.ones(4))
    fused = fuse_action(grid, table, 1)
    assert np.array_equal(fused.probs, np.ones(4))


def test_fuse_layout_mismatch_raises():
    table = random_likelihood_table(GridSpec(2, 2), 3, np.random.default_rng(3))
    grid = new_uniform_grid(GridSpec(3, 2))
    with pytest.raises(SpecMismatchError):
        fuse_action(grid, table, 0)


def test_fuse_commutes_across_actions():
    spec = GridSpec(3, 3)
    rng = np.random.default_rng(4)
    table = random_likelihood_table(spec, 5, rng)
    grid = OccupancyGrid(spec, rng.uniform(0.05, 0.95, spec.n_cells))
    ab = fuse_action(fuse_action(grid, table, 1), table, 3)
    ba = fuse_action(fuse_action(grid, table, 3), table, 1)
    np.testing.assert_allclose(ab.probs, ba.probs, atol=1e-12)


def test_fuse_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        spec = GridSpec(w, h)
        k = int(rng.integers(2, 6))
        table = random_likelihood_table(spec, k, rng)
        grid = OccupancyGrid(spec, rng.uniform(0.01, 0.99, spec.n_cells))
        enumeration_prior_check(grid, 8, rng)
        action = int(rng.integers(0, k))
        fused = fuse_action(grid, table, action)
        expected = enumeration_fused_posterior(grid, table, action)
        np.testing.assert_allclose(fused.probs, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

def test_threshold_boundary_inclusive():
    spec = GridSpec(3, 1)
    grid = OccupancyGrid(spec, np.array([0.6, 0.59, 0.0]))
    assert threshold(grid, 0.6).cells.tolist() == [1, 0, 0]


def test_threshold_rejects_degenerate_tau():
    grid = new_uniform_grid(GridSpec(1, 1))
    for tau in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            threshold(grid, tau)


# ---------------------------------------------------------------------------
# joint_map_probability
# ---------------------------------------------------------------------------

def test_joint_probability_cases():
    spec = GridSpec(2, 1)
    uniform = new_uniform_grid(spec)
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert joint_map_probability(uniform, BinaryMap(spec, bits)) == pytest.approx(0.25)
    certain = OccupancyGrid(spec, np.array([1.0, 0.0]))
    assert joint_map_probability(certain, BinaryMap(spec, [1, 0])) == 1.0
    grid = OccupancyGrid(spec, np.array([0.75, 0.25]))
    assert joint_map_probability(grid, BinaryMap(spec, [1, 1])) == pytest.approx(0.1875)


@settings(max_examples=30)
@given(st.integers(0, 2**6 - 1))
def test_joint_probabilities_sum_to_one(seed_bits):
    spec = GridSpec(3, 2)
    rng = np.random.default_rng(seed_bits)
    grid = OccupancyGrid(spec, rng.uniform(0, 1, 6))
    total = sum(
        joint_map_probability(grid, BinaryMap(spec, [(m >> i) & 1 for i in range(6)]))
        for m in range(2**6)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_occupancy_grid_validates_range():
    spec = GridSpec(2, 1)
    with pytest.raises(ValueError):
        OccupancyGrid(spec, np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        OccupancyGrid(spec, np.array([np.nan, 0.5]))
    with pytest.raises(ValueError):
        BinaryMap(spec, np.array([0, 2]))


@pytest.mark.parametrize("bad", [[0.5, 1.0], [256, 0], [-1, 1], [np.nan, 0.0]])
def test_binary_map_rejects_values_a_cast_would_hide(bad):
    # Cast to uint8 first, 0.5 would become 0, 256 would wrap to 0 and -1 to 255.
    with pytest.raises(ValueError, match="0 or 1"):
        BinaryMap(GridSpec(2, 1), np.array(bad))


def test_binary_map_stores_uint8_and_views_bool_masks():
    spec = GridSpec(3, 1)
    mask = np.array([True, False, True])
    cells = BinaryMap(spec, mask).cells
    assert cells.dtype == np.uint8 and cells.tolist() == [1, 0, 1]
    assert np.shares_memory(cells, mask)
    assert BinaryMap(spec, [1.0, 0.0, 1]).cells.tolist() == [1, 0, 1]
    assert threshold(OccupancyGrid(spec, np.array([0.9, 0.1, 0.6])), 0.6).cells.dtype == np.uint8
