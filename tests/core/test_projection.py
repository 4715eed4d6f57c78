"""Tests for the ternary random projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.projection import TernaryRandomProjection


class TestConstruction:
    def test_shape_and_values(self, rng):
        proj = TernaryRandomProjection(100, 20, rng)
        assert proj.signs.shape == (20, 100)
        assert set(np.unique(proj.signs)) <= {-1, 0, 1}

    def test_achlioptas_distribution(self, rng):
        proj = TernaryRandomProjection(600, 400, rng)
        flat = proj.signs.reshape(-1)
        zero_frac = np.mean(flat == 0)
        pos_frac = np.mean(flat == 1)
        assert abs(zero_frac - 2 / 3) < 0.01
        assert abs(pos_frac - 1 / 6) < 0.01

    def test_scale_value(self, rng):
        proj = TernaryRandomProjection(50, 10, rng)
        assert proj.scale == pytest.approx(np.sqrt(3.0 / 10))

    def test_must_reduce(self, rng):
        with pytest.raises(ValueError, match="reduce"):
            TernaryRandomProjection(10, 20, rng)

    def test_positive_dims(self, rng):
        with pytest.raises(ValueError, match="positive"):
            TernaryRandomProjection(10, 0, rng)


class TestApply:
    def test_matches_dense_matrix(self, rng):
        proj = TernaryRandomProjection(30, 8, rng)
        x = rng.normal(size=(5, 30))
        np.testing.assert_allclose(proj.apply(x), x @ proj.matrix.T, atol=1e-12)

    def test_trailing_dim_validated(self, rng):
        proj = TernaryRandomProjection(30, 8, rng)
        with pytest.raises(ValueError, match="trailing dim"):
            proj.apply(np.zeros((5, 31)))

    def test_higher_rank_inputs(self, rng):
        proj = TernaryRandomProjection(12, 4, rng)
        x = rng.normal(size=(2, 3, 12))
        out = proj.apply(x)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out[1, 2], proj.apply(x[1, 2:3])[0])

    def test_integer_path_matches_float(self, rng):
        """Adder-tree integer path == float path up to the shared scale."""
        proj = TernaryRandomProjection(20, 5, rng)
        q = rng.integers(-7, 8, size=(4, 20))
        int_out = proj.apply_integer(q)
        float_out = proj.apply(q.astype(np.float64))
        np.testing.assert_allclose(int_out * proj.scale, float_out, atol=1e-10)

    def test_integer_path_rejects_floats(self, rng):
        proj = TernaryRandomProjection(20, 5, rng)
        with pytest.raises(TypeError, match="integer"):
            proj.apply_integer(np.zeros((2, 20)))

    def test_addition_count_is_nnz(self, rng):
        proj = TernaryRandomProjection(40, 10, rng)
        assert proj.addition_count() == np.count_nonzero(proj.signs)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_distance_preservation_in_expectation(self, seed):
        """JL property: squared norms are preserved on average (loose)."""
        rng = np.random.default_rng(seed)
        proj = TernaryRandomProjection(256, 64, rng)
        x = rng.normal(size=(20, 256))
        orig = np.sum(x**2, axis=1)
        projected = np.sum(proj.apply(x) ** 2, axis=1)
        ratio = projected / orig
        assert 0.5 < ratio.mean() < 1.5
