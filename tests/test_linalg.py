"""Design construction and OLS."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebshrink.errors import BadShape, NonFinite, RankDeficient
from ebshrink.linalg import _checked_cholesky, build_design, ols


def random_design(rng, n, p):
    return build_design(rng.standard_normal((n, p)))


class TestBuildDesign:
    def test_gram_hand_value(self):
        d = build_design([[1.0], [1.0]])
        assert_allclose(d.gram, [[2.0]])
        assert d.n == 2 and d.p == 1

    def test_orthonormal_columns(self):
        d = build_design([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert_allclose(d.gram, np.eye(2))

    def test_duplicate_columns_rank_deficient(self):
        with pytest.raises(RankDeficient):
            build_design([[1.0, 1.0], [2.0, 2.0]])

    def test_wide_matrix_bad_shape(self):
        with pytest.raises(BadShape):
            build_design(np.ones((2, 3)))

    def test_square_full_rank_bad_shape(self):
        # shape is still wrong even though the Gram factorizes
        with pytest.raises(BadShape):
            build_design([[1.0, 0.0], [0.0, 1.0]])

    def test_nan_rejected(self):
        x = np.ones((4, 2))
        x[1, 1] = np.nan
        with pytest.raises(NonFinite):
            build_design(x)

    def test_gram_matches_matmul(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 4))
        d = build_design(x)
        assert_allclose(d.gram, x.T @ x, rtol=1e-10)
        assert_allclose(d.gram_factor @ d.gram_factor.T, d.gram, rtol=1e-12)


class TestOls:
    def test_hand_full(self):
        d = build_design([[1.0], [1.0]])
        assert_allclose(ols(d, [1.0, 3.0]), [2.0])

    def test_zero_response(self):
        rng = np.random.default_rng(0)
        d = random_design(rng, 7, 3)
        assert_allclose(ols(d, np.zeros(7)), np.zeros(3), atol=0)

    def test_hand_masked(self):
        d = build_design([[1.0], [1.0]])
        assert_allclose(ols(d, [1.0, 3.0], mask=[True, False]), [1.0])

    def test_normal_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_design(rng, 12, 4)
            y = rng.standard_normal(12)
            beta = ols(d, y)
            lhs = d.gram @ beta - d.x.T @ y
            assert np.max(np.abs(lhs)) <= 1e-8 * np.max(np.abs(d.x.T @ y))

    def test_masked_matches_subset_lstsq(self):
        rng = np.random.default_rng(12)
        d = random_design(rng, 10, 3)
        y = rng.standard_normal(10)
        mask = np.array([True] * 6 + [False] * 4)
        ref, *_ = np.linalg.lstsq(d.x[mask], y[mask], rcond=None)
        assert_allclose(ols(d, y, mask=mask), ref, rtol=1e-9)

    def test_masked_rank_deficient(self):
        d = build_design(np.vstack([np.eye(3), np.ones((2, 3))]))
        y = np.arange(5.0)
        # keep two rows: 2 < p, observed Gram singular
        with pytest.raises(RankDeficient):
            ols(d, y, mask=[True, True, False, False, False])


class TestCheckedCholesky:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # np.linalg.cholesky returns NaN here without raising
        a = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(NonFinite, match="probe"):
            _checked_cholesky(a, "probe")
