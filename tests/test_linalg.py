"""Design construction, and least squares under the fit's rank rule."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebshrink.errors import BadShape, NonFinite, RankDeficient
from ebshrink.em import FitOptions, fit, ols
from ebshrink.linalg import _checked_cholesky, build_design

from conftest import one_tissue
from test_em import collinear_panel


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
        # x'x is one symmetric (syrk) product, one triangle mirrored, at any size
        wide = build_design(rng.standard_normal((1000, 64))).gram
        for gram in (d.gram, wide):
            assert np.array_equal(gram, gram.T)


class TestOls:
    def test_hand_full(self):
        d = build_design([[1.0], [1.0]])
        assert_allclose(ols(d, one_tissue([1.0, 3.0])), [[2.0]])

    def test_zero_response(self):
        rng = np.random.default_rng(0)
        d = random_design(rng, 7, 3)
        assert_allclose(ols(d, one_tissue(np.zeros(7))), np.zeros((1, 3)), atol=0)

    def test_hand_masked(self):
        d = build_design([[1.0], [1.0], [1.0]])
        assert_allclose(ols(d, one_tissue([1.0, 3.0, 5.0], [True, False, True])), [[3.0]])

    def test_normal_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_design(rng, 12, 4)
            y = rng.standard_normal(12)
            beta = ols(d, one_tissue(y))[0]
            lhs = d.gram @ beta - d.x.T @ y
            assert np.max(np.abs(lhs)) <= 1e-8 * np.max(np.abs(d.x.T @ y))

    def test_masked_matches_subset_lstsq(self):
        rng = np.random.default_rng(12)
        d = random_design(rng, 10, 3)
        y = rng.standard_normal(10)
        mask = np.array([True] * 6 + [False] * 4)
        ref, *_ = np.linalg.lstsq(d.x[mask], y[mask], rcond=None)
        assert_allclose(ols(d, one_tissue(y, mask))[0], ref, rtol=1e-9)

    def test_masked_rank_deficient(self):
        # p+1 = 4 observed rows, all with a zero third coordinate
        x = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 0], [0, 0, 1], [1, 1, 1]]
        d = build_design(np.array(x, dtype=np.float64))
        with pytest.raises(RankDeficient, match="observed-row"):
            ols(d, one_tissue(np.arange(6.0), [True] * 4 + [False] * 2))

    def test_p_observed_rows_bad_shape(self):
        rng = np.random.default_rng(13)
        d = random_design(rng, 6, 3)
        y = rng.standard_normal(6)
        with pytest.raises(BadShape, match="need at least p\\+1 = 4"):
            ols(d, one_tissue(y, [True] * 3 + [False] * 3))

    def test_masked_pivot_check_is_scale_free(self):
        # t2's observed rows nearly satisfy column 3 = column 0 + column 1;
        # rescaling the columns leaves that share, and the fit, unchanged
        x, panel = collinear_panel(1e-3)
        scale = np.array([100.0, 1.0, 1.0, 0.01])
        base = ols(build_design(x), panel)
        scaled = ols(build_design(x * scale), panel)
        assert_allclose(scaled * scale, base, rtol=1e-8)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_masked_collinear_rows_rejected(self, scale):
        x, panel = collinear_panel(0.0)
        x[:, 0] *= scale
        with pytest.raises(RankDeficient, match="observed-row X'X for tissue t2"):
            ols(build_design(x), panel)

    @pytest.mark.parametrize("noise, rejected", [(0.0, True), (3e-6, True), (1e-3, False)])
    def test_one_rank_rule_with_fit(self, noise, rejected):
        # at noise 3e-6 t2's observed rows hold about 7e-13 of X'X along one
        # direction, while every pivot of their raw Gram keeps more than
        # 1e-12 of its diagonal: a pivot rule would accept what fit rejects
        x, panel = collinear_panel(noise)
        d = build_design(x)
        rejection = "observed-row X'X for tissue t[0-9] is numerically rank deficient"
        calls = [
            lambda: ols(d, panel),
            lambda: fit(d, panel, FitOptions(max_iter=2)),
        ]
        for call in calls:
            if rejected:
                with pytest.raises(RankDeficient, match=rejection):
                    call()
            else:
                call()


class TestCheckedCholesky:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # np.linalg.cholesky returns NaN here without raising
        a = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(NonFinite, match="probe"):
            _checked_cholesky(a, "probe")
