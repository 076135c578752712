"""Posterior summaries against quadrature and dense-covariance oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebshrink.em import tissue_posterior
from ebshrink.errors import BadShape, NonFinite
from ebshrink.linalg import build_design
from ebshrink.posterior import PriorParams

from conftest import one_tissue
from oracles import (
    dense_component_logliks,
    dense_responsibility,
    quad_posterior_mean_1d,
)


class TestPriorParams:
    def test_clamps(self):
        p = PriorParams(tau1=0.0, beta=np.zeros(2), eta=0.0, sigma2=1.0)
        assert p.tau1 == 1e-6
        assert p.eta == 1e-12
        # the floor is on eta/sigma2, so it moves with sigma2
        assert PriorParams(tau1=0.5, beta=np.zeros(2), eta=0.0, sigma2=1e4).eta == 1e-8
        p = PriorParams(tau1=1.0, beta=np.zeros(2), eta=1.0, sigma2=1.0)
        assert p.tau1 == 1.0 - 1e-6
        assert p.tau0 == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorParams(tau1=0.5, beta=np.zeros(2), eta=1.0, sigma2=0.0)
        with pytest.raises(NonFinite):
            PriorParams(tau1=0.5, beta=np.array([np.inf]), eta=1.0, sigma2=1.0)

    def test_beta_immutable(self):
        p = PriorParams(tau1=0.5, beta=np.zeros(2), eta=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            p.beta[0] = 1.0


class TestTissuePosterior:
    def test_floor_eta_means_indifference(self):
        # beta = 0 and eta at the floor: components indistinguishable
        rng = np.random.default_rng(50)
        d = build_design(rng.standard_normal((8, 2)))
        y = rng.standard_normal(8)
        params = PriorParams(tau1=0.5, beta=np.zeros(2), eta=0.0, sigma2=1.0)
        tp = tissue_posterior(d, one_tissue(y), params)[0]
        assert abs(tp.h - 0.5) < 1e-6
        assert abs(tp.log_bf) < 1e-6

    def test_equal_precision_blend(self):
        # tau1 ~ 1 and eta = sigma2: posterior mean halves the distance
        rng = np.random.default_rng(51)
        d = build_design(rng.standard_normal((9, 3)))
        y = rng.standard_normal(9) * 2.0
        beta0 = rng.standard_normal(3)
        params = PriorParams(tau1=1.0 - 1e-6, beta=beta0, eta=1.5, sigma2=1.5)
        tp = tissue_posterior(d, one_tissue(y), params)[0]
        betahat = np.linalg.lstsq(d.x, y, rcond=None)[0]
        assert_allclose(tp.post_mean, 0.5 * (beta0 + betahat), rtol=1e-5)

    def test_quadrature_oracle_posterior_mean(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            x = rng.standard_normal((4, 1)) + 0.5
            d = build_design(x)
            y = rng.standard_normal(4) * 1.5
            params = PriorParams(
                tau1=float(rng.uniform(0.2, 0.8)),
                beta=rng.standard_normal(1),
                eta=float(rng.uniform(0.5, 4.0)),
                sigma2=float(rng.uniform(0.5, 2.0)),
            )
            ref = quad_posterior_mean_1d(x, y, params)
            tp = tissue_posterior(d, one_tissue(y), params)[0]
            assert_allclose(tp.post_mean[0], ref, atol=1e-6, rtol=1e-6)

    def test_h_matches_dense_oracle(self):
        rng = np.random.default_rng(53)
        for masked in (False, True):
            for _ in range(15):
                x = rng.standard_normal((6, 2))
                d = build_design(x)
                y = rng.standard_normal(6)
                mask = None
                if masked:
                    mask = np.ones(6, dtype=bool)
                    mask[rng.choice(6, 2, replace=False)] = False
                params = PriorParams(
                    tau1=float(rng.uniform(0.1, 0.9)),
                    beta=rng.standard_normal(2) * 0.5,
                    eta=float(rng.uniform(0.2, 3.0)),
                    sigma2=float(rng.uniform(0.5, 2.0)),
                )
                tp = tissue_posterior(d, one_tissue(y, mask), params)[0]
                ref_h = dense_responsibility(x, y, mask, params)
                assert_allclose(tp.h, ref_h, atol=1e-9)

    def test_posterior_identities(self):
        rng = np.random.default_rng(54)
        d = build_design(rng.standard_normal((10, 3)))
        y = rng.standard_normal(10)
        params = PriorParams(
            tau1=0.3, beta=rng.standard_normal(3), eta=2.0, sigma2=0.8
        )
        tp = tissue_posterior(d, one_tissue(y), params)[0]
        assert 0.0 <= tp.h <= 1.0
        assert_allclose(tp.post_mean, tp.h * tp.cond_mean_active, rtol=0, atol=1e-12)
        assert_allclose(
            tp.log_odds,
            tp.log_bf + np.log(params.tau0 / params.tau1),
            atol=1e-12,
        )

    def test_masked_full_mask_matches_complete(self):
        rng = np.random.default_rng(55)
        d = build_design(rng.standard_normal((8, 2)))
        y = rng.standard_normal(8)
        params = PriorParams(tau1=0.4, beta=np.ones(2), eta=1.0, sigma2=1.2)
        tp_full = tissue_posterior(d, one_tissue(y), params)[0]
        tp_masked = tissue_posterior(d, one_tissue(y, np.ones(8, dtype=bool)), params)[0]
        assert_allclose(tp_masked.h, tp_full.h, rtol=1e-10)
        assert_allclose(tp_masked.post_mean, tp_full.post_mean, rtol=1e-10, atol=1e-12)

    def test_conditional_mean_masked_blend(self):
        # masked conditional mean solves the two-Gram blend exactly
        rng = np.random.default_rng(56)
        x = rng.standard_normal((9, 2))
        d = build_design(x)
        y = rng.standard_normal(9)
        mask = np.array([True] * 6 + [False] * 3)
        params = PriorParams(tau1=0.5, beta=np.array([1.0, -1.0]), eta=2.0, sigma2=0.7)
        got = tissue_posterior(d, one_tissue(y, mask), params)[0].cond_mean_active
        xm = x[mask]
        lhs = d.gram / params.eta + xm.T @ xm / params.sigma2
        rhs = d.gram @ params.beta / params.eta + xm.T @ y[mask] / params.sigma2
        assert_allclose(lhs @ got, rhs, rtol=1e-9)


    def test_rejects_bad_input(self):
        d = build_design(np.random.default_rng(62).standard_normal((6, 2)))
        params = PriorParams(tau1=0.5, beta=np.zeros(2), eta=1.0, sigma2=1.0)
        with pytest.raises(NonFinite):
            tissue_posterior(d, one_tissue([np.nan, 0, 0, 0, 0, 0.0]), params)
        with pytest.raises(BadShape):
            tissue_posterior(d, one_tissue(np.zeros(5)), params)
        # two observed rows are fewer than p+1 = 3
        with pytest.raises(BadShape):
            tissue_posterior(d, one_tissue(np.zeros(6), [True, True] + [False] * 4), params)


class TestLogBayesFactor:
    def test_floor_eta_zero(self):
        rng = np.random.default_rng(57)
        d = build_design(rng.standard_normal((7, 2)))
        y = rng.standard_normal(7)
        params = PriorParams(tau1=0.5, beta=np.zeros(2), eta=0.0, sigma2=1.0)
        assert abs(tissue_posterior(d, one_tissue(y), params)[0].log_bf) < 1e-6

    def test_dense_oracle(self):
        rng = np.random.default_rng(58)
        for _ in range(15):
            x = rng.standard_normal((5, 2))
            d = build_design(x)
            y = rng.standard_normal(5)
            params = PriorParams(
                tau1=0.5,
                beta=rng.standard_normal(2),
                eta=float(rng.uniform(0.2, 2.0)),
                sigma2=float(rng.uniform(0.5, 2.0)),
            )
            ref0, ref1 = dense_component_logliks(x, y, None, params)
            tp = tissue_posterior(d, one_tissue(y), params)[0]
            assert_allclose(tp.log_bf, ref0 - ref1, atol=1e-9)

    def test_even_prior_odds(self):
        rng = np.random.default_rng(59)
        d = build_design(rng.standard_normal((6, 2)))
        y = rng.standard_normal(6)
        params = PriorParams(tau1=0.5, beta=np.ones(2), eta=1.0, sigma2=1.0)
        tp = tissue_posterior(d, one_tissue(y), params)[0]
        assert tp.log_odds == pytest.approx(tp.log_bf, abs=1e-12)

    def test_continuity_in_y(self):
        # small response perturbations move log_bf by a bounded amount
        rng = np.random.default_rng(60)
        d = build_design(rng.standard_normal((8, 2)))
        y = rng.standard_normal(8)
        params = PriorParams(tau1=0.5, beta=np.ones(2) * 0.3, eta=1.0, sigma2=1.0)
        base = tissue_posterior(d, one_tissue(y), params)[0].log_bf
        bumped = tissue_posterior(d, one_tissue(y + 1e-6), params)[0].log_bf
        assert abs(bumped - base) <= 1e-3

    def test_h_equals_direct_ratio(self):
        # log-sum-exp route equals the plain ratio on a benign instance
        rng = np.random.default_rng(61)
        x = rng.standard_normal((6, 2))
        d = build_design(x)
        y = rng.standard_normal(6)
        params = PriorParams(tau1=0.5, beta=np.zeros(2), eta=0.8, sigma2=1.0)
        tp = tissue_posterior(d, one_tissue(y), params)[0]
        ref0, ref1 = dense_component_logliks(x, y, None, params)
        g0, g1 = np.exp(ref0), np.exp(ref1)
        direct = params.tau1 * g1 / (params.tau0 * g0 + params.tau1 * g1)
        assert_allclose(tp.h, direct, atol=1e-12)
