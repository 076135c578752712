"""EM steps and the full fit loop, checked against slow reference maximizers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebshrink.em import (
    FitOptions,
    ResponsePanel,
    _estep_core,
    _SuffStats,
    e_step,
    fit,
    init_params,
    m_step_complete,
    m_step_masked,
)
from ebshrink.errors import BadShape, DegenerateResponsibilities
from ebshrink.linalg import build_design, ols
from ebshrink.posterior import ETA_FLOOR, TAU_CLAMP, PriorParams
from ebshrink.simulate import SimConfig, simulate_setting

from oracles import dense_loglik, dense_responsibility, numeric_q_max_complete


def random_problem(rng, n=10, p=2, m=4, missing=0):
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, m))
    mask = None
    if missing:
        mask = np.ones((n, m), dtype=bool)
        for t in range(m):
            mask[rng.choice(n, missing, replace=False), t] = False
        y = np.where(mask, y, np.nan)
    return build_design(x), ResponsePanel(y, mask=mask)


def random_params(rng, p):
    return PriorParams(
        tau1=float(rng.uniform(0.2, 0.8)),
        beta=rng.standard_normal(p) * 0.5,
        eta=float(rng.uniform(0.5, 3.0)),
        sigma2=float(rng.uniform(0.5, 2.0)),
    )


class TestResponsePanel:
    def test_auto_names(self):
        panel = ResponsePanel(np.zeros((4, 3)))
        assert panel.tissue_names == ("t1", "t2", "t3")
        assert panel.complete

    def test_all_missing_column_rejected(self):
        y = np.zeros((4, 2))
        mask = np.ones((4, 2), dtype=bool)
        mask[:, 1] = False
        with pytest.raises(BadShape):
            ResponsePanel(np.where(mask, y, np.nan), mask=mask)

    def test_too_few_observed_rejected_by_stats(self):
        # a tissue with fewer than p+1 observed rows cannot be scored
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 2))
        mask = np.ones((6, 2), dtype=bool)
        mask[:4, 1] = False
        panel = ResponsePanel(np.where(mask, y, np.nan), mask=mask)
        d = build_design(x)
        with pytest.raises(BadShape):
            e_step(d, panel, random_params(np.random.default_rng(1), 3))


class TestEStep:
    def test_rows_sum_to_one_exactly(self):
        rng = np.random.default_rng(70)
        d, panel = random_problem(rng, m=6)
        resp, _ = e_step(d, panel, random_params(rng, 2))
        assert np.all(resp.sum(axis=1) == 1.0)
        assert np.all(resp >= 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(71)
        for missing in (0, 3):
            d, panel = random_problem(rng, n=9, p=2, m=5, missing=missing)
            params = random_params(rng, 2)
            resp, ll = e_step(d, panel, params)
            for t in range(panel.m):
                mask = None if panel.mask is None else panel.mask[:, t]
                ref = dense_responsibility(d.x, panel.y[:, t], mask, params)
                assert_allclose(resp[t, 1], ref, atol=1e-9)
            mask_panel = (
                np.ones(panel.y.shape, dtype=bool) if panel.mask is None else panel.mask
            )
            ref_ll = dense_loglik(d.x, np.nan_to_num(panel.y), mask_panel, params)
            assert_allclose(ll, ref_ll, rtol=1e-9)

    def test_indistinguishable_components(self):
        rng = np.random.default_rng(72)
        d, panel = random_problem(rng, m=4)
        params = PriorParams(tau1=0.5, beta=np.zeros(2), eta=0.0, sigma2=1.0)
        resp, _ = e_step(d, panel, params)
        assert_allclose(resp, 0.5, atol=1e-6)


class TestMStepComplete:
    def test_tau_is_mean_responsibility(self):
        rng = np.random.default_rng(73)
        d, panel = random_problem(rng, m=4)
        resp = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        new = m_step_complete(d, panel, resp)
        assert new.tau1 == pytest.approx(0.5)

    def test_beta_is_mean_ols_under_full_activity(self):
        rng = np.random.default_rng(74)
        d, panel = random_problem(rng, n=12, p=3, m=5)
        resp = np.column_stack([np.zeros(5), np.ones(5)])
        new = m_step_complete(d, panel, resp)
        betahats = np.column_stack([ols(d, panel.y[:, t]) for t in range(5)])
        assert_allclose(new.beta, betahats.mean(axis=1), rtol=1e-12)

    def test_matches_numeric_q_maximizer(self):
        rng = np.random.default_rng(75)
        d, panel = random_problem(rng, n=8, p=2, m=4)
        resp_t1 = rng.uniform(0.2, 0.9, size=4)
        resp = np.column_stack([1.0 - resp_t1, resp_t1])
        new = m_step_complete(d, panel, resp)
        tau1, beta, sigma2, eta = numeric_q_max_complete(d.x, panel.y, resp)
        assert_allclose(new.tau1, tau1, rtol=1e-5)
        assert_allclose(new.beta, beta, rtol=1e-5, atol=1e-7)
        assert_allclose(new.sigma2, sigma2, rtol=1e-4)
        assert_allclose(new.eta, eta, rtol=1e-4)

    def test_degenerate_mass_raises(self):
        rng = np.random.default_rng(76)
        d, panel = random_problem(rng, m=3)
        resp = np.column_stack([np.ones(3), np.zeros(3)])
        with pytest.raises(DegenerateResponsibilities):
            m_step_complete(d, panel, resp)

    def test_eta_floor_boundary_keeps_q_finite(self):
        # responses drawn from the null make the shared-effect spread tiny;
        # the variance update must stay on the constraint set
        rng = np.random.default_rng(77)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 4)) * 0.1
        d = build_design(x)
        panel = ResponsePanel(y)
        resp = np.column_stack([np.full(4, 0.5), np.full(4, 0.5)])
        new = m_step_complete(d, panel, resp)
        assert new.eta >= 1e-10
        assert new.sigma2 > 0.0


class TestMStepMasked:
    def test_full_mask_matches_complete(self):
        # on a complete panel the masked step is the exact joint maximizer,
        # variances included
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((12, 2))
            y = rng.standard_normal((12, 6))
            d = build_design(x)
            panel_c = ResponsePanel(y)
            panel_m = ResponsePanel(y, mask=np.ones((12, 6), dtype=bool))
            resp_t1 = rng.uniform(0.3, 0.9, size=6)
            resp = np.column_stack([1.0 - resp_t1, resp_t1])
            current = random_params(rng, 2)
            new_c = m_step_complete(d, panel_c, resp)
            new_m = m_step_masked(d, panel_m, resp, current)
            assert new_m.tau1 == pytest.approx(new_c.tau1, rel=1e-12)
            assert_allclose(new_m.beta, new_c.beta, rtol=1e-8)
            assert_allclose(new_m.sigma2, new_c.sigma2, rtol=1e-10)
            assert_allclose(new_m.eta, new_c.eta, rtol=1e-10)

    def test_zero_active_mass_keeps_beta(self):
        rng = np.random.default_rng(79)
        d, panel = random_problem(rng, n=10, p=2, m=3, missing=2)
        resp = np.column_stack([np.ones(3), np.zeros(3)])
        current = random_params(rng, 2)
        new = m_step_masked(d, panel, resp, current)
        assert_allclose(new.beta, current.beta)
        assert new.tau1 == pytest.approx(1e-6)

    def test_generalized_step_never_decreases_loglik(self):
        rng = np.random.default_rng(80)
        for trial in range(10):
            d, panel = random_problem(rng, n=12, p=2, m=5, missing=3)
            params = random_params(rng, 2)
            resp, ll_before = e_step(d, panel, params)
            new = m_step_masked(d, panel, resp, params)
            _, ll_after = e_step(d, panel, new)
            assert ll_after >= ll_before - 1e-10 * (1.0 + abs(ll_before))


class TestInitParams:
    def test_beta_from_shared_signal(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((10, 2))
        d = build_design(x)
        y0 = x @ np.array([2.0, -1.0]) + rng.standard_normal(10) * 0.01
        panel = ResponsePanel(np.column_stack([y0, y0, y0]))
        start = init_params(d, panel)
        common = ols(d, y0)
        assert_allclose(start.beta, common, rtol=1e-12)
        assert start.tau1 == pytest.approx(0.5)

    def test_exact_fit_keeps_variances_positive(self):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((8, 2))
        d = build_design(x)
        y = x @ np.array([1.0, 2.0])
        panel = ResponsePanel(np.column_stack([y, y]))
        start = init_params(d, panel)
        assert start.sigma2 > 0.0
        assert start.eta >= 1e-9


class TestFit:
    def test_trace_monotone_complete(self):
        rng = np.random.default_rng(83)
        d, panel = random_problem(rng, n=20, p=3, m=8)
        res = fit(d, panel)
        trace = np.asarray(res.loglik_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))

    def test_trace_monotone_masked(self):
        rng = np.random.default_rng(84)
        d, panel = random_problem(rng, n=20, p=3, m=8, missing=5)
        res = fit(d, panel)
        trace = np.asarray(res.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))
        assert res.converged

    def test_posteriors_shipped_per_tissue(self):
        rng = np.random.default_rng(85)
        d, panel = random_problem(rng, n=15, p=2, m=6)
        res = fit(d, panel)
        assert len(res.posteriors) == 6
        for tp in res.posteriors:
            assert 0.0 <= tp.h <= 1.0
            assert tp.post_mean.shape == (2,)

    @pytest.mark.parametrize("missing", [0, 5])
    def test_posteriors_come_from_final_estep(self, missing):
        rng = np.random.default_rng(90)
        d, panel = random_problem(rng, n=20, p=3, m=8, missing=missing)
        res = fit(d, panel)
        resp, loglik, lg0, lg1 = _estep_core(_SuffStats(d, panel), res.params)
        assert loglik == res.loglik_trace[-1]
        assert [tp.h for tp in res.posteriors] == list(resp[:, 1])
        assert [tp.log_bf for tp in res.posteriors] == list(lg0 - lg1)

    def test_max_iter_ends_on_estep(self):
        # the last trace entry and h belong to the returned params
        rng = np.random.default_rng(91)
        d, panel = random_problem(rng, n=20, p=3, m=30, missing=5)
        res = fit(d, panel, FitOptions(max_iter=2))
        assert res.iterations == 2 and not res.converged
        resp, loglik = e_step(d, panel, res.params)
        assert loglik == res.loglik_trace[-1]
        assert [tp.h for tp in res.posteriors] == list(resp[:, 1])

    def test_tau_recovery(self):
        # enough tissues pins the mixing weight near its generating value
        rng = np.random.default_rng(86)
        n, p, m, tau1 = 50, 5, 200, 0.65
        x = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        active = rng.random(m) < tau1
        d = build_design(x)
        coefs = np.zeros((p, m))
        gram_inv = np.linalg.inv(x.T @ x)
        chol = np.linalg.cholesky(gram_inv)
        for t in range(m):
            if active[t]:
                coefs[:, t] = beta + 4.0 * chol @ rng.standard_normal(p)
        y = x @ coefs + rng.standard_normal((n, m))
        res = fit(d, ResponsePanel(y))
        assert abs(res.params.tau1 - tau1) < 0.12

    def test_stationarity_at_convergence(self):
        # the observed loglik gradient in (beta, sigma2, eta) vanishes
        rng = np.random.default_rng(87)
        d, panel = random_problem(rng, n=18, p=2, m=10)
        res = fit(d, panel, FitOptions(tol=1e-12, max_iter=4000))
        p0 = res.params

        def ll_at(beta, sigma2, eta):
            params = PriorParams(
                tau1=p0.tau1, beta=beta, eta=max(eta, 1e-10), sigma2=sigma2
            )
            return e_step(d, panel, params)[1]

        ll0 = ll_at(p0.beta, p0.sigma2, p0.eta)
        step = 1e-5
        for j in range(2):
            bump = p0.beta.copy()
            bump[j] += step
            up = ll_at(bump, p0.sigma2, p0.eta)
            bump[j] -= 2 * step
            dn = ll_at(bump, p0.sigma2, p0.eta)
            # interior maximum: both one-sided moves go downhill (to fd error)
            assert max(up, dn) <= ll0 + 1e-3 * (1.0 + abs(ll0))

        up = ll_at(p0.beta, p0.sigma2 * (1 + step), p0.eta)
        dn = ll_at(p0.beta, p0.sigma2 * (1 - step), p0.eta)
        assert max(up, dn) <= ll0 + 1e-3 * (1.0 + abs(ll0))

    def test_tissue_permutation_invariance(self):
        rng = np.random.default_rng(88)
        d, panel = random_problem(rng, n=14, p=2, m=6)
        perm = np.array([3, 0, 5, 1, 4, 2])
        panel_p = ResponsePanel(panel.y[:, perm])
        res_a = fit(d, panel)
        res_b = fit(d, panel_p)
        assert_allclose(res_b.params.beta, res_a.params.beta, rtol=1e-12, atol=1e-12)
        assert res_b.params.tau1 == pytest.approx(res_a.params.tau1, rel=1e-12)
        for k, t in enumerate(perm):
            assert res_b.posteriors[k].h == pytest.approx(
                res_a.posteriors[t].h, rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("setting", [1, 3])
    def test_response_scaling_equivariance(self, setting):
        # y -> c y gives sigma2, eta -> c^2 times and beta -> c times, with h
        # unchanged, on the complete (1) and masked (3) paths alike
        data = simulate_setting(SimConfig.for_setting(setting, seed=5))
        d = build_design(data.x)
        options = FitOptions(tol=1e-300, max_iter=30)
        base = fit(d, data.panel, options)
        for c in (1e6, 1e100, 1e150):
            scaled = fit(d, ResponsePanel(data.panel.y * c, mask=data.panel.mask), options)
            assert scaled.iterations == base.iterations
            assert_allclose(scaled.params.sigma2 / c**2, base.params.sigma2, rtol=1e-9)
            assert_allclose(scaled.params.eta / c**2, base.params.eta, rtol=1e-9)
            assert_allclose(scaled.params.beta / c, base.params.beta, rtol=1e-9)
            assert_allclose(
                [q.h for q in scaled.posteriors], [q.h for q in base.posteriors], rtol=1e-9
            )

    @pytest.mark.parametrize("missing", [0, 3])
    def test_all_zero_panel_gives_null_fit(self, missing):
        rng = np.random.default_rng(90)
        d, panel = random_problem(rng, n=12, p=2, m=4, missing=missing)
        res = fit(d, ResponsePanel(np.where(panel.mask, 0.0, np.nan), mask=panel.mask))
        assert res.converged
        assert np.all(np.isfinite(res.loglik_trace))
        assert res.params.tau1 == TAU_CLAMP
        assert res.params.eta == ETA_FLOOR
        assert res.params.sigma2 == np.finfo(np.float64).tiny
        assert_allclose(res.params.beta, 0.0, atol=0.0)
        assert all(q.h < 1e-12 for q in res.posteriors)

    def test_null_data_converges(self):
        rng = np.random.default_rng(89)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((12, 5))
        res = fit(build_design(x), ResponsePanel(y))
        assert res.converged
        assert np.isfinite(res.loglik_trace[-1])
