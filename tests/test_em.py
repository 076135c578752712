"""EM steps and the full fit loop, checked against slow reference maximizers."""

import contextlib
import gc
import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ebshrink import em, kernels
from ebshrink.crossval import kfold_cv
from ebshrink.em import (
    FitOptions,
    ResponsePanel,
    _estep_core,
    _SuffStats,
    fit,
    ols,
    tissue_posterior,
)
from ebshrink.errors import BadShape, DegenerateResponsibilities, NonFinite, RankDeficient
from ebshrink.linalg import build_design
from ebshrink.posterior import R_FLOOR, PriorParams
from ebshrink.simulate import SimConfig, simulate_setting

from oracles import (
    brentq_profile_root,
    dense_gls_beta,
    dense_loglik,
    dense_responsibility,
    e_step,
    init_params,
    loop_suff_stats,
    m_step_complete,
    m_step_masked,
    numeric_q_max_complete,
)


class DrawnStats(_SuffStats):
    """Pooled statistics given directly: L = I and one basis per tissue, I.

    css is the least-squares rss plus sum(pb^2 / d), as the reduction forms it.
    """

    def __init__(self, d, pb, rss_ols, nobs):
        self.m, self.p = d.shape
        self.d, self.pb, self.rss_ols, self.nobs = d, pb, rss_ols, nobs
        self.vecs = np.broadcast_to(np.eye(self.p), (self.m, self.p, self.p))
        self.gram_factor = np.eye(self.p)
        self.css = rss_ols + np.sum(pb**2 / d, axis=1)
        self.sigma2_floor = 1e-12 * float(self.css.sum()) / (self.m * float(nobs.max()))


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


# profile score evaluations one M-step may take: a probe at the ratio floor,
# then Newton steps, each at most half the step before last, or bisections,
# each halving the sign bracket in log r, then the evaluation at the root
MAX_SCORES = 100


@contextlib.contextmanager
def counted_scores(limit=math.inf):
    """Record the M-step's profile score evaluations, one math.exp each.

    Evaluation number limit + 1 raises AssertionError, so a loop that
    would not stop fails instead.
    """
    calls = []

    def exp(u):
        calls.append(u)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} profile score evaluations")
        return math.exp(u)

    proxy = types.SimpleNamespace(**vars(math))
    proxy.exp = exp
    saved, em.math = em.math, proxy
    try:
        yield calls
    finally:
        em.math = saved


# entry points, and the step helpers, called with a response panel of two
# rows fewer than the design
SHORT_PANEL_CALLS = {
    "fit": lambda d, panel, resp, params: fit(d, panel),
    "e_step": lambda d, panel, resp, params: e_step(d, panel, params),
    "init_params": lambda d, panel, resp, params: init_params(d, panel),
    "m_step_complete": lambda d, panel, resp, params: m_step_complete(d, panel, resp),
    "m_step_masked": lambda d, panel, resp, params: m_step_masked(d, panel, resp, params),
    "kfold_cv": lambda d, panel, resp, params: kfold_cv(d, panel, k=2),
    "ols": lambda d, panel, resp, params: ols(d, panel),
    "tissue_posterior": lambda d, panel, resp, params: tissue_posterior(d, panel, params),
}

# entry points called with a prior mean of 5 entries at p = 3
WIDE_BETA_CALLS = {
    "tissue_posterior": lambda d, panel, resp, params: tissue_posterior(d, panel, params),
}


class TestShapeMismatch:
    # inputs that disagree in shape end in BadShape, not an untyped numpy error
    @pytest.mark.parametrize("call", SHORT_PANEL_CALLS.values(), ids=SHORT_PANEL_CALLS.keys())
    def test_panel_rows_differ_from_design(self, call):
        rng = np.random.default_rng(96)
        d, panel = random_problem(rng, n=12, p=3, m=4)
        short = ResponsePanel(panel.y[:-2])
        resp = np.full((4, 2), 0.5)
        with pytest.raises(BadShape):
            call(d, short, resp, random_params(rng, 3))

    @pytest.mark.parametrize("call", WIDE_BETA_CALLS.values(), ids=WIDE_BETA_CALLS.keys())
    def test_beta_length_differs_from_p(self, call):
        rng = np.random.default_rng(97)
        d, panel = random_problem(rng, n=12, p=3, m=4, missing=2)
        resp = np.full((4, 2), 0.5)
        with pytest.raises(BadShape):
            call(d, panel, resp, random_params(rng, 5))


def assert_params_close(got, want, rtol=1e-9):
    assert_allclose(
        [got.tau1, got.eta, got.sigma2], [want.tau1, want.eta, want.sigma2], rtol=rtol
    )
    assert_allclose(got.beta, want.beta, rtol=rtol)


def assert_posteriors_close(got, want, rtol=1e-9):
    assert_allclose(got.h, want.h, rtol=rtol)
    assert_allclose(got.post_mean, want.post_mean, rtol=rtol)


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


ORACLE_CASES = ("random", "p_plus_1", "duplicated", "full_column", "row_blocks")


def masked_case(case):
    """(x, y, mask) for one of the batched-statistics oracle cases."""
    rng = np.random.default_rng(ORACLE_CASES.index(case))
    n, p, m = 30, 4, 6
    if case == "row_blocks":
        # a tall panel at a wider p, where each tissue's symmetric product
        # runs over about 1,400 rows
        n, p = 1972, 40
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal((p, m)) + rng.standard_normal((n, m))
    mask = rng.random((n, m)) > 0.3
    if case == "p_plus_1":
        mask[:, 2] = False
        mask[rng.choice(n, p + 1, replace=False), 2] = True
    elif case == "duplicated":
        y[:, 4], mask[:, 4] = y[:, 1], mask[:, 1]
    elif case == "full_column":
        mask[:, 3] = True
    return x, y, mask


def collinear_panel(noise):
    # tissue t2 observes 10 rows on which column 3 is column 0 + column 1
    # up to ``noise``; t4..t6 are null
    rng = np.random.default_rng(7)
    n, p, m = 40, 4, 6
    x = rng.standard_normal((n, p))
    mask = rng.random((n, m)) > 0.2
    mask[:, 1] = False
    mask[:10, 1] = True
    x[:10, 3] = x[:10, 0] + x[:10, 1] + noise * rng.standard_normal(10)
    coefs = np.array([1.0, -0.5, 0.3, 0.8])[:, None] + 0.5 * rng.standard_normal((p, m))
    coefs[:, 3:] = 0.0
    y = x @ coefs + rng.standard_normal((n, m))
    return x, ResponsePanel(np.where(mask, y, np.nan), mask=mask)


class TestSuffStats:
    """The batched reduction against the tissue-by-tissue loop."""

    @staticmethod
    def assert_matches_loop(design, panel, beta):
        stats = _SuffStats(design, panel)
        ref = loop_suff_stats(design.x, np.where(panel.mask, panel.y, 0.0), panel.mask)
        for name in ("d", "rss_ols", "css"):
            assert_allclose(getattr(stats, name), getattr(ref, name), rtol=1e-12)
        # relative to each tissue's largest coefficient, so that an entry
        # near zero is not held to a relative error it cannot have
        scale = np.abs(ref.betahat).max(axis=1, keepdims=True)
        assert_allclose(stats.betahat / scale, ref.betahat / scale, rtol=1e-12, atol=1e-12)
        w2, rss = stats.residual_stats(beta)
        w2_ref, rss_ref = ref.residual_stats(beta)
        assert_allclose(rss, rss_ref, rtol=1e-12)
        # within a repeated eigenvalue the basis is arbitrary, so w2 is
        # compared through the d-weighted sums that the kernel takes of it
        for r in (0.0, 1.0, 10.0):
            assert_allclose(
                np.sum(w2 / (1.0 + r * stats.d), axis=1),
                np.sum(w2_ref / (1.0 + r * ref.d), axis=1),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_per_tissue_loop(self, case):
        x, y, mask = masked_case(case)
        beta = np.random.default_rng(1).standard_normal(x.shape[1])
        self.assert_matches_loop(
            build_design(x), ResponsePanel(np.where(mask, y, np.nan), mask=mask), beta
        )

    def test_one_tissue_through_tissue_posterior(self):
        rng = np.random.default_rng(5)
        x, y, mask = masked_case("random")
        d = build_design(x)
        params = random_params(rng, x.shape[1])
        col = np.where(mask[:, 0], y[:, 0], np.nan)[:, None]
        self.assert_matches_loop(d, ResponsePanel(col, mask=mask[:, :1]), params.beta)
        got = tissue_posterior(d, ResponsePanel(col, mask=mask[:, :1]), params)[0]
        ref = loop_suff_stats(x, np.nan_to_num(col), mask[:, :1])
        w2, rss = ref.residual_stats(params.beta)
        lg0, lg1 = kernels.component_loglik(
            ref.d, w2, rss, ref.css, mask[:, :1].sum(axis=0).astype(float),
            params.sigma2, params.eta,
        )
        assert_allclose(got.log_bf, lg0[0] - lg1[0], rtol=1e-12)
        ratio = params.eta / params.sigma2
        c = (ref.u_stat[0] @ params.beta + ratio * ref.pb[0]) / (1.0 + ratio * ref.d[0])
        cond = np.linalg.solve(x.T @ x, ref.u_stat[0].T @ c)
        assert_allclose(got.cond_mean_active, cond, rtol=1e-12)

    def test_rank_check_is_scale_free(self):
        # t2's observed rows hold ~1e-7 of X'X along one direction; scaling
        # X's columns leaves that share, and the fit, unchanged
        x, panel = collinear_panel(1e-3)
        d = build_design(x)
        assert 1e-8 < _SuffStats(d, panel).d[1, 0] < 1e-6
        options = FitOptions(tol=1e-300, max_iter=30)
        base = fit(d, panel, options)
        scale = np.array([100.0, 1.0, 1.0, 0.01])
        scaled = fit(build_design(x * scale), panel, options)
        # normwise: roundoff grows by about 1/d_min in every coefficient
        bound = 1e-6 * np.abs(base.params.beta).max()
        assert_allclose(scaled.params.beta * scale, base.params.beta, rtol=1e-6, atol=bound)
        assert_allclose(
            [q.h for q in scaled.posteriors], [q.h for q in base.posteriors], rtol=1e-6
        )

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_collinear_observed_rows_rejected(self, scale):
        x, panel = collinear_panel(0.0)
        x[:, 0] *= scale
        with pytest.raises(RankDeficient, match="tissue t2"):
            fit(build_design(x), panel)


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
        betahats = np.linalg.lstsq(d.x, panel.y, rcond=None)[0]
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
        assert new.sigma2 > 0.0
        # the spread sits on its floor, the ratio r = eta/sigma2 = 1e-12
        assert new.eta / new.sigma2 == pytest.approx(1e-12, rel=1e-12)


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

    @pytest.mark.parametrize("missing", [0, 2])
    def test_zero_active_mass_keeps_beta(self, missing):
        # one zero-mass rule on complete and masked panels alike
        rng = np.random.default_rng(79)
        d, panel = random_problem(rng, n=10, p=2, m=3, missing=missing)
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

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(data=st.data(), n=st.integers(8, 20), p=st.integers(1, 4), m=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1), floor=st.booleans())
    def test_beta_matches_dense_gls(self, data, n, p, m, seed, floor):
        # beta is the responsibility-weighted GLS at the current variances,
        # tissues with no signal responsibility (t1 = 0) dropping out of it
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((n, m)) + (x @ rng.standard_normal(p))[:, None]
        mask = np.ones((n, m), dtype=bool)
        for t in range(m):
            n_obs = data.draw(st.integers(p + 1, n))
            mask[rng.choice(n, n - n_obs, replace=False), t] = False
        t1 = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=m, max_size=m)))
        t1[0] = max(t1[0], 0.1)
        resp = np.column_stack([1.0 - t1, t1])
        sigma2 = float(rng.uniform(0.5, 2.0))
        ratio = R_FLOOR if floor else float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        current = PriorParams(tau1=0.5, beta=rng.standard_normal(p), eta=ratio * sigma2,
                              sigma2=sigma2)
        d = build_design(x)
        panel = ResponsePanel(np.where(mask, y, np.nan), mask=mask)
        try:
            new = m_step_masked(d, panel, resp, current)
        except RankDeficient:
            assume(False)
        ref = dense_gls_beta(x, y, mask, resp, current)
        # relative to the largest coefficient, so an entry near zero is not
        # held to a relative bound of its own
        assert np.max(np.abs(new.beta - ref)) <= 1e-9 * np.max(np.abs(ref))

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(data=st.data(), n=st.integers(8, 20), p=st.integers(1, 4), m=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1), masked=st.booleans(),
           signal=st.sampled_from([0.0, 1.0, 3.0, 10.0]), log_scale=st.integers(-100, 100))
    def test_variances_are_the_profile_root(self, data, n, p, m, seed, masked, signal,
                                            log_scale):
        # (sigma2, eta) are the root of the profile score at the step's own
        # beta, found within a bounded number of score evaluations; when the
        # score is not positive at the ratio floor, the one probe there is
        # the step, which lands on the floor itself
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        x = rng.standard_normal((n, p))
        coefs = rng.standard_normal(p)[:, None] + signal * rng.standard_normal((p, m))
        y = scale * (x @ coefs + rng.standard_normal((n, m)))
        mask = np.ones((n, m), dtype=bool)
        if masked:
            for t in range(m):
                n_obs = data.draw(st.integers(p + 1, n))
                mask[rng.choice(n, n - n_obs, replace=False), t] = False
        t1 = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=m, max_size=m)))
        t1[0] = max(t1[0], 0.1)
        resp = np.column_stack([1.0 - t1, t1])
        sigma2 = scale**2 * float(rng.uniform(0.5, 2.0))
        ratio = float(np.exp(rng.uniform(np.log(R_FLOOR), np.log(1e6))))
        current = PriorParams(tau1=0.5, beta=scale * rng.standard_normal(p),
                              eta=ratio * sigma2, sigma2=sigma2)
        d = build_design(x)
        panel = ResponsePanel(np.where(mask, y, np.nan), mask=mask)
        try:
            stats = _SuffStats(d, panel)
        except RankDeficient:
            assume(False)
        with counted_scores(MAX_SCORES) as calls:
            new = m_step_masked(d, panel, resp, current)
        # skip the rare step on which the monotonicity guard kept the variances
        assume((new.sigma2, new.eta) != (current.sigma2, current.eta))
        w2, rss = stats.residual_stats(new.beta)
        sigma2_ref, eta_ref, score_at_floor = brentq_profile_root(
            stats.d, w2, rss, stats.css, stats.nobs, resp[:, 0], resp[:, 1], stats.sigma2_floor
        )
        assert new.sigma2 == pytest.approx(sigma2_ref, rel=1e-9)
        assert new.eta == pytest.approx(eta_ref, rel=1e-9)
        if score_at_floor <= 0.0:
            assert len(calls) == 1
            assert new.eta / new.sigma2 == pytest.approx(R_FLOOR, rel=1e-14)

    @staticmethod
    def near_exact_step(noise, ratio):
        """M-step on three active tissues fit almost exactly, from ratio r."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 4))
        y = x @ (10.0 * rng.standard_normal((4, 3))) + noise * rng.standard_normal((8, 3))
        resp = np.column_stack([np.zeros(3), np.ones(3)])
        current = PriorParams(tau1=0.5, beta=np.zeros(4), eta=ratio, sigma2=1.0)
        return m_step_masked(build_design(x), ResponsePanel(y), resp, current)

    @pytest.mark.parametrize("noise", [1e-3, 1e-6])
    @pytest.mark.parametrize("ratio", [1e-11, 1e-6, 1e-2])
    def test_near_exact_tissues_stop_within_the_bound(self, noise, ratio):
        # every tissue active and fit almost exactly: below its root the
        # score decays like 1/r, where a Newton step moves log r by about 1;
        # Q(r) is a sum of nonnegative terms, so the score near the root is
        # not noisy and the steps settle within a few more evaluations
        with counted_scores(MAX_SCORES) as calls:
            new = self.near_exact_step(noise, ratio)
        assert len(calls) <= 20
        assert new.eta / new.sigma2 > 1e8

    def test_near_exact_root_does_not_depend_on_the_start(self):
        # formed as q_base - r * sum(w2 * shrink), Q(r) cancelled on this
        # panel, and the roots reached from these starts were 5e-8 apart in r
        roots = {(new.sigma2, new.eta) for new in
                 (self.near_exact_step(1e-3, ratio) for ratio in (1e-11, 1e-6, 1e-2))}
        assert len(roots) == 1

    def test_guard_keeps_the_variances_when_the_root_scores_lower(self):
        # the profile in r need not be unimodal; on these pooled statistics
        # (one covariate, L = I, a tissue with d = 3.1e-8) Newton from the
        # current ratio, near the floor, finds a root at r = 1.6e8 that
        # scores below the current variances, and below the start too, so
        # the step keeps them.  Found by a seeded search over drawn
        # statistics; no simulated fit has reached this branch
        stats = DrawnStats(
            d=np.array([[3.1e-8], [0.14], [0.16]]),
            pb=np.array([[0.0005], [0.0023], [0.75]]),
            rss_ols=np.array([0.16, 2.5, 1.6]),
            nobs=np.array([7.0, 4.0, 11.0]),
        )
        t1 = np.array([0.51, 0.3, 0.43])
        resp = np.column_stack([1.0 - t1, t1])
        current = PriorParams(tau1=0.5, beta=np.array([0.5]), eta=6.9e-13, sigma2=0.42)
        new, lg0, lg1 = em._m_step_masked_core(stats, resp, current)
        assert (new.sigma2, new.eta) == (current.sigma2, current.eta)
        w2, rss = stats.residual_stats(new.beta)
        ref0, ref1 = kernels.component_loglik(
            stats.d, w2, rss, stats.css, stats.nobs, new.sigma2, new.eta
        )
        assert np.array_equal(lg0, ref0) and np.array_equal(lg1, ref1)
        w2_start, rss_start = stats.residual_stats(current.beta)
        start = kernels.weighted_mixture_loglik(
            stats.d, w2_start, rss_start, stats.css, stats.nobs, resp[:, 0], t1,
            current.sigma2, current.eta,
        )
        assert float(resp[:, 0] @ lg0 + t1 @ lg1) >= start


class TestInitParams:
    def test_beta_from_shared_signal(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((10, 2))
        d = build_design(x)
        y0 = x @ np.array([2.0, -1.0]) + rng.standard_normal(10) * 0.01
        panel = ResponsePanel(np.column_stack([y0, y0, y0]))
        start = init_params(d, panel)
        common = np.linalg.lstsq(x, y0, rcond=None)[0]
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
        # identical tissues have no spread, so eta starts at ten times the
        # ratio floor: eta/sigma2 = 1e-11
        assert start.eta / start.sigma2 == pytest.approx(1e-11, rel=1e-12)


class TestFit:
    def test_complete_panel_never_takes_the_closed_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fit called the closed-form M-step")

        monkeypatch.setattr(em, "_m_step_complete_core", refuse)
        rng = np.random.default_rng(83)
        d, panel = random_problem(rng, n=20, p=3, m=8)
        assert fit(d, panel).iterations >= 2

    @pytest.mark.parametrize("setting", [1, 3, 4])
    def test_variance_update_takes_few_scores(self, setting):
        # Newton on the closed-form slope needs about 6 score evaluations
        # per M-step here; a wrong slope still reaches the root, by
        # bisection, at about 45
        data = simulate_setting(SimConfig.for_setting(setting, rho=0.5, seed=85))
        with counted_scores() as calls:
            result = fit(build_design(data.x), data.panel)
        assert len(calls) <= 8 * (result.iterations - 1)

    @pytest.mark.parametrize("setting", [1, 3])
    def test_one_residual_stats_per_iteration(self, setting, monkeypatch):
        # the initial E-step forms the statistics once, then each M-step
        # forms them at its new beta and the next E-step reuses them
        calls = []
        residual_stats = _SuffStats.residual_stats

        def counted(self, beta):
            calls.append(beta)
            return residual_stats(self, beta)

        monkeypatch.setattr(_SuffStats, "residual_stats", counted)
        data = simulate_setting(SimConfig.for_setting(setting, rho=0.5, seed=85))
        result = fit(build_design(data.x), data.panel)
        assert result.iterations >= 3
        assert len(calls) == result.iterations

    def test_fit_leaves_no_cyclic_garbage(self):
        # everything a fit allocates is freed by reference counting alone
        data = simulate_setting(SimConfig.for_setting(3, seed=86))
        design = build_design(data.x)
        gc.collect()
        gc.disable()
        try:
            fit(design, data.panel)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_betahat_is_per_tissue_lstsq(self):
        data = simulate_setting(SimConfig.for_setting(3, seed=84))
        res = fit(build_design(data.x), data.panel, FitOptions(max_iter=2))
        assert res.betahat.shape == (data.panel.m, data.x.shape[1])
        for t, row in enumerate(res.betahat):
            rows = data.panel.mask[:, t]
            ref = np.linalg.lstsq(data.x[rows], data.panel.y[rows, t], rcond=None)[0]
            assert_allclose(row, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("setting", [1, 2])
    def test_complete_fit_is_closed_form_em(self, setting):
        # k iterations of fit equal k closed-form EM steps from the public API
        # (k short of the iterations at which tol=1e-300 sees a zero change)
        k = 5
        for seed in range(5):
            data = simulate_setting(SimConfig.for_setting(setting, seed=seed))
            d = build_design(data.x)
            res = fit(d, data.panel, FitOptions(tol=1e-300, max_iter=k + 1))
            assert res.iterations == k + 1
            params = init_params(d, data.panel)
            for _ in range(k):
                resp, _ = e_step(d, data.panel, params)
                params = m_step_complete(d, data.panel, resp)
            for name in ("tau1", "beta", "eta", "sigma2"):
                assert_allclose(getattr(res.params, name), getattr(params, name), rtol=1e-9)

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

    @pytest.mark.parametrize("missing", [0, 5])
    def test_ols_and_tissue_posterior_are_the_fit_statistics(self, missing):
        rng = np.random.default_rng(92)
        d, panel = random_problem(rng, n=20, p=3, m=8, missing=missing)
        res = fit(d, panel)
        assert np.array_equal(ols(d, panel), res.betahat)
        got = tissue_posterior(d, panel, res.params)
        assert len(got) == len(res.posteriors)
        for tp, want in zip(got, res.posteriors):
            for name in ("h", "log_bf", "log_odds", "post_mean"):
                assert np.array_equal(getattr(tp, name), getattr(want, name))

    @pytest.mark.parametrize("missing", [0, 3])
    def test_noise_free_panel_fits_finitely(self, missing):
        # y = XB exactly: sigma2 falls toward its floor, 1e-12 of the mean
        # square response, where the kernels stay finite (an overflow would
        # raise here as a RuntimeWarning)
        rng = np.random.default_rng(93)
        d, panel = random_problem(rng, n=20, p=3, m=5, missing=missing)
        coefs = rng.standard_normal((3, 5))
        y = np.where(panel.mask, d.x @ coefs, np.nan)
        res = fit(d, ResponsePanel(y, mask=panel.mask))
        assert res.converged and np.all(np.isfinite(res.loglik_trace))
        floor = 1e-12 * np.sum(y[panel.mask] ** 2) / (5 * panel.observed_counts().max())
        assert floor <= res.params.sigma2 <= 1e-9
        post_mean = np.column_stack([tp.post_mean for tp in res.posteriors])
        assert_allclose(post_mean, coefs, rtol=1e-6)

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
            params = PriorParams(tau1=p0.tau1, beta=beta, eta=eta, sigma2=sigma2)
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
        for c in (1e-100, 1e-6, 1e6, 1e100, 1e150):
            scaled = fit(d, ResponsePanel(data.panel.y * c, mask=data.panel.mask), options)
            assert scaled.iterations == base.iterations
            assert_allclose(scaled.params.sigma2 / c**2, base.params.sigma2, rtol=1e-9)
            assert_allclose(scaled.params.eta / c**2, base.params.eta, rtol=1e-9)
            assert_allclose(scaled.params.beta / c, base.params.beta, rtol=1e-9)
            assert_allclose(
                [q.h for q in scaled.posteriors], [q.h for q in base.posteriors], rtol=1e-9
            )

    @pytest.mark.parametrize("setting", [1, 3])
    def test_responses_squaring_beyond_float_range_rejected(self, setting):
        # a response of 1e160 squares past the float range; the statistics
        # name the tissue rather than fail later on an infinite variance
        data = simulate_setting(SimConfig.for_setting(setting, seed=5))
        y = data.panel.y.copy()
        y[:, 7] *= 1e160
        panel = ResponsePanel(y, mask=data.panel.mask)
        d = build_design(data.x)
        for call in (fit, ols):
            with pytest.raises(NonFinite, match="tissue t8"):
                call(d, panel)

    @pytest.mark.parametrize("setting", [1, 3])
    def test_column_scaling_invariance(self, setting):
        # X -> X D for diagonal D gives beta -> D^-1 beta with sigma2, eta and
        # h unchanged (g-prior invariance), however far apart the scales
        data = simulate_setting(SimConfig.for_setting(setting, seed=5))
        options = FitOptions(tol=1e-300, max_iter=30)
        base = fit(build_design(data.x), data.panel, options)
        for s in (1e4, 1e6, 1e7):
            col = np.ones(data.x.shape[1])
            col[0], col[1] = 1.0 / s, s
            scaled = fit(build_design(data.x * col), data.panel, options)
            assert scaled.iterations == base.iterations
            assert_allclose(scaled.params.beta * col, base.params.beta, rtol=1e-9)
            assert_allclose(scaled.params.sigma2, base.params.sigma2, rtol=1e-9)
            assert_allclose(scaled.params.eta, base.params.eta, rtol=1e-9)
            assert_allclose(
                [q.h for q in scaled.posteriors], [q.h for q in base.posteriors], rtol=1e-9
            )

    @pytest.mark.parametrize("setting", [1, 3])
    def test_design_reparametrization_invariance(self, setting):
        # X -> X A for a dense invertible A gives beta -> A^-1 beta with h,
        # the fitted values, sigma2 and the log-likelihood unchanged: the
        # g-prior covariance eta (X'X)^-1 moves with the design
        data = simulate_setting(SimConfig.for_setting(setting, seed=5))
        options = FitOptions(tol=1e-300, max_iter=30)
        p = data.x.shape[1]
        a = np.eye(p) + 0.3 * np.random.default_rng(98).standard_normal((p, p))
        base = fit(build_design(data.x), data.panel, options)
        moved = fit(build_design(data.x @ a), data.panel, options)
        assert moved.iterations == base.iterations
        assert_allclose(a @ moved.params.beta, base.params.beta, rtol=1e-9)
        assert_allclose(moved.params.sigma2, base.params.sigma2, rtol=1e-9)
        assert_allclose(moved.loglik_trace, base.loglik_trace, rtol=1e-9)
        assert_allclose(
            [q.h for q in moved.posteriors], [q.h for q in base.posteriors], rtol=1e-9
        )
        fitted = data.x @ np.column_stack([q.post_mean for q in base.posteriors])
        fitted_moved = data.x @ a @ np.column_stack([q.post_mean for q in moved.posteriors])
        assert_allclose(fitted_moved, fitted, rtol=1e-9)

    @pytest.mark.parametrize("setting", [1, 3])
    def test_row_permutation_invariance(self, setting):
        # permuting the rows of X, Y and the mask together changes nothing
        data = simulate_setting(SimConfig.for_setting(setting, seed=5))
        options = FitOptions(tol=1e-300, max_iter=30)
        perm = np.random.default_rng(99).permutation(data.x.shape[0])
        base = fit(build_design(data.x), data.panel, options)
        panel = ResponsePanel(data.panel.y[perm], mask=data.panel.mask[perm])
        moved = fit(build_design(data.x[perm]), panel, options)
        assert moved.iterations == base.iterations
        assert_params_close(moved.params, base.params)
        assert_allclose(moved.loglik_trace, base.loglik_trace, rtol=1e-9)
        assert_posteriors_close(moved.posteriors, base.posteriors)

    @pytest.mark.parametrize("setting", [1, 3])
    def test_tissue_permutation_invariance_on_settings(self, setting):
        # permuting the tissues permutes the posteriors; the params stay equal
        data = simulate_setting(SimConfig.for_setting(setting, seed=5))
        options = FitOptions(tol=1e-300, max_iter=30)
        d = build_design(data.x)
        perm = np.random.default_rng(100).permutation(data.panel.m)
        base = fit(d, data.panel, options)
        panel = ResponsePanel(data.panel.y[:, perm], mask=data.panel.mask[:, perm])
        moved = fit(d, panel, options)
        assert moved.iterations == base.iterations
        assert_params_close(moved.params, base.params)
        assert_allclose(moved.loglik_trace, base.loglik_trace, rtol=1e-9)
        assert_posteriors_close(moved.posteriors, base.posteriors[perm])

    @pytest.mark.parametrize("missing", [0, 3])
    def test_all_zero_panel_gives_null_fit(self, missing):
        # with no data sigma2 falls to its floor, and with r = eta/sigma2 on
        # its floor too the two components differ only by sum log(1 + r d),
        # about 1e-12: the fit stops with both components equally likely
        def zero_fit(n_missing):
            rng = np.random.default_rng(90)
            d, panel = random_problem(rng, n=12, p=2, m=4, missing=n_missing)
            return fit(d, ResponsePanel(np.where(panel.mask, 0.0, np.nan), mask=panel.mask))

        res, ref = zero_fit(missing), zero_fit(0)
        tiny = np.finfo(np.float64).tiny
        assert res.converged and res.iterations == 2
        assert np.all(np.isfinite(res.loglik_trace))
        assert_allclose(res.params.beta, 0.0, atol=0.0)
        assert res.params.sigma2 == tiny
        assert res.params.eta == 1e-12 * tiny
        assert res.params.tau1 == pytest.approx(0.5, abs=1e-9)
        # the complete (ref) and masked panels agree
        assert res.params.tau1 == pytest.approx(ref.params.tau1, rel=1e-9)
        assert_allclose([q.h for q in res.posteriors], [q.h for q in ref.posteriors], rtol=1e-9)

    @pytest.mark.parametrize("masked", [False, True], ids=["complete", "masked"])
    @pytest.mark.parametrize("case", ["single", "p_plus_1", "duplicated"])
    @settings(derandomize=True, deadline=None, database=None, max_examples=20)
    @given(data=st.data(), p=st.integers(1, 4), m=st.integers(2, 6), spare=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), signal=st.sampled_from([0.0, 1.0, 3.0]))
    def test_edge_panels_fit_finitely(self, case, masked, data, p, m, spare, seed, signal):
        # one tissue; a tissue observing exactly p+1 rows (every tissue when
        # the panel is complete); a tissue given twice, whose two posterior
        # rows must then be bitwise equal
        rng = np.random.default_rng(seed)
        m = 1 if case == "single" else m
        n = p + 1 if case == "p_plus_1" and not masked else p + 1 + spare
        x = rng.standard_normal((n, p))
        coefs = rng.standard_normal(p)[:, None] + signal * rng.standard_normal((p, m))
        y = x @ coefs + rng.standard_normal((n, m))
        mask = np.ones((n, m), dtype=bool)
        if masked:
            for t in range(m):
                n_obs = p + 1 if case == "p_plus_1" and t == 0 else data.draw(
                    st.integers(p + 1, n))
                mask[rng.choice(n, n - n_obs, replace=False), t] = False
        if case == "duplicated":
            y[:, 1], mask[:, 1] = y[:, 0], mask[:, 0]
        panel = ResponsePanel(np.where(mask, y, np.nan), mask=mask if masked else None)
        try:
            res = fit(build_design(x), panel)
        except RankDeficient:
            assume(False)
        params, post = res.params, res.posteriors
        assert np.all(np.isfinite(res.loglik_trace))
        assert np.all(np.isfinite([params.tau1, params.eta, params.sigma2, *params.beta]))
        assert all(np.all(np.isfinite(post[name])) for name in post.dtype.names)
        assert np.all((post.h >= 0.0) & (post.h <= 1.0))
        if case == "duplicated":
            assert post[:1].tobytes() == post[1:2].tobytes()

    def test_null_data_converges(self):
        rng = np.random.default_rng(89)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((12, 5))
        res = fit(build_design(x), ResponsePanel(y))
        assert res.converged
        assert np.isfinite(res.loglik_trace[-1])
