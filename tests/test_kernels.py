"""The mixture kernels agree with the dense route."""

from types import SimpleNamespace

import numpy as np
from numpy.testing import assert_allclose

from ebshrink import kernels
from ebshrink.em import ResponsePanel, _SuffStats
from ebshrink.linalg import build_design

from oracles import dense_component_logliks


def random_stats(rng, n=12, p=3, m=5, masked=True):
    x = rng.standard_normal((n, p))
    design = build_design(x)
    y = rng.standard_normal((n, m))
    if masked:
        mask = np.ones((n, m), dtype=bool)
        for t in range(m):
            mask[rng.choice(n, size=3, replace=False), t] = False
        y = np.where(mask, y, np.nan)
    else:
        mask = None
    panel = ResponsePanel(y=y, mask=mask)
    return design, panel, _SuffStats(design, panel)


def test_component_loglik_matches_dense():
    # the kernel is the only component density in the package, so it is
    # checked on both statistics layouts and at the eta = 0 boundary
    rng = np.random.default_rng(40)
    for masked in (True, False):
        design, panel, stats = random_stats(rng, masked=masked)
        beta = rng.standard_normal(3)
        for eta in (2.5, 0.0):
            # a namespace, not PriorParams, which would floor eta at 1e-12 sigma2
            params = SimpleNamespace(beta=beta, eta=eta, sigma2=1.3)
            w2, rss = stats.residual_stats(beta)
            lg0, lg1 = kernels.component_loglik(
                stats.d, w2, rss, stats.css, stats.nobs, params.sigma2, eta
            )
            for t in range(panel.m):
                ref0, ref1 = dense_component_logliks(
                    design.x, panel.y[:, t], panel.mask[:, t], params
                )
                assert_allclose(lg0[t], ref0, rtol=1e-10)
                assert_allclose(lg1[t], ref1, rtol=1e-10)


def test_weighted_mixture_is_weighted_sum():
    rng = np.random.default_rng(42)
    _, _, stats = random_stats(rng, masked=False)
    beta = rng.standard_normal(3)
    w2, rss = stats.residual_stats(beta)
    t1 = rng.random(5)
    t0 = 1.0 - t1
    lg0, lg1 = kernels.component_loglik(
        stats.d, w2, rss, stats.css, stats.nobs, 1.1, 0.6
    )
    q = kernels.weighted_mixture_loglik(
        stats.d, w2, rss, stats.css, stats.nobs, t0, t1, 1.1, 0.6
    )
    assert_allclose(q, float(t0 @ lg0 + t1 @ lg1), rtol=1e-12)


def test_eta_zero_collapses_components():
    # with eta = 0 and beta = 0 the two component densities coincide
    rng = np.random.default_rng(43)
    _, _, stats = random_stats(rng)
    w2, rss = stats.residual_stats(np.zeros(3))
    lg0, lg1 = kernels.component_loglik(
        stats.d, w2, rss, stats.css, stats.nobs, 2.0, 0.0
    )
    assert_allclose(lg0, lg1, rtol=1e-12)
