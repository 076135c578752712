"""The two kernel backends agree with each other and with the dense route."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebshrink import _kernels_py, kernels
from ebshrink.em import ResponsePanel, _SuffStats
from ebshrink.linalg import build_design

from oracles import dense_component_logliks

try:
    from ebshrink import _kernels_c
except ImportError:
    _kernels_c = None

BACKENDS = [_kernels_py] + ([_kernels_c] if _kernels_c is not None else [])


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


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda b: b.__name__.rsplit("_", 1)[-1])
def test_component_loglik_matches_dense(impl):
    # the kernel is the only component density in the package, so it is
    # checked on both statistics layouts and at the eta = 0 boundary
    rng = np.random.default_rng(40)
    for masked in (True, False):
        design, panel, stats = random_stats(rng, masked=masked)
        beta = rng.standard_normal(3)
        for eta in (2.5, 0.0):
            # a namespace, not PriorParams, which would floor eta at 1e-10
            params = SimpleNamespace(beta=beta, eta=eta, sigma2=1.3)
            w2, rss = stats.residual_stats(beta)
            lg0, lg1 = impl.component_loglik(
                stats.d, w2, rss, stats.css, stats.nobs, params.sigma2, eta
            )
            for t in range(panel.m):
                ref0, ref1 = dense_component_logliks(
                    design.x, panel.y[:, t], panel.mask[:, t], params
                )
                assert_allclose(lg0[t], ref0, rtol=1e-10)
                assert_allclose(lg1[t], ref1, rtol=1e-10)


def test_backends_agree():
    if _kernels_c is None:
        pytest.skip("compiled kernel not built")
    rng = np.random.default_rng(41)
    _, _, stats = random_stats(rng, n=20, p=4, m=8)
    beta = rng.standard_normal(4)
    w2, rss = stats.residual_stats(beta)
    t1 = rng.random(8)
    t0 = 1.0 - t1
    for sigma2, eta in [(0.5, 0.0), (1.0, 3.0), (4.0, 1e-10)]:
        a0, a1 = _kernels_py.component_loglik(
            stats.d, w2, rss, stats.css, stats.nobs, sigma2, eta
        )
        b0, b1 = _kernels_c.component_loglik(
            stats.d, w2, rss, stats.css, stats.nobs, sigma2, eta
        )
        assert_allclose(a0, b0, rtol=1e-13)
        assert_allclose(a1, b1, rtol=1e-13)
        qa = _kernels_py.weighted_mixture_loglik(
            stats.d, w2, rss, stats.css, stats.nobs, t0, t1, sigma2, eta
        )
        qb = _kernels_c.weighted_mixture_loglik(
            stats.d, w2, rss, stats.css, stats.nobs, t0, t1, sigma2, eta
        )
        assert_allclose(qa, qb, rtol=1e-12)


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
