"""Mixture log-likelihood kernels.

Per tissue t the data enter only through sufficient statistics in the
eigenbasis of the whitened sub-Gram matrix, computed once per fit:

    d[t, j]   eigenvalues of L^-1 X_t'X_t L^-T  (all 1 when complete)
    w2[t, j]  squared components of pb - d * z, with z the projected mean
    rss[t]    residual sum of squares at the current shared mean
    css[t]    |y_obs|^2
    nobs[t]   observed-row count

and the two component log-densities are

    lg0 = -0.5 * (nobs*(log 2pi + log s2) + css/s2)
    lg1 = -0.5 * (nobs*log 2pi + (nobs-p)*log s2 + sum_j log(s2 + eta*d_j)
                  + rss/s2 - sum_j w2_j * eta / (s2*(s2 + eta*d_j)))

Both are exact for eta = 0 (the correction term vanishes without dividing
by eta).
"""

import numpy as np

# the only implementation; perfbench/envinfo.py reads this name
BACKEND = "python"

_LOG_2PI = float(np.log(2.0 * np.pi))


def component_loglik(d, w2, rss, css, nobs, sigma2, eta):
    """Both component log-densities for every tissue.

    Parameters
    ----------
    d, w2 : ndarray of shape (m, p)
    rss, css, nobs : ndarray of shape (m,)
    sigma2 : float, > 0
    eta : float, >= 0

    Returns
    -------
    (lg0, lg1) : pair of ndarray of shape (m,)
    """
    p = d.shape[1]
    log_s2 = np.log(sigma2)
    lg0 = -0.5 * (nobs * (_LOG_2PI + log_s2) + css / sigma2)
    shifted = sigma2 + eta * d
    logdet = (nobs - p) * log_s2 + np.sum(np.log(shifted), axis=1)
    quad = rss / sigma2 - (eta / sigma2) * np.sum(w2 / shifted, axis=1)
    lg1 = -0.5 * (nobs * _LOG_2PI + logdet + quad)
    return lg0, lg1


# bound once, so wrapping the public name (as perfbench/tracing.py does)
# counts one kernel call per weighted_mixture_loglik call, not two
_component_loglik = component_loglik


def weighted_mixture_loglik(d, w2, rss, css, nobs, t0, t1, sigma2, eta):
    """sum_t t0[t]*lg0[t] + t1[t]*lg1[t], the M-step objective in (s2, eta).

    Same statistics as :func:`component_loglik` plus the fixed
    responsibilities ``t0``, ``t1`` of shape (m,).
    """
    lg0, lg1 = _component_loglik(d, w2, rss, css, nobs, sigma2, eta)
    return float(t0 @ lg0 + t1 @ lg1)
