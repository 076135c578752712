"""Independent reference implementations used by the tests.

Everything here deliberately takes the slow, explicit route: dense n x n
covariances, direct quadrature, black-box numeric optimization.  None of
it shares code with the package's low-rank evaluation paths, so agreement
is evidence of correctness rather than of consistency.  The one exception
is the EM steps at the end: thin call-throughs into the package's private
cores, for tests that check one step at a time.
"""

from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import brentq, minimize
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, rankdata

from ebshrink.em import (
    _estep_core,
    _init_from_stats,
    _m_step_complete_core,
    _m_step_masked_core,
    _SuffStats,
)
from ebshrink.errors import NaInCovariates, ParseError


def dense_hat(x):
    """H = X (X'X)^-1 X' formed explicitly."""
    return x @ np.linalg.solve(x.T @ x, x.T)


def dense_cov_masked(x, mask, sigma2, eta):
    """sigma2*I + eta * X_t (X'X)^-1 X_t' on the observed rows."""
    xm = x[np.asarray(mask, dtype=bool)]
    middle = np.linalg.solve(x.T @ x, xm.T)
    return sigma2 * np.eye(xm.shape[0]) + eta * (xm @ middle)


def dense_logpdf(resid, cov):
    resid = np.asarray(resid, dtype=np.float64)
    return float(
        multivariate_normal(mean=np.zeros(resid.size), cov=cov).logpdf(resid)
    )


def dense_component_logliks(x, y, mask, params):
    """(lg0, lg1) for one tissue via explicit covariances."""
    mask = (
        np.ones(x.shape[0], dtype=bool) if mask is None else np.asarray(mask, bool)
    )
    ym = np.asarray(y, dtype=np.float64)
    if ym.shape == (x.shape[0],):
        ym = ym[mask]
    cov0 = params.sigma2 * np.eye(int(mask.sum()))
    lg0 = dense_logpdf(ym, cov0)
    cov1 = dense_cov_masked(x, mask, params.sigma2, params.eta)
    lg1 = dense_logpdf(ym - x[mask] @ params.beta, cov1)
    return lg0, lg1


def dense_responsibility(x, y, mask, params):
    """T1 for one tissue from the two dense densities."""
    lg0, lg1 = dense_component_logliks(x, y, mask, params)
    a0 = np.log(1.0 - params.tau1) + lg0
    a1 = np.log(params.tau1) + lg1
    return float(np.exp(a1 - logsumexp([a0, a1])))


def dense_loglik(x, y_panel, mask_panel, params):
    """Observed-data log-likelihood summed over tissues, dense route."""
    total = 0.0
    for t in range(y_panel.shape[1]):
        mask = mask_panel[:, t]
        lg0, lg1 = dense_component_logliks(x, y_panel[:, t], mask, params)
        total += float(
            logsumexp([np.log(1.0 - params.tau1) + lg0, np.log(params.tau1) + lg1])
        )
    return total


def dense_gls_beta(x, y, mask, resp, params):
    """Responsibility-weighted GLS mean at the current variances.

    Solves sum_t t1_t X_t'C_t^-1 X_t beta = sum_t t1_t X_t'C_t^-1 y_t with
    C_t the dense observed-row covariance of tissue t at ``params``.
    """
    x = np.asarray(x, dtype=np.float64)
    p = x.shape[1]
    mat = np.zeros((p, p))
    rhs = np.zeros(p)
    for t in range(y.shape[1]):
        idx = np.asarray(mask[:, t], dtype=bool)
        cov = dense_cov_masked(x, idx, params.sigma2, params.eta)
        xm = x[idx]
        mat += resp[t, 1] * (xm.T @ np.linalg.solve(cov, xm))
        rhs += resp[t, 1] * (xm.T @ np.linalg.solve(cov, y[idx, t]))
    return np.linalg.solve(mat, rhs)


def loop_suff_stats(x, y_panel, mask_panel):
    """Per-tissue eigenbasis statistics built one tissue at a time.

    The reference for the batched reduction: for each tissue its own
    observed-row Gram matrix, Cholesky solve, whitening and eigh.  Returns
    a namespace with d, u_stat (rows V'L'), pb, css, betahat, rss_ols and
    residual_stats(beta) -> (w2, rss).
    """
    x = np.asarray(x, dtype=np.float64)
    low = np.linalg.cholesky(x.T @ x)
    m, p = y_panel.shape[1], x.shape[1]
    d = np.empty((m, p))
    u_stat = np.empty((m, p, p))
    pb = np.empty((m, p))
    css = np.empty(m)
    betahat = np.empty((m, p))
    rss_ols = np.empty(m)
    for t in range(m):
        idx = np.asarray(mask_panel[:, t], dtype=bool)
        xm = x[idx]
        ym = y_panel[idx, t]
        sub_gram = xm.T @ xm
        sub_gram = 0.5 * (sub_gram + sub_gram.T)
        bt = xm.T @ ym
        sub_factor = np.linalg.cholesky(sub_gram)
        bhat = cho_solve((sub_factor, True), bt)
        half = solve_triangular(low, sub_gram, lower=True)
        s_mat = solve_triangular(low, half.T, lower=True)
        s_mat = 0.5 * (s_mat + s_mat.T)
        dvals, vecs = np.linalg.eigh(s_mat)
        d[t] = np.maximum(dvals, 0.0)
        u_stat[t] = (low @ vecs).T
        pb[t] = vecs.T @ solve_triangular(low, bt, lower=True)
        css[t] = float(ym @ ym)
        betahat[t] = bhat
        rss_ols[t] = max(css[t] - float(bt @ bhat), 0.0)

    def residual_stats(beta):
        z = u_stat @ beta
        zp = np.einsum("tj,tj->t", z, pb)
        zdz = np.einsum("tj,tj,tj->t", z, d, z)
        rss = np.maximum(css - 2.0 * zp + zdz, 0.0)
        w = pb - d * z
        return w * w, rss

    return SimpleNamespace(
        d=d, u_stat=u_stat, pb=pb, css=css, betahat=betahat, rss_ols=rss_ols,
        residual_stats=residual_stats,
    )


def quad_posterior_mean_1d(x, y, params):
    """E[beta | y] for p = 1 by adaptive quadrature over the slab.

    The posterior is a point mass at zero mixed with a continuous
    component proportional to N(y; x b, sigma2 I) N(b; beta, eta/x'x).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    xtx = float(x @ x)
    s2 = params.sigma2
    prior_var = params.eta / xtx
    b0 = float(params.beta[0])
    tau1 = params.tau1

    def log_joint(b):
        r = y - x * b
        return (
            np.log(tau1)
            - 0.5 * (n * np.log(2.0 * np.pi * s2) + float(r @ r) / s2)
            - 0.5 * (np.log(2.0 * np.pi * prior_var) + (b - b0) ** 2 / prior_var)
        )

    log_null = np.log(1.0 - tau1) - 0.5 * (
        n * np.log(2.0 * np.pi * s2) + float(y @ y) / s2
    )
    post_prec = xtx / s2 + 1.0 / prior_var
    center = (float(x @ y) / s2 + b0 / prior_var) / post_prec
    sd = post_prec**-0.5
    shift = log_joint(center)
    lo, hi = center - 14.0 * sd, center + 14.0 * sd
    mass, _ = quad(lambda b: np.exp(log_joint(b) - shift), lo, hi, limit=200)
    moment, _ = quad(lambda b: b * np.exp(log_joint(b) - shift), lo, hi, limit=200)
    null_mass = np.exp(log_null - shift)
    return moment / (null_mass + mass)


def numeric_q_max_complete(x, y_panel, resp, r_floor=1e-12):
    """Black-box maximizer of the complete-data EM objective.

    Q(theta') = sum_t T0 [log tau0 + lg0] + T1 [log tau1 + lg1], with the
    component log-densities formed densely.  beta is profiled first (the
    T1-weighted projected residual), then (sigma2, eta) found by log-grid
    search plus Nelder-Mead refinement, with eta floored at r_floor * sigma2,
    tau1 by its own 1-D refinement.
    Returns (tau1, beta, sigma2, eta).
    """
    n, p = x.shape
    m = y_panel.shape[1]
    t0 = resp[:, 0]
    t1 = resp[:, 1]
    hat = dense_hat(x)

    def weighted_rss(beta):
        tot = 0.0
        for t in range(m):
            r = y_panel[:, t] - x @ beta
            tot += t1[t] * float(r @ hat @ r)
        return tot

    beta = minimize(weighted_rss, np.zeros(p), method="BFGS", tol=1e-14).x

    css = np.einsum("it,it->t", y_panel, y_panel)

    def q_of(sigma2, eta):
        cov1 = sigma2 * np.eye(n) + eta * hat
        mvn1 = multivariate_normal(mean=np.zeros(n), cov=cov1)
        total = 0.0
        for t in range(m):
            lg0 = -0.5 * (n * np.log(2.0 * np.pi * sigma2) + css[t] / sigma2)
            lg1 = float(mvn1.logpdf(y_panel[:, t] - x @ beta))
            total += t0[t] * lg0 + t1[t] * lg1
        return total

    scale = float(css.mean()) / n
    grid = scale * np.logspace(-4, 4, 17)
    best = None
    for s2 in grid:
        for eta in np.concatenate(([r_floor * s2], grid)):
            val = q_of(s2, eta)
            if best is None or val > best[0]:
                best = (val, s2, eta)
    refined = minimize(
        lambda u: -q_of(np.exp(u[0]), np.exp(u[1])),
        np.log([best[1], best[2]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    sigma2, eta = np.exp(refined.x)
    eta = max(eta, r_floor * sigma2)

    def tau_score(tau):
        return float(t0.sum()) * np.log(1.0 - tau) + float(t1.sum()) * np.log(tau)

    t_ref = minimize(
        lambda u: -tau_score(1.0 / (1.0 + np.exp(-u[0]))),
        [0.0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14},
    )
    tau1 = 1.0 / (1.0 + np.exp(-t_ref.x[0]))
    return float(tau1), beta, float(sigma2), float(eta)


def midrank_auc(scores, labels):
    """AUC from the rank-sum of the positives, ties at their midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def brentq_profile_root(d, w2, rss, css, nobs, t0, t1, sigma2_floor, r_floor=1e-12):
    """(sigma2, eta, score at r_floor) of the variance update, by brentq.

    The arrays are the kernel statistics of every tissue, shape (m, p) or
    (m,), each tissue with its own d row (no pooling by basis).  With
    eta = r sigma2 the weighted objective peaks at sigma2(r) = Q(r) / A,
    A = sum_t (t0 + t1) nobs and Q(r) = sum_t t0 css + t1 (rss - r sum_j
    w2 / (1 + r d)), floored at sigma2_floor; the profile's slope in
    u = log r has the sign of

        score(u) = sum_t t1 sum_j [w2 / (sigma2(r) (1 + r d)^2) - d / (1 + r d)].

    The root is searched in [r_floor, 1e26]: r_floor when the score there
    is <= 0, 1e26 when the score there is >= 0.
    """
    total = float(np.sum((t0 + t1) * nobs))

    def profile(u):
        r = np.exp(u)
        shrink = 1.0 / (1.0 + r * d)
        q = np.sum(t0 * css) + np.sum(t1 * (rss - r * np.sum(w2 * shrink, axis=1)))
        return r, shrink, max(q / total, sigma2_floor)

    def score(u):
        _, shrink, sigma2 = profile(u)
        return float(np.sum(t1[:, None] * (w2 * shrink**2 / sigma2 - d * shrink)))

    u_lo, u_hi = np.log(r_floor), np.log(1e26)
    s_lo = score(u_lo)
    if s_lo <= 0.0:
        u = u_lo
    elif score(u_hi) >= 0.0:
        u = u_hi
    else:
        u = brentq(score, u_lo, u_hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    r, _, sigma2 = profile(u)
    return sigma2, r * sigma2, s_lo


def read_matrix_tsv_per_cell(path, allow_na=False):
    """A TSV matrix parsed one cell at a time through ``float()``.

    The reference for the package's row-at-a-time reader: the same layout
    rules, checked in file order, so the first fault raises ParseError (or
    NaInCovariates for an NA outside a response file) with its 1-based row
    and column.  Returns a namespace with values, row_ids and col_ids.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty file")
    rows = [ln.split("\t") for ln in lines]
    header = rows[0]
    has_ids = header[0] == "#id"
    col_ids = header[1:] if has_ids else header
    if not col_ids:
        raise ParseError(f"{path}: header has no column identifiers")
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: header but no data rows")
    row_ids = [] if has_ids else None
    values = np.empty((len(body), len(col_ids)))
    for i, row in enumerate(body):
        line_no = i + 2
        if len(row) != len(header):
            raise ParseError(f"{path}: ragged row", row=line_no)
        if has_ids:
            row_ids.append(row[0])
            row = row[1:]
        for c, cell in enumerate(row):
            if cell == "NA":
                if not allow_na:
                    raise NaInCovariates(f"{path}: NA", row=line_no, col=c + 1)
                values[i, c] = np.nan
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"{path}: not a number", row=line_no, col=c + 1) from None
            if not np.isfinite(v):
                raise ParseError(f"{path}: non-finite", row=line_no, col=c + 1)
            values[i, c] = v
    return SimpleNamespace(values=values, row_ids=row_ids, col_ids=list(col_ids))


def render_table_per_cell(header, rows, sep="\t"):
    """Delimited text rendered one cell at a time: floats by repr, NaN as NA.

    The reference for the package's run-at-a-time writer; a ragged row or a
    cell holding the separator or a line break raises ValueError.
    """
    lines = []
    for row in [header, *rows]:
        cells = []
        for c in row:
            if isinstance(c, float):
                cells.append("NA" if np.isnan(c) else float.__repr__(c))
            else:
                cells.append(str(c))
        if len(cells) != len(header):
            raise ValueError("ragged row")
        if any(sep in cell or "\n" in cell or "\r" in cell for cell in cells):
            raise ValueError("separator or line break in a cell")
        lines.append(sep.join(cells))
    return "".join(line + "\n" for line in lines)


# One EM step at a time through the cores fit runs, each from statistics
# built afresh.  They validate nothing beyond what _SuffStats checks: fit,
# ols, tissue_posterior and kfold_cv are the entries that check their input.


def e_step(design, panel, params):
    """(resp, loglik) at ``params``: rows of resp are (P[null], P[signal])."""
    return _estep_core(_SuffStats(design, panel), params)[:2]


def m_step_complete(design, panel, resp):
    """The closed-form M-step on a complete panel, which fit never takes.

    Raises DegenerateResponsibilities when the signal component has no mass.
    """
    return _m_step_complete_core(_SuffStats(design, panel), resp)


def m_step_masked(design, panel, resp, current):
    """The parameters of the M-step fit takes on every panel."""
    return _m_step_masked_core(_SuffStats(design, panel), resp, current)[0]


def init_params(design, panel):
    """fit's starting point, from per-tissue least squares."""
    return _init_from_stats(_SuffStats(design, panel))
