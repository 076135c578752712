"""EM fitting of the shared spike-and-slab prior across tissues.

All tissues share one design X.  The E-step computes per-tissue
responsibilities for the signal component; the M-step updates
(tau1, beta, eta, sigma2) by one rule on every panel.  tau1 and beta are
closed form (beta as a responsibility-weighted GLS at the current variance
parameters).  Because the slab covariance is eta (X'X)^-1, fixing the ratio
r = eta/sigma2 leaves an objective maximized by sigma2 in closed form, so
(sigma2, eta) are updated by root-finding the closed-form slope of that
profile in log r.  Each update is a conditional maximization that never
decreases the EM objective, so the observed-data log-likelihood is
monotone; on a complete panel the step is the joint maximizer.

Everything the inner loop needs is reduced once per fit to per-tissue
statistics in the eigenbasis of the whitened sub-Gram matrices
L^-1 X_t'X_t L^-T (L the Cholesky factor of X'X), after which one
objective evaluation costs O(m p) regardless of n (O(p) per variance probe
on a complete panel, whose tissues share one basis).  The reduction is one
batched pass over all tissues, and the rank checks work in whitened
coordinates, so they do not depend on the scale of X's columns.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import brentq
from scipy.special import expit

from . import kernels
from .errors import BadShape, DegenerateResponsibilities, NonFinite, RankDeficient
from .linalg import PIVOT_RTOL, _apply_mask, _checked_cholesky
from .posterior import R_FLOOR, PriorParams, TissuePosterior

# responsibility mass below which the signal component is considered empty
DEGENERATE_MASS = 1e-12

# bytes of row outer products held at once while the masked Gram matrices
# accumulate, so the temporary stays bounded whatever n and p
GRAM_BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class FitOptions:
    """Knobs for :func:`fit`.

    tol is the relative log-likelihood change declaring convergence;
    max_iter caps the EM iterations.
    """

    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class ResponsePanel:
    """Responses for m tissues over the n rows of one shared design.

    Attributes
    ----------
    y : ndarray of shape (n, m)
        Responses; unobserved cells are stored as NaN and never read.
    mask : ndarray of shape (n, m) of bool
        True where observed.  None in the constructor means fully observed.
    tissue_names : tuple of str
        Length m; autogenerated as t1..tm when omitted.
    """

    y: np.ndarray
    mask: np.ndarray = None
    tissue_names: tuple = None

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64, copy=True)
        if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
            raise BadShape(f"responses must be a nonempty 2-d array, got shape {y.shape}")
        if self.mask is None:
            mask = np.ones(y.shape, dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool, copy=True)
            if mask.shape != y.shape:
                raise BadShape(f"mask shape {mask.shape} != response shape {y.shape}")
        if not np.all(np.isfinite(y[mask])):
            raise NonFinite("observed responses contain NaN or infinite entries")
        y[~mask] = np.nan
        counts = mask.sum(axis=0)
        if np.any(counts < 1):
            t = int(np.argmin(counts))
            raise BadShape(f"tissue column {t} has no observed rows")
        if self.tissue_names is None:
            names = tuple(f"t{j + 1}" for j in range(y.shape[1]))
        else:
            names = tuple(str(s) for s in self.tissue_names)
            if len(names) != y.shape[1]:
                raise BadShape(f"{len(names)} tissue names for {y.shape[1]} tissues")
        y.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "tissue_names", names)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def m(self):
        return self.y.shape[1]

    @property
    def complete(self):
        return bool(self.mask.all())

    def observed_counts(self):
        return self.mask.sum(axis=0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit`.

    loglik_trace holds the observed-data log-likelihood at the start of
    every EM iteration; iterations == len(loglik_trace).  The loop ends on
    an E-step, so the last entry is the log-likelihood at ``params`` and
    the posteriors come from that same E-step.  converged=False just means
    max_iter was hit, the result is still usable.
    """

    params: PriorParams
    posteriors: list
    loglik_trace: np.ndarray
    iterations: int
    converged: bool


class _SuffStats:
    """Per-tissue second-order statistics in the whitened eigenbasis.

    With L the Cholesky factor of X'X (kept as gram_factor) and w_i = L^-1 x_i
    the whitened rows, tissue t with observed rows X_t, y_t has

        S_t = L^-1 X_t'X_t L^-T = sum of its rows' w_i w_i' = V diag(d) V'
        vecs[t] = V'   (rows are eigenvectors; a mean beta maps to V'L'beta)
        pb[t]   = V' L^-1 X_t'y_t
        css[t]  = |y_t|^2,  nobs[t] = row count

    d_j = v_j'X_t'X_t v_j / v_j'X'X v_j lies in [0, 1] and does not change
    when X's columns are rescaled.  One GEMM of the mask against the rows'
    outer products (in row blocks of bounded size) and one batched eigh
    reduce all tissues at once.  A complete panel has d = 1 and one shared
    basis, vecs = I of shape (1, p, p), broadcast over the tissues.
    """

    def __init__(self, design, panel):
        x, low = design.x, design.gram_factor
        n, p = design.n, design.p
        m = panel.m
        if panel.n != n:
            raise BadShape(f"panel has {panel.n} rows, design has {n}")
        counts = panel.observed_counts()
        short = counts < p + 1
        if np.any(short):
            t = int(np.argmax(short))
            raise BadShape(
                f"tissue {panel.tissue_names[t]} has {int(counts[t])} observed rows; "
                f"need at least p+1 = {p + 1}"
            )
        self.p = p
        self.m = m
        self.gram_factor = low
        self.nobs = counts.astype(np.float64)
        y_obs = np.where(panel.mask, panel.y, 0.0)
        self.css = np.einsum("ij,ij->j", y_obs, y_obs)
        xty = solve_triangular(low, x.T @ y_obs, lower=True).T   # rows L^-1 X_t'y_t
        if panel.complete:
            self.d = np.ones((m, p))
            self.vecs = np.eye(p)[None]
        else:
            white = solve_triangular(low, x.T, lower=True).T     # rows w_i
            rows = max(1, GRAM_BLOCK_BYTES // (8 * p * p))
            grams = np.zeros((m, p * p))
            for lo in range(0, n, rows):
                blk = white[lo:lo + rows]
                outer = (blk[:, :, None] * blk[:, None, :]).reshape(len(blk), p * p)
                grams += panel.mask[lo:lo + rows].T.astype(np.float64) @ outer
            self.d, vecs = np.linalg.eigh(grams.reshape(m, p, p))
            weak = self.d[:, 0] < PIVOT_RTOL
            if np.any(weak):
                t = int(np.argmax(weak))
                raise RankDeficient(
                    f"observed-row X'X for tissue {panel.tissue_names[t]} is numerically rank "
                    f"deficient: {self.d[t, 0]:.3g} of X'X along its weakest direction"
                )
            self.vecs = np.ascontiguousarray(vecs.transpose(0, 2, 1))
        self.pb = (self.vecs @ xty[:, :, None])[:, :, 0]
        self.betahat = self.to_coefficients(self.pb / self.d)
        self.rss_ols = np.maximum(self.css - np.sum(self.pb**2 / self.d, axis=1), 0.0)

    def check_mean(self, params):
        """Raise BadShape unless params.beta has one entry per covariate."""
        if params.beta.shape != (self.p,):
            raise BadShape(f"beta has shape {params.beta.shape}, design has p = {self.p}")

    def to_coefficients(self, c):
        """L^-T V_t c_t for every row c_t of the (m, p) eigenbasis array c."""
        back = (c[:, None, :] @ self.vecs)[:, 0, :]
        return solve_triangular(self.gram_factor.T, back.T, lower=False).T

    def residual_stats(self, beta):
        """(w2, rss) at a shared mean beta; see kernel docs for meaning."""
        z = self.vecs @ (self.gram_factor.T @ beta)          # (m, p), or (1, p)
        zp = np.einsum("tj,tj->t", z, self.pb)
        zdz = np.einsum("tj,tj,tj->t", z, self.d, z)
        rss = np.maximum(self.css - 2.0 * zp + zdz, 0.0)
        w = self.pb - self.d * z
        return w * w, rss


def _estep_core(stats, params):
    w2, rss = stats.residual_stats(params.beta)
    lg0, lg1 = kernels.component_loglik(
        stats.d, w2, rss, stats.css, stats.nobs, params.sigma2, params.eta
    )
    a0 = math.log(params.tau0) + lg0
    a1 = math.log(params.tau1) + lg1
    loglik = float(np.logaddexp(a0, a1).sum())
    t_one = expit(a1 - a0)
    resp = np.column_stack((1.0 - t_one, t_one))
    return resp, loglik, lg0, lg1


def _summarize(stats, params, resp, lg0, lg1):
    """Per-tissue posteriors from one E-step's terms at ``params``.

    h is the E-step responsibility itself.  Given association, the
    whitened coefficients L'b_t have prior N(L'beta, eta I) and precision
    I/eta + S_t/sigma2 = V (1/eta + d/sigma2) V', so in the eigenbasis the
    conditional mean is c = (V'L'beta + r pb) / (1 + r d) with
    r = eta/sigma2, and mapping back is b = L^-T V c.
    """
    z = stats.vecs @ (stats.gram_factor.T @ params.beta)
    ratio = params.eta / params.sigma2
    c = (z + ratio * stats.pb) / (1.0 + ratio * stats.d)
    cond = stats.to_coefficients(c)
    log_bf = lg0 - lg1
    log_odds = log_bf + (math.log(params.tau0) - math.log(params.tau1))
    h = resp[:, 1]
    return [
        TissuePosterior(
            h=float(h[t]),
            post_mean=h[t] * cond[t],
            cond_mean_active=cond[t],
            log_bf=float(log_bf[t]),
            log_odds=float(log_odds[t]),
        )
        for t in range(stats.m)
    ]


def _check_resp(resp, m):
    resp = np.asarray(resp, dtype=np.float64)
    if resp.shape != (m, 2):
        raise BadShape(f"responsibilities must have shape ({m}, 2), got {resp.shape}")
    if np.any(resp < -1e-12) or np.any(np.abs(resp.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("responsibility rows must be nonnegative and sum to 1")
    return np.clip(resp, 0.0, 1.0)


# fit does not call this closed form.  It stays as the tested reference
# behind m_step_complete, which criterion 6 checks against a numeric
# maximizer, and under this name because the benchmark tracer wraps it.
def _m_step_complete_core(stats, resp):
    t_one = resp[:, 1]
    mass = float(t_one.sum())
    if mass < DEGENERATE_MASS:
        raise DegenerateResponsibilities(
            f"signal responsibility mass {mass:.3g} below {DEGENERATE_MASS}"
        )
    m, p = stats.m, stats.p
    n = float(stats.nobs[0])
    tau1 = mass / m
    beta = (stats.betahat.T @ t_one) / mass
    yhy = np.sum(stats.pb**2, axis=1)
    css_total = float(stats.css.sum())
    sigma2 = (css_total - float(t_one @ yhy)) / (m * n - p * mass)
    # L' beta maps the new mean into the same basis as pb
    lt_beta = stats.gram_factor.T @ beta
    col_rss = np.sum((stats.pb - lt_beta) ** 2, axis=1)
    eta = float(t_one @ col_rss) / (p * mass) - sigma2
    if eta < R_FLOOR * sigma2:
        # boundary case: with r = eta/sigma2 pinned (effectively 0) the
        # constrained maximizer of the objective pools all residual variation
        sigma2 = (css_total - float(t_one @ yhy) + float(t_one @ col_rss)) / (m * n)
        eta = R_FLOOR * sigma2
    sigma2 = max(sigma2, np.finfo(np.float64).tiny)
    return PriorParams(tau1=tau1, beta=beta, eta=eta, sigma2=sigma2)


def _m_step_masked_core(stats, resp, current):
    t_zero = np.ascontiguousarray(resp[:, 0])
    t_one = np.ascontiguousarray(resp[:, 1])
    mass = float(t_one.sum())
    tau1 = mass / stats.m
    # tissues sharing one basis (all of them when complete) share d too, so
    # the GLS weights and the profile's statistics pool to one row per basis
    pool = (len(stats.vecs), -1, stats.p)

    if mass < DEGENERATE_MASS:
        beta = current.beta
    else:
        # GLS at the current variance parameters, solved for L'beta: each
        # tissue contributes V_t diag(wgt_t) V_t' and V_t rhs_t (the common
        # factor 1/sigma2 cancels)
        shifted = 1.0 + (current.eta / current.sigma2) * stats.d
        wgt = (t_one[:, None] * stats.d / shifted).reshape(pool).sum(axis=1)
        rhs = (t_one[:, None] * stats.pb / shifted).reshape(pool).sum(axis=1)
        rows = stats.vecs.reshape(-1, stats.p)               # every v_tj'
        mat = rows.T @ (wgt.reshape(-1, 1) * rows)
        factor = _checked_cholesky(0.5 * (mat + mat.T), "GLS normal matrix")
        lt_beta = cho_solve((factor, True), rows.T @ rhs.ravel())
        beta = solve_triangular(stats.gram_factor.T, lt_beta, lower=False)

    w2, rss = stats.residual_stats(beta)
    d, css, nobs = stats.d, stats.css, stats.nobs

    def objective(sigma2, eta):
        return kernels.weighted_mixture_loglik(
            d, w2, rss, css, nobs, t_zero, t_one, sigma2, eta
        )

    # With eta = r * sigma2 every component density has the form
    # -0.5 * (nobs log sigma2 + Q_t(r) / sigma2 + const(r)), so for fixed r
    # the objective peaks at sigma2 = Q(r) / A, and the profile's slope in r
    # has the sign of score(log r).
    total_obs = float((t_zero + t_one) @ nobs)
    q_base = float(t_zero @ css + t_one @ rss)
    w2_pool = (t_one[:, None] * w2).reshape(pool).sum(axis=1)
    d_pool = d.reshape(pool)[:, 0]
    d_mass = t_one.reshape(pool[:2]).sum(axis=1)[:, None] * d_pool

    def profile(u):
        r = math.exp(u)
        shrink = 1.0 / (1.0 + r * d_pool)
        q = q_base - r * float((w2_pool * shrink).sum())
        return r, shrink, max(q / total_obs, np.finfo(np.float64).tiny)

    def score(u):
        _, shrink, sigma2 = profile(u)
        return float((w2_pool * shrink**2).sum() / sigma2 - (d_mass * shrink).sum())

    # the r bracket [R_FLOOR, 1e26] holds ratios, so it is the same at every
    # response scale; log space keeps the root search well conditioned
    u_lo, u_hi = math.log(R_FLOOR), math.log(1e26)
    if score(u_lo) <= 0.0:
        u = u_lo
    elif score(u_hi) >= 0.0:
        u = u_hi
    else:
        u = brentq(score, u_lo, u_hi)
    ratio, _, sigma2 = profile(u)
    eta = ratio * sigma2
    # the profile need not be unimodal in r, so the root found (or a bracket
    # end) can score below the current point; keeping the current variances
    # then stays monotone
    if objective(sigma2, eta) < objective(current.sigma2, current.eta):
        sigma2, eta = current.sigma2, current.eta
    return PriorParams(tau1=tau1, beta=beta, eta=eta, sigma2=sigma2)


def _init_from_stats(stats):
    beta0 = stats.betahat.mean(axis=0)
    dof = float(np.sum(stats.nobs - stats.p))
    floor = 1e-12 * float(stats.css.sum()) / (stats.m * float(stats.nobs.max()))
    sigma2 = max(float(stats.rss_ols.sum()) / dof, floor, np.finfo(np.float64).tiny)
    lt_dev = (stats.betahat - beta0) @ stats.gram_factor    # rows L'(betahat - beta0)
    spread = float(np.mean(np.sum(lt_dev**2, axis=1))) / stats.p
    eta0 = max(spread - sigma2, 10.0 * R_FLOOR * sigma2)
    return PriorParams(tau1=0.5, beta=beta0, eta=eta0, sigma2=sigma2)


def e_step(design, panel, params):
    """Responsibilities and observed-data log-likelihood at ``params``.

    Returns
    -------
    (resp, loglik) : ndarray of shape (m, 2), float
        Rows of resp are (P[null], P[signal]) and sum to 1 exactly.
    """
    stats = _SuffStats(design, panel)
    stats.check_mean(params)
    resp, loglik, _, _ = _estep_core(stats, params)
    return resp, loglik


def m_step_complete(design, panel, resp):
    """Closed-form parameter update for a fully observed panel.

    The reference :func:`m_step_masked` reproduces on complete panels;
    :func:`fit` does not call it.  Raises DegenerateResponsibilities when
    the signal component has no mass.
    """
    if not panel.complete:
        raise BadShape("m_step_complete requires a fully observed panel")
    stats = _SuffStats(design, panel)
    return _m_step_complete_core(stats, _check_resp(resp, panel.m))


def m_step_masked(design, panel, resp, current):
    """The M-step :func:`fit` takes on every panel, complete or masked.

    tau1 and beta update in closed form (beta by responsibility-weighted
    GLS at the current variance parameters).  With sigma2 the closed-form
    maximizer at each r = eta/sigma2, r is the root of the profile's
    closed-form slope in log r, or an end of its bracket when the slope
    keeps one sign there; when that lands below the current variances they
    are kept.  The EM objective never decreases.  With zero signal mass
    beta is kept and tau1 falls to its clamp floor.
    """
    stats = _SuffStats(design, panel)
    stats.check_mean(current)
    return _m_step_masked_core(stats, _check_resp(resp, panel.m), current)


def init_params(design, panel):
    """Moment-style starting point from per-tissue least squares."""
    return _init_from_stats(_SuffStats(design, panel))


def fit(design, panel, options=None):
    """Fit the shared prior by EM and summarize every tissue's posterior.

    Parameters
    ----------
    design : Design
    panel : ResponsePanel
        Every tissue needs at least p+1 observed rows.
    options : FitOptions, optional

    Returns
    -------
    FitResult

    Notes
    -----
    Convergence is declared when the observed-data log-likelihood changes
    by at most tol * (1 + |loglik|) between iterations.  Every M-step is
    :func:`m_step_masked`'s, so when all signal responsibility mass
    vanishes beta is kept and tau1 falls to its clamp floor.
    """
    options = options or FitOptions()
    stats = _SuffStats(design, panel)
    params = _init_from_stats(stats)
    resp, loglik, lg0, lg1 = _estep_core(stats, params)
    trace = [loglik]
    converged = False
    while not converged and len(trace) < options.max_iter:
        params = _m_step_masked_core(stats, resp, params)
        resp, loglik, lg0, lg1 = _estep_core(stats, params)
        trace.append(loglik)
        converged = abs(trace[-1] - trace[-2]) <= options.tol * (1.0 + abs(loglik))
    return FitResult(
        params=params,
        posteriors=_summarize(stats, params, resp, lg0, lg1),
        loglik_trace=np.asarray(trace, dtype=np.float64),
        iterations=len(trace),
        converged=converged,
    )


def tissue_posterior(design, y, params, mask=None):
    """Full posterior summary for one tissue.

    Parameters
    ----------
    design : Design
    y : array_like
        All n responses, or the observed ones when ``mask`` is given.
    params : PriorParams
    mask : array_like of bool, optional
        Observation indicator of length n; None means fully observed.

    Returns
    -------
    TissuePosterior

    Raises
    ------
    BadShape
        If fewer than p+1 rows are observed, or params.beta does not have p
        entries.
    """
    _, y_obs = _apply_mask(design, y, mask)
    if mask is None:
        panel = ResponsePanel(y_obs[:, None])
    else:
        mask = np.asarray(mask, dtype=bool)
        col = np.full(design.n, np.nan)
        col[mask] = y_obs
        panel = ResponsePanel(col[:, None], mask=mask[:, None])
    stats = _SuffStats(design, panel)
    stats.check_mean(params)
    resp, _, lg0, lg1 = _estep_core(stats, params)
    return _summarize(stats, params, resp, lg0, lg1)[0]
