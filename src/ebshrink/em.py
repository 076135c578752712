"""EM fitting of the shared spike-and-slab prior across tissues.

All tissues share one design X.  The E-step computes per-tissue
responsibilities for the signal component; the M-step updates
(tau1, beta, eta, sigma2) by one rule on every panel.  tau1 and beta are
closed form (beta as a responsibility-weighted GLS at the current variance
parameters).  Because the slab covariance is eta (X'X)^-1, fixing the ratio
r = eta/sigma2 leaves an objective maximized by sigma2 in closed form, so
(sigma2, eta) are updated by Newton's method on the closed-form slope of
that profile in log r.  Each update is a conditional maximization that
never decreases the EM objective, so the observed-data log-likelihood is
monotone; on a complete panel the step is the joint maximizer.

Everything the inner loop needs is reduced once per fit to per-tissue
statistics in the eigenbasis of the whitened sub-Gram matrices
L^-1 X_t'X_t L^-T (L the Cholesky factor of X'X), after which one
objective evaluation costs O(m p) regardless of n (O(p) per variance probe
on a complete panel, whose tissues share one basis).  The reduction is one
symmetric product per tissue and one batched eigh, and the rank checks work
in whitened coordinates, so they do not depend on the scale of X's columns.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.special import expit

from . import kernels
from ._parallel import one_blas_thread
from .errors import BadShape, DegenerateResponsibilities, NonFinite, RankDeficient
from .linalg import PIVOT_RTOL, _checked_cholesky
from .posterior import R_FLOOR, PriorParams, posterior_table

# responsibility mass below which the signal component is considered empty
DEGENERATE_MASS = 1e-12


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
    the posteriors come from that same E-step; they are the read-only
    :func:`~ebshrink.posterior.posterior_table`, a row per tissue in panel
    order.  converged=False just means max_iter was hit, the result is
    still usable.  betahat, of shape (m, p), holds every tissue's least
    squares on its observed rows (the fit's own statistics); it is None on
    a result loaded from a fit report, which does not store it.
    """

    params: PriorParams
    posteriors: np.recarray
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    betahat: np.ndarray = None


class _SuffStats:
    """Per-tissue second-order statistics in the whitened eigenbasis.

    With L the Cholesky factor of X'X (kept as gram_factor) and w_i = L^-1 x_i
    the whitened rows, tissue t with observed rows X_t, y_t has

        S_t = L^-1 X_t'X_t L^-T = sum of its rows' w_i w_i' = V diag(d) V'
        vecs[t] = V'   (rows are eigenvectors; a mean beta maps to V'L'beta)
        pb[t]   = V' L^-1 X_t'y_t
        css[t]  = |y_t|^2,  nobs[t] = row count

    d_j = v_j'X_t'X_t v_j / v_j'X'X v_j lies in [0, 1] and does not change
    when X's columns are rescaled.  S_t is one symmetric product of the
    tissue's observed whitened rows, and one batched eigh diagonalizes all
    of them.  A complete panel has d = 1 and one shared basis, vecs = I of
    shape (1, p, p), broadcast over the tissues.
    sigma2_floor, 1e-12 of the mean square response, bounds every sigma2
    update from below; it moves with the response scale and keeps the
    kernels finite on a noise-free panel.
    """

    def __init__(self, design, panel):
        x, low = design.x, design.gram_factor
        p, m = design.p, panel.m
        if panel.n != design.n:
            raise BadShape(f"panel has {panel.n} rows, design has {design.n}")
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
        # a tissue's pb**2 / d sums to at most its css: a finite total keeps them finite
        with np.errstate(over="ignore"):
            css_total = float(self.css.sum())
        if not math.isfinite(css_total):
            t = panel.tissue_names[int(np.argmax(self.css))]
            raise NonFinite(f"squared responses overflow float range, most at tissue {t}")
        self.sigma2_floor = max(
            1e-12 * css_total / (m * float(self.nobs.max())),
            np.finfo(np.float64).tiny,
        )
        xty = solve_triangular(low, x.T @ y_obs, lower=True).T   # rows L^-1 X_t'y_t
        if panel.complete:
            self.d = np.ones((m, p))
            self.vecs = np.eye(p)[None]
        else:
            white = solve_triangular(low, x.T, lower=True).T     # rows w_i
            # w.T @ w is a BLAS syrk: one triangle, mirrored, so exactly symmetric
            grams = np.stack([w.T @ w for w in (white[obs] for obs in panel.mask.T)])
            self.d, vecs = np.linalg.eigh(grams)
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


def _responsibilities(params, lg0, lg1):
    """Responsibilities and observed-data log-likelihood from the terms at ``params``."""
    a0 = math.log(params.tau0) + lg0
    a1 = math.log(params.tau1) + lg1
    loglik = float(np.logaddexp(a0, a1).sum())
    t_one = expit(a1 - a0)
    return np.column_stack((1.0 - t_one, t_one)), loglik


def _estep_core(stats, params):
    w2, rss = stats.residual_stats(params.beta)
    lg0, lg1 = kernels.component_loglik(
        stats.d, w2, rss, stats.css, stats.nobs, params.sigma2, params.eta
    )
    resp, loglik = _responsibilities(params, lg0, lg1)
    return resp, loglik, lg0, lg1


def _summarize(stats, params, resp, lg0, lg1):
    """Every tissue's posterior table from one E-step's terms at ``params``.

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
    return posterior_table(h, h[:, None] * cond, cond, log_bf, log_odds)


# fit does not call this closed form.  It stays as the tests' reference for
# the complete-panel M-step, which criterion 6 checks against a numeric
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
    sigma2 = max(sigma2, stats.sigma2_floor)
    return PriorParams(tau1=tau1, beta=beta, eta=eta, sigma2=sigma2)


def _m_step_masked_core(stats, resp, current):
    """The M-step :func:`fit` takes on every panel, complete or masked.

    tau1 and beta update in closed form (beta by responsibility-weighted
    GLS at the current variance parameters).  With sigma2 the closed-form
    maximizer at each r = eta/sigma2, r is the root of the profile's slope
    in log r, by Newton steps that bisect on leaving the sign bracket in
    [R_FLOOR, 1e26], or R_FLOOR when the slope is not positive there; when
    that lands below the current variances they are kept.  The EM objective
    never decreases.  With zero signal mass beta is kept and tau1 falls to
    its clamp floor.

    Returns the new parameters with both component terms (lg0, lg1) at
    them.  The terms come from the statistics the step formed at its new
    beta, so the next E-step needs no statistics or densities of its own.
    """
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
        # wgt >= 0 (t_one in [0, 1], d > 0, shifted >= 1), so the normal
        # matrix is half'half: numpy hands A.T @ A to BLAS syrk, which forms
        # one triangle (half the flops of a general product) and mirrors it,
        # so the result is exactly symmetric
        half = np.sqrt(wgt).reshape(-1, 1) * rows
        mat = half.T @ half
        factor = _checked_cholesky(mat, "GLS normal matrix")
        # both factors have checked pivots (L's in build_design), so the
        # solves cannot fail and go to LAPACK without scipy's finiteness
        # re-checks; a non-finite beta is refused by PriorParams
        lt_beta, _ = lapack.dpotrs(factor, rows.T @ rhs.ravel(), lower=1)
        beta, _ = lapack.dtrtrs(stats.gram_factor, lt_beta, lower=1, trans=1)

    w2, rss = stats.residual_stats(beta)
    d, css, nobs = stats.d, stats.css, stats.nobs

    # With eta = r * sigma2 every component density has the form
    # -0.5 * (nobs log sigma2 + Q_t(r) / sigma2 + const(r)), so for fixed r
    # the objective peaks at sigma2 = Q(r) / A, and the profile's slope in r
    # has the sign of score(log r).  A signal tissue's rss is its least-squares
    # rss plus sum(w2 / d), and r * shrink = (1 - shrink) / d, so Q(r) is a
    # sum of nonnegative terms, which does not cancel when the tissues are
    # fit almost exactly.
    total_obs = float((t_zero + t_one) @ nobs)
    q_base = float(t_zero @ css + t_one @ stats.rss_ols)
    # the score's weighted sums run over flat pooled vectors fixed for the
    # whole step, so an evaluation is a reciprocal, four dot products and
    # one sum.  Q(r) keeps numpy's pairwise sum: as a dot product, its
    # rounding left a near-exact panel's roots from different starts one
    # ulp apart
    d_pool = d.reshape(pool)[:, 0]
    d_flat = d_pool.ravel()
    w2_flat = (t_one[:, None] * w2).reshape(pool).sum(axis=1).ravel()
    mass_d = (t_one.reshape(pool[:2]).sum(axis=1)[:, None] * d_pool).ravel()
    w2_by_d, w2_d, mass_d2 = w2_flat / d_flat, w2_flat * d_flat, mass_d * d_flat

    def score(u):
        """Score and its slope in u = log r, with the profile's r and sigma2."""
        r = math.exp(u)
        shrink = 1.0 / (1.0 + r * d_flat)
        shrink2 = shrink * shrink
        q = (q_base + float((w2_by_d * shrink).sum())) / total_obs
        sigma2 = max(q, stats.sigma2_floor)
        a = float(w2_flat @ shrink2) / sigma2
        # off its floor sigma2 has derivative -r a sigma2 / A in u, adding
        # r a^2 / A; sigma2^2 is never formed, it underflows near 1e-100 scales
        slope = r * (float(mass_d2 @ shrink2) - 2.0 * float(w2_d @ (shrink2 * shrink)) / sigma2)
        slope += r * a * a / total_obs if q > stats.sigma2_floor else 0.0
        return a - float(mass_d @ shrink), slope, r, sigma2

    # the r bracket [R_FLOOR, 1e26] holds ratios, so it is the same at every
    # response scale; log space keeps the root search well conditioned
    lo, hi = math.log(R_FLOOR), math.log(1e26)
    s, _, ratio, sigma2 = score(lo)
    if s > 0.0:
        # Newton from the current ratio in a sign bracket every score narrows;
        # a step leaving it, or not half the step before last, bisects instead
        u = min(max(math.log(current.eta / current.sigma2), lo), hi)
        last = older = hi - lo
        while True:
            s, slope, _, _ = score(u)
            lo, hi = (u, hi) if s > 0.0 else (lo, u)
            step = -s / slope if slope else math.inf
            if not (lo <= u + step <= hi and abs(step) <= 0.5 * older):
                step = 0.5 * (lo + hi) - u
            if abs(step) <= 1e-12 * (1.0 + abs(u)):
                break
            u, older, last = u + step, last, abs(step)
        _, _, ratio, sigma2 = score(u + step)
    new = PriorParams(tau1=tau1, beta=beta, eta=ratio * sigma2, sigma2=sigma2)
    lg0, lg1 = kernels.component_loglik(d, w2, rss, css, nobs, new.sigma2, new.eta)
    # the profile need not be unimodal in r, so the root found (or a bracket
    # end) can score below the current point; keeping the current variances
    # then stays monotone
    if float(t_zero @ lg0 + t_one @ lg1) < kernels.weighted_mixture_loglik(
        d, w2, rss, css, nobs, t_zero, t_one, current.sigma2, current.eta
    ):
        new = PriorParams(tau1=tau1, beta=beta, eta=current.eta, sigma2=current.sigma2)
        lg0, lg1 = kernels.component_loglik(d, w2, rss, css, nobs, new.sigma2, new.eta)
    return new, lg0, lg1


def _init_from_stats(stats):
    """Moment-style starting point from per-tissue least squares."""
    beta0 = stats.betahat.mean(axis=0)
    dof = float(np.sum(stats.nobs - stats.p))
    sigma2 = max(float(stats.rss_ols.sum()) / dof, stats.sigma2_floor)
    lt_dev = (stats.betahat - beta0) @ stats.gram_factor    # rows L'(betahat - beta0)
    spread = float(np.mean(np.sum(lt_dev**2, axis=1))) / stats.p
    eta0 = max(spread - sigma2, 10.0 * R_FLOOR * sigma2)
    return PriorParams(tau1=0.5, beta=beta0, eta=eta0, sigma2=sigma2)


@one_blas_thread
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
    by at most tol * (1 + |loglik|) between iterations.  Complete and
    masked panels take the same M-step, so when all signal responsibility
    mass vanishes beta is kept and tau1 falls to its clamp floor.
    """
    options = options or FitOptions()
    stats = _SuffStats(design, panel)
    params = _init_from_stats(stats)
    resp, loglik, lg0, lg1 = _estep_core(stats, params)
    trace = [loglik]
    converged = False
    while not converged and len(trace) < options.max_iter:
        params, lg0, lg1 = _m_step_masked_core(stats, resp, params)
        resp, loglik = _responsibilities(params, lg0, lg1)
        trace.append(loglik)
        converged = abs(trace[-1] - trace[-2]) <= options.tol * (1.0 + abs(loglik))
    return FitResult(
        params=params,
        posteriors=_summarize(stats, params, resp, lg0, lg1),
        loglik_trace=np.asarray(trace, dtype=np.float64),
        iterations=len(trace),
        converged=converged,
        betahat=stats.betahat,
    )


@one_blas_thread
def ols(design, panel):
    """Every tissue's least squares on its observed rows, shape (m, p).

    These are the statistics :func:`fit` keeps as ``FitResult.betahat``,
    under its rules: BadShape when the panel's rows differ from the
    design's or a tissue has fewer than p+1 observed rows, RankDeficient
    when a tissue's observed rows hold less than 1e-12 of X'X along some
    direction.
    """
    return _SuffStats(design, panel).betahat


@one_blas_thread
def tissue_posterior(design, panel, params):
    """Every tissue's posterior at fixed prior parameters, one table row each.

    Returns the read-only record array of
    :func:`~ebshrink.posterior.posterior_table`, rows in panel order.  Built
    from the statistics and E-step :func:`fit` uses, so at a fit's
    parameters it equals the fit's ``posteriors``.  Raises as :func:`ols`
    does, and BadShape when params.beta does not have p entries.
    """
    stats = _SuffStats(design, panel)
    if params.beta.shape != (stats.p,):
        raise BadShape(f"beta has shape {params.beta.shape}, design has p = {stats.p}")
    resp, _, lg0, lg1 = _estep_core(stats, params)
    return _summarize(stats, params, resp, lg0, lg1)
