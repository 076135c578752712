"""Simulation designs, evaluation metrics, and Monte Carlo risk tools.

Four study designs, indexed 1-4: (1) dense Gaussian covariates with an
exchangeable correlation and a three-block coefficient mean; (2) same
covariates but signal confined to the first coordinate; (3) design 1 with
a fixed fraction of rows missing per tissue; (4) design 3 at larger n with
genotype-like 0/1/2 covariates resampled with replacement from a pool
(either a user-supplied matrix or a synthetic Hardy-Weinberg draw).
"""

import enum
from dataclasses import astuple, dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from ._parallel import one_blas_thread, parallel_map
from .em import ResponsePanel, fit, ols, tissue_posterior
from .errors import BadConfig, BadShape, DegenerateLabels, EbshrinkError, NonFinite
from .fileio import render_table, write_text
from .linalg import Design, build_design
from .posterior import PriorParams

# pool size for the synthetic genotype panel in setting 4
GENOTYPE_POOL_ROWS = 838


class Setting(enum.IntEnum):
    DENSE = 1
    SPARSE = 2
    MASKED = 3
    GENOTYPE = 4


# per-setting defaults: (n, p, m, sigma2, missing_frac)
_SETTING_DEFAULTS = {
    Setting.DENSE: (50, 30, 50, 100.0, 0.0),
    Setting.SPARSE: (50, 30, 50, 1.0, 0.0),
    Setting.MASKED: (50, 30, 50, 100.0, 0.2),
    Setting.GENOTYPE: (300, 30, 50, 100.0, 0.2),
}


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation scenario, validated on construction.

    eta is the prior spread used when drawing coefficients from the model
    itself (risk and contraction studies); it defaults to float(n), which
    puts the per-coordinate coefficient scale at O(1).
    """

    setting: Setting
    rho: float
    beta_s: float
    n: int
    p: int
    m: int
    tau1: float
    sigma2: float
    missing_frac: float
    seed: int
    eta: float
    external_x: np.ndarray = None

    @classmethod
    def for_setting(cls, setting, rho=0.0, beta_s=1.0, seed=0, **overrides):
        """Build a config with the setting's canonical defaults."""
        setting = Setting(setting)
        n, p, m, sigma2, miss = _SETTING_DEFAULTS[setting]
        values = dict(
            setting=setting,
            rho=float(rho),
            beta_s=float(beta_s),
            n=n,
            p=p,
            m=m,
            tau1=0.5,
            sigma2=sigma2,
            missing_frac=miss,
            seed=int(seed),
            eta=None,
            external_x=None,
        )
        values.update(overrides)
        if values["eta"] is None:
            values["eta"] = float(values["n"])
        return cls(**values)

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise BadConfig(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 <= self.missing_frac < 1.0:
            raise BadConfig(f"missing_frac must be in [0, 1), got {self.missing_frac}")
        if not (self.n > self.p >= 1):
            raise BadConfig(f"need n > p >= 1, got n={self.n}, p={self.p}")
        if self.m < 1:
            raise BadConfig(f"need m >= 1, got m={self.m}")
        if not 0.0 < self.tau1 < 1.0:
            raise BadConfig(f"tau1 must be in (0, 1), got {self.tau1}")
        if not self.sigma2 > 0.0:
            raise BadConfig(f"sigma2 must be positive, got {self.sigma2}")
        if not self.eta > 0.0:
            raise BadConfig(f"eta must be positive, got {self.eta}")
        if not np.isfinite(self.beta_s):
            raise BadConfig("beta_s must be finite")
        if self.seed < 0:
            raise BadConfig(f"seed must be nonnegative, got {self.seed}")
        n_obs = self.n - int(round(self.missing_frac * self.n))
        if n_obs < self.p + 1:
            raise BadConfig(
                f"missing_frac {self.missing_frac} leaves {n_obs} observed rows; "
                f"need at least p+1 = {self.p + 1}"
            )
        if self.external_x is not None:
            if self.setting != Setting.GENOTYPE:
                raise BadConfig("external covariates only apply to setting 4")
            ext = np.asarray(self.external_x, dtype=np.float64)
            if ext.ndim != 2 or ext.shape[1] != self.p:
                raise BadConfig(
                    f"external covariates must have {self.p} columns, got shape {ext.shape}"
                )
            if not np.all(np.isfinite(ext)):
                raise BadConfig("external covariates contain non-finite entries")


@dataclass(frozen=True)
class SimData:
    """One simulated data set: design, responses, and the ground truth."""

    x: np.ndarray
    panel: ResponsePanel
    true_beta: np.ndarray    # (p, m), zeros for null tissues
    true_active: np.ndarray  # (m,) bool
    config: SimConfig


def shared_mean(p, beta_s, setting):
    """The coefficient mean vector for each design.

    Designs 1/3/4 use three equal blocks (beta_s, beta_s/2, 0); design 2
    puts beta_s on the first coordinate only.
    """
    beta = np.zeros(p)
    if Setting(setting) == Setting.SPARSE:
        beta[0] = beta_s
        return beta
    k = p // 3
    beta[:k] = beta_s
    beta[k : 2 * k] = beta_s / 2.0
    return beta


def exchangeable_corr(p, rho):
    """Correlation matrix with constant off-diagonal rho."""
    c = np.full((p, p), float(rho))
    np.fill_diagonal(c, 1.0)
    return c


def _corr_factor(p, rho):
    if rho == 0.0:
        return np.eye(p)
    return np.linalg.cholesky(exchangeable_corr(p, rho))


def _synthetic_dosages(rng, rows, p, corr_factor):
    """0/1/2 genotype pool: thresholded correlated Gaussians, HWE per column."""
    maf = rng.uniform(0.05, 0.5, size=p)
    latent = rng.standard_normal((rows, p)) @ corr_factor.T
    q0 = (1.0 - maf) ** 2
    q1 = q0 + 2.0 * maf * (1.0 - maf)
    cut0 = ndtri(q0)
    cut1 = ndtri(q1)
    return (latent > cut0).astype(np.float64) + (latent > cut1)


def _draw_x(rng, config):
    if config.setting != Setting.GENOTYPE:
        return rng.standard_normal((config.n, config.p)) @ _corr_factor(
            config.p, config.rho
        ).T
    if config.external_x is not None:
        pool = np.asarray(config.external_x, dtype=np.float64)
    else:
        pool = _synthetic_dosages(
            rng, GENOTYPE_POOL_ROWS, config.p, _corr_factor(config.p, config.rho)
        )
    rows = rng.integers(0, pool.shape[0], size=config.n)
    return pool[rows]


def _draw_coefs(rng, config, active):
    """Coefficient matrix (p, m); draws consumed in tissue order."""
    true_beta = np.zeros((config.p, config.m))
    if config.setting == Setting.SPARSE:
        for t in range(config.m):
            if active[t]:
                true_beta[0, t] = rng.normal(config.beta_s, np.sqrt(config.sigma2))
        return true_beta
    mean = shared_mean(config.p, config.beta_s, config.setting)
    factor = _corr_factor(config.p, config.rho)
    for t in range(config.m):
        if active[t]:
            true_beta[:, t] = mean + factor @ rng.standard_normal(config.p)
    return true_beta


def _draw_mask(rng, n, m, missing_frac):
    """Observation mask hiding round(missing_frac * n) random rows per tissue."""
    mask = np.ones((n, m), dtype=bool)
    k = int(round(missing_frac * n))
    if k == 0:
        return mask
    for t in range(m):
        mask[rng.permutation(n)[:k], t] = False
    return mask


def simulate_setting(config):
    """Draw one data set from the configured design.

    All randomness flows from ``config.seed`` through a fixed draw order
    (covariates, activity indicators, coefficients, noise, masks), so equal
    configs give bitwise-equal data.
    """
    rng = np.random.default_rng(config.seed)
    x = _draw_x(rng, config)
    active = rng.random(config.m) < config.tau1
    true_beta = _draw_coefs(rng, config, active)
    noise = rng.standard_normal((config.n, config.m)) * np.sqrt(config.sigma2)
    y = x @ true_beta + noise
    mask = _draw_mask(rng, config.n, config.m, config.missing_frac)
    panel = ResponsePanel(y=np.where(mask, y, np.nan), mask=mask)
    return SimData(
        x=x, panel=panel, true_beta=true_beta, true_active=active, config=config
    )


def mse(estimates, truth):
    """Mean squared error over every entry of two equal-shaped arrays.

    Nothing is dropped: a NaN on either side makes the result NaN.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimates.shape != truth.shape:
        raise BadShape(f"shape mismatch {estimates.shape} vs {truth.shape}")
    return float(np.mean((estimates - truth) ** 2))


def auc(scores, labels):
    """Probability a random positive outscores a random negative (midrank ties).

    Parameters
    ----------
    scores : array_like of float
    labels : array_like of bool

    Raises
    ------
    DegenerateLabels
        If either class is empty.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise BadShape("scores and labels must be equal-length vectors")
    if not np.all(np.isfinite(scores)):
        raise NonFinite("scores contain NaN or infinite entries")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, got {n_pos} positive of {labels.size}")
    # twice the Mann-Whitney U: per positive, the negatives below plus those not above
    neg = np.sort(scores[~labels])
    below, upto = (np.searchsorted(neg, scores[labels], side) for side in ("left", "right"))
    return int(below.sum() + upto.sum()) / (2 * n_pos * n_neg)


def _mix_seed(*parts):
    """Deterministic child seed from integer parts."""
    seq = np.random.SeedSequence([int(q) for q in parts])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimRow:
    """One line of a simulation report."""

    setting: int
    rho: float
    beta_s: float
    reps: int
    mse_ols: float
    mse_proposed: float
    auc: float
    failed: int


@dataclass(frozen=True)
class SimReport:
    """Rows accumulated over run_replications calls, serializable as CSV."""

    rows: tuple

    CSV_HEADER = "setting,rho,beta_s,reps,mse_ols,mse_proposed,auc,failed"

    def to_csv(self):
        return render_table(self.CSV_HEADER.split(","), map(astuple, self.rows), ",")

    def write(self, path):
        write_text(path, self.to_csv())


def _one_replication(config, rep_index):
    """(mse_ols, mse_proposed, auc) of one replication, or None when it fails."""
    try:
        data = simulate_setting(replace(config, seed=_mix_seed(config.seed, rep_index)))
        result = fit(build_design(data.x), data.panel)
        post = result.posteriors
        return (
            mse(result.betahat.T, data.true_beta),
            mse(post.post_mean.T, data.true_beta),
            auc(post.h, data.true_active),
        )
    except EbshrinkError:
        return None


@one_blas_thread
def run_replications(config, reps):
    """Repeat the scenario, fit both estimators, and average the metrics.

    Replications draw independent child seeds from ``config.seed``; ones
    that fail (rank-deficient resampled design, single-class activity
    draw) are dropped and counted in the ``failed`` column.

    Returns
    -------
    SimReport with a single row.
    """
    if reps < 1:
        raise BadConfig(f"reps must be >= 1, got {reps}")
    outcomes = parallel_map(lambda i: _one_replication(config, i), range(reps))
    kept = [o for o in outcomes if o is not None]
    failed = reps - len(kept)
    if kept:
        arr = np.asarray(kept)
        means = arr.mean(axis=0)
    else:
        means = np.full(3, np.nan)
    row = SimRow(
        setting=int(config.setting),
        rho=config.rho,
        beta_s=config.beta_s,
        reps=reps,
        mse_ols=float(means[0]),
        mse_proposed=float(means[1]),
        auc=float(means[2]),
        failed=failed,
    )
    return SimReport(rows=(row,))


@dataclass(frozen=True)
class RiskDraw:
    """Every replication of a risk study, handed to a risk estimator at once.

    Column i of ``panel`` and of ``true_beta`` is replication i: one tissue
    drawn from the generative model over the shared design.  An estimator
    returns its estimates as a (p, reps) array in the same column order.
    """

    design: Design
    panel: ResponsePanel   # (n, reps), masked when the scenario hides rows
    params: PriorParams    # the true prior parameters
    true_beta: np.ndarray  # (p, reps)


@dataclass(frozen=True)
class RiskEstimate:
    risk: float
    stderr: float
    reps: int


def model_prior_params(config):
    """The PriorParams the scenario's coefficient draws correspond to."""
    return PriorParams(
        tau1=config.tau1,
        beta=shared_mean(config.p, config.beta_s, config.setting),
        eta=config.eta,
        sigma2=config.sigma2,
    )


def simulate_model_panel(design, params, m, rng, missing_frac=0.0):
    """Draw (panel, true_beta, active) exactly from the mixture model.

    Active tissues get beta_t ~ N(beta, eta*(X'X)^-1); the coefficient
    covariance factor is sqrt(eta) * L^-T.
    """
    n, p = design.n, design.p
    active = rng.random(m) < params.tau1
    true_beta = np.zeros((p, m))
    scale = np.sqrt(params.eta)
    for t in range(m):
        if active[t]:
            z = rng.standard_normal(p)
            true_beta[:, t] = params.beta + scale * solve_triangular(
                design.gram_factor.T, z, lower=False
            )
    y = design.x @ true_beta + rng.standard_normal((n, m)) * np.sqrt(params.sigma2)
    mask = _draw_mask(rng, n, m, missing_frac)
    panel = ResponsePanel(y=np.where(mask, y, np.nan), mask=mask)
    return panel, true_beta, active


def ols_estimator(draw):
    """Each replication's least squares on its observed rows."""
    return ols(draw.design, draw.panel).T


def oracle_posterior_estimator(draw):
    """Each replication's posterior mean under the true prior parameters."""
    return tissue_posterior(draw.design, draw.panel, draw.params).post_mean.T


def _checked_delta(delta, p):
    delta = np.eye(p) if delta is None else np.asarray(delta, dtype=np.float64)
    if delta.shape != (p, p):
        raise BadShape(f"delta must have shape ({p}, {p}), got {delta.shape}")
    if not np.all(np.isfinite(delta)):
        raise NonFinite("delta contains NaN or infinite entries")
    return delta


@one_blas_thread
def mc_bayes_risk(estimator, config, reps, delta=None):
    """Monte Carlo Bayes risk E[(est - beta)' Delta (est - beta)].

    The design is drawn once (the risk is conditional on X).  Replication i
    draws one tissue from the generative model with its own child seed;
    the replications are stacked as the columns of one panel, the
    estimator is called once on all of them, and each column's weighted
    squared error is one loss.  Delta defaults to the identity.

    Returns
    -------
    RiskEstimate

    Raises
    ------
    BadShape
        If delta is not (p, p) or the estimates do not have shape (p, reps).
    NonFinite
        If delta has NaN or infinite entries.
    """
    if reps < 2:
        raise BadConfig(f"reps must be >= 2 for a standard error, got {reps}")
    delta = _checked_delta(delta, config.p)
    design = build_design(_draw_x(np.random.default_rng(_mix_seed(config.seed, 0)), config))
    params = model_prior_params(config)
    panels, betas, _ = zip(*(
        simulate_model_panel(
            design, params, 1, np.random.default_rng(_mix_seed(config.seed, 1, i)),
            missing_frac=config.missing_frac,
        )
        for i in range(reps)
    ))
    panel = ResponsePanel(
        y=np.hstack([q.y for q in panels]), mask=np.hstack([q.mask for q in panels])
    )
    true_beta = np.hstack(betas)
    est = np.asarray(
        estimator(RiskDraw(design=design, panel=panel, params=params, true_beta=true_beta)),
        dtype=np.float64,
    )
    if est.shape != true_beta.shape:
        raise BadShape(f"estimates have shape {est.shape}, expected {true_beta.shape}")
    diff = est - true_beta
    losses = np.einsum("ji,jk,ki->i", diff, delta, diff)
    return RiskEstimate(
        risk=float(losses.mean()),
        stderr=float(losses.std(ddof=1) / np.sqrt(reps)),
        reps=reps,
    )


def ols_risk_exact(design, sigma2, delta=None):
    """Closed-form complete-data OLS risk sigma2 * tr(Delta (X'X)^-1)."""
    delta = _checked_delta(delta, design.p)
    return float(sigma2 * np.trace(delta @ np.linalg.inv(design.gram)))
