"""Per-tissue posterior quantities under the spike-and-slab prior.

Model, for one tissue with design X and noise variance sigma2: with
probability tau1 the coefficient vector is drawn N(beta, eta*(X'X)^-1)
and contributes signal; otherwise it is exactly zero.  Marginally the
response is the two-component mixture

    tau1 * N(X beta, sigma2*I + eta*H)  +  tau0 * N(0, sigma2*I)

and the posterior mean of the coefficients is the association probability
times the precision-weighted blend of the prior mean and the least-squares
estimate.  The summaries are computed in :mod:`ebshrink.em` from the same
sufficient statistics and E-step terms the fit uses.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite

# clamp bounds keeping the mixture weights and prior spread away from the
# boundary, where the log-densities and odds degenerate.  The spread is
# floored as the ratio r = eta/sigma2, the g-prior's own parameter, so the
# floor moves with the response scale: y -> c y leaves every fit equivariant
TAU_CLAMP = 1e-6
R_FLOOR = 1e-12


@dataclass(frozen=True)
class PriorParams:
    """Shared-prior parameters (tau1, beta, eta, sigma2).

    tau1 is clamped into [1e-6, 1-1e-6] on construction; sigma2 must be
    strictly positive and finite, and eta is raised to at least
    R_FLOOR * sigma2 (r = eta/sigma2 >= 1e-12).
    """

    tau1: float
    beta: np.ndarray
    eta: float
    sigma2: float

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, copy=True)
        beta.setflags(write=False)
        if not np.all(np.isfinite(beta)):
            raise NonFinite("beta contains NaN or infinite entries")
        if not (np.isfinite(self.tau1) and np.isfinite(self.eta) and np.isfinite(self.sigma2)):
            raise NonFinite("scalar prior parameters must be finite")
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        object.__setattr__(self, "tau1", float(min(max(self.tau1, TAU_CLAMP), 1.0 - TAU_CLAMP)))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "eta", float(max(self.eta, R_FLOOR * self.sigma2)))

    @property
    def tau0(self):
        return 1.0 - self.tau1


def posterior_table(h, post_mean, cond_mean_active, log_bf, log_odds):
    """Every tissue's posterior summary as one read-only record array.

    A row per tissue in panel order: ``post.h`` reads a column, ``post[t].h``
    one tissue.  h (m,) is the posterior probability of association;
    post_mean (m, p) = h * cond_mean_active the coefficients' posterior
    mean, cond_mean_active (m, p) their mean given association; log_bf (m,)
    the log Bayes factor for no association (positive favors null), and
    log_odds (m,) = log_bf + log(tau0/tau1), so h = sigmoid(-log_odds).
    ``post.post_mean.T`` is a strided view, not a contiguous (p, m) array.
    """
    vec = ("f8", (post_mean.shape[1],))
    table = np.rec.fromarrays(
        [h, post_mean, cond_mean_active, log_bf, log_odds],
        names="h,post_mean,cond_mean_active,log_bf,log_odds",
        formats=["f8", vec, vec, "f8", "f8"],
    )
    table.setflags(write=False)
    return table
