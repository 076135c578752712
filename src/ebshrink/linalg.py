"""Designs and their Cholesky factorization."""

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, NonFinite, RankDeficient

# relative pivot tolerance for declaring a Gram matrix singular
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class Design:
    """A fixed covariate matrix with its cached Gram factorization.

    Attributes
    ----------
    x : ndarray of shape (n, p)
        The covariate matrix, float64, fully observed.
    gram : ndarray of shape (p, p)
        ``x.T @ x``.
    gram_factor : ndarray of shape (p, p)
        Lower Cholesky factor ``L`` with ``L @ L.T == gram``.
    n, p : int
        Row and column counts.
    """

    x: np.ndarray
    gram: np.ndarray
    gram_factor: np.ndarray
    n: int
    p: int


def _checked_cholesky(a, what):
    """Lower Cholesky factor of ``a``, raising RankDeficient when unstable.

    A non-finite ``a`` raises NonFinite: np.linalg.cholesky returns NaN for
    it without raising, and NaN pivots pass every comparison.
    """
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{what} contains NaN or infinite entries")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"{what} is not positive definite") from exc
    # pivot_j^2 / a_jj is 1 - R^2 of column j on the columns before it, so
    # rescaling the columns cannot move it
    if np.min(np.diagonal(low) ** 2 / np.diagonal(a)) < PIVOT_RTOL:
        raise RankDeficient(f"{what} is numerically rank deficient")
    return low


def build_design(x):
    """Validate a covariate matrix and precompute its Gram factorization.

    Parameters
    ----------
    x : array_like of shape (n, p)
        Covariates with n > p, all entries finite.

    Returns
    -------
    Design

    Raises
    ------
    BadShape
        If ``x`` is not a 2-d tall matrix.
    NonFinite
        If any entry is NaN or infinite.
    RankDeficient
        If the Gram matrix is singular.  A square singular ``x`` reports
        rank deficiency rather than its (also wrong) shape, since that is
        the actionable problem.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise BadShape(f"design must be 2-d, got ndim={x.ndim}")
    n, p = x.shape
    if p < 1 or n < p:
        raise BadShape(f"design must have n > p >= 1, got n={n}, p={p}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("design contains NaN or infinite entries")
    gram = x.T @ x
    factor = _checked_cholesky(gram, "X'X")
    if n == p:
        raise BadShape(f"design must have n > p, got square n=p={n}")
    return Design(x=x, gram=gram, gram_factor=factor, n=n, p=p)

