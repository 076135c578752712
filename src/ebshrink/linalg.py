"""Designs, their Cholesky factorization, and least squares."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

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
    diag = np.diagonal(a)
    if np.min(np.diagonal(low)) ** 2 < PIVOT_RTOL * np.max(diag):
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
    gram = 0.5 * (gram + gram.T)
    factor = _checked_cholesky(gram, "X'X")
    if n == p:
        raise BadShape(f"design must have n > p, got square n=p={n}")
    return Design(x=x, gram=gram, gram_factor=factor, n=n, p=p)


def _apply_mask(design, y, mask):
    """Split y/mask handling shared by the masked operations."""
    y = np.asarray(y, dtype=np.float64)
    if mask is None:
        if y.shape != (design.n,):
            raise BadShape(f"response must have shape ({design.n},), got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise NonFinite("response contains NaN or infinite entries")
        return design.x, y
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (design.n,):
        raise BadShape(f"mask must have shape ({design.n},), got {mask.shape}")
    if y.shape == (design.n,):
        y = y[mask]
    elif y.shape != (int(mask.sum()),):
        raise BadShape("response length matches neither n nor the mask count")
    if not np.all(np.isfinite(y)):
        raise NonFinite("observed response contains NaN or infinite entries")
    return design.x[mask], y


def ols(design, y, mask=None):
    """Least-squares coefficients on the observed rows.

    Parameters
    ----------
    design : Design
    y : array_like
        Either all n responses, or just the observed ones when ``mask``
        is given.
    mask : array_like of bool, optional
        Observation indicator of length n.

    Returns
    -------
    ndarray of shape (p,)

    Raises
    ------
    RankDeficient
        If the observed sub-design has singular Gram matrix.
    """
    xm, ym = _apply_mask(design, y, mask)
    if mask is None:
        return cho_solve((design.gram_factor, True), design.x.T @ ym)
    sub_gram = xm.T @ xm
    sub_gram = 0.5 * (sub_gram + sub_gram.T)
    factor = _checked_cholesky(sub_gram, "observed-row X'X")
    return cho_solve((factor, True), xm.T @ ym)
