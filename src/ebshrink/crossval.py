"""Prediction, k-fold cross-validation, and z-score combination.

Cross-validation holds out individuals: one permutation of the rows is cut
into k folds, and each fold is predicted by a fit on the other rows alone,
whose design and g-prior are rebuilt from those rows.  Every observed cell
is held out exactly once, and a complete panel trains on complete panels.
"""

from dataclasses import astuple, dataclass

import math

import numpy as np

from ._parallel import one_blas_thread, parallel_map
from .em import ResponsePanel, fit
from .errors import BadShape, FoldTooSmall, NonFinite, RankDeficient
from .fileio import render_table, write_text
from .linalg import build_design
from .simulate import mse


def predict(x_new, fit_result):
    """Posterior-mean predictions at new rows, shape (n_new, m)."""
    x_new = np.asarray(x_new, dtype=np.float64)
    # C-contiguous: a product with the strided (p, m) view rounds differently
    coefs = np.ascontiguousarray(fit_result.posteriors.post_mean.T)
    if x_new.ndim != 2 or x_new.shape[1] != coefs.shape[0]:
        raise BadShape(
            f"new covariates must have {coefs.shape[0]} columns, got shape {x_new.shape}"
        )
    if not np.all(np.isfinite(x_new)):
        raise NonFinite("new covariates contain NaN or infinite entries")
    return x_new @ coefs


def r_squared(predictions, truth):
    """Squared Pearson correlation between predictions and truth.

    Degenerate cases: a constant vector on either side gives 0, except a
    perfect match (zero residual everywhere) which gives 1.
    """
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if predictions.shape != truth.shape:
        raise BadShape("predictions and truth must have equal shapes")
    if np.array_equal(predictions, truth):
        return 1.0
    vp = predictions.std()
    vt = truth.std()
    if vp == 0.0 or vt == 0.0:
        return 0.0
    r = float(np.corrcoef(predictions, truth)[0, 1])
    return float(min(max(r * r, 0.0), 1.0))


@dataclass(frozen=True)
class CvTissueRow:
    tissue: str
    n_obs: int
    pmse: float
    r2: float


@dataclass(frozen=True)
class CvReport:
    """Held-out metrics per tissue for a k-fold cross-validation."""

    rows: tuple
    folds: int

    CSV_HEADER = "tissue,n_obs,pmse,r2"

    def to_csv(self):
        return render_table(self.CSV_HEADER.split(","), map(astuple, self.rows), ",")

    def write(self, path):
        write_text(path, self.to_csv())


@one_blas_thread
def kfold_cv(design, panel, k=10, seed=0):
    """Cross-validated prediction metrics for every tissue.

    The folds hold out individuals: one permutation of the n rows is split
    into k folds with ``np.array_split``, so fold sizes differ by at most 1.
    Fold i fits on the remaining rows alone, with the design rebuilt from
    them (so the g-prior's (X'X)^-1 never sees a held-out row) and each
    tissue's mask restricted to them, then predicts every tissue on the
    held-out rows.  Each tissue is scored over its observed cells.

    Parameters
    ----------
    design : Design
    panel : ResponsePanel
        Rows aligned with the design's rows.
    k : int
        Fold count, 2 <= k <= n.
    seed : int
        Drives the row permutation.

    Raises
    ------
    BadShape
        If the panel's row count differs from the design's.
    FoldTooSmall
        If k is out of range, or some fold would leave some tissue under
        p+1 observed training rows.  Checked before any fit.
    RankDeficient
        If some fold's training rows give a singular X'X; the message names
        the fold.
    """
    if panel.n != design.n:
        raise BadShape(f"panel has {panel.n} rows, design has {design.n}")
    if not 2 <= k <= design.n:
        raise FoldTooSmall(f"need 2 <= k <= n = {design.n} folds, got {k}")
    folds = np.array_split(np.random.default_rng(seed).permutation(design.n), k)
    train_counts = panel.observed_counts() - np.stack([panel.mask[f].sum(0) for f in folds])
    short = np.argwhere(train_counts < design.p + 1)
    if len(short):
        i, t = short[0]
        raise FoldTooSmall(
            f"tissue {panel.tissue_names[t]} would train on {int(train_counts[i, t])} "
            f"rows in fold {i + 1} of {k}; need at least p+1 = {design.p + 1}"
        )

    def run_fold(i):
        train = np.delete(np.arange(design.n), folds[i])
        try:
            train_design = build_design(design.x[train])
        except RankDeficient as exc:
            raise RankDeficient(f"fold {i + 1} of {k}: training {exc}") from exc
        train_panel = ResponsePanel(panel.y[train], panel.mask[train], panel.tissue_names)
        return predict(design.x[folds[i]], fit(train_design, train_panel))

    held_pred = np.empty((panel.n, panel.m))
    for fold, pred in zip(folds, parallel_map(run_fold, range(k))):
        held_pred[fold] = pred
    rows_out = []
    for t in range(panel.m):
        obs = panel.mask[:, t]
        rows_out.append(
            CvTissueRow(
                tissue=panel.tissue_names[t],
                n_obs=int(obs.sum()),
                pmse=mse(held_pred[obs, t], panel.y[obs, t]),
                r2=r_squared(held_pred[obs, t], panel.y[obs, t]),
            )
        )
    return CvReport(rows=tuple(rows_out), folds=k)


def stouffer_combine(z_scores):
    """Combine z-scores: z = sum(z_i)/sqrt(k), two-sided p = erfc(|z|/sqrt(2)).

    Returns
    -------
    (z, p) : pair of float
    """
    z_scores = np.asarray(z_scores, dtype=np.float64)
    if z_scores.ndim != 1 or z_scores.size < 1:
        raise BadShape("z-scores must be a nonempty vector")
    if not np.all(np.isfinite(z_scores)):
        raise NonFinite("z-scores contain NaN or infinite entries")
    z = float(z_scores.sum() / math.sqrt(z_scores.size))
    p = float(math.erfc(abs(z) / math.sqrt(2.0)))
    return z, p
