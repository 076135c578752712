"""Prediction, k-fold cross-validation, and z-score combination.

Folds are drawn independently per tissue over that tissue's observed rows,
so every observed cell is held out exactly once; the model is refit k
times with the held-out cells masked across all tissues simultaneously.
"""

from dataclasses import astuple, dataclass

import math

import numpy as np

from ._parallel import parallel_map
from .em import FitOptions, ResponsePanel, fit
from .errors import BadShape, FoldTooSmall, NonFinite
from .fileio import render_table, write_text
from .simulate import mse as pmse


def predict(x_new, fit_result):
    """Posterior-mean predictions at new rows, shape (n_new, m)."""
    x_new = np.asarray(x_new, dtype=np.float64)
    coefs = np.column_stack([tp.post_mean for tp in fit_result.posteriors])
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
    """Held-out metrics per tissue plus the fold sizes used."""

    rows: tuple
    folds: int
    fold_sizes: tuple  # per tissue, tuple of per-fold counts

    CSV_HEADER = "tissue,n_obs,pmse,r2"

    def to_csv(self):
        return render_table(self.CSV_HEADER.split(","), map(astuple, self.rows), ",")

    def write(self, path):
        write_text(path, self.to_csv())


def kfold_cv(design, panel, k=10, seed=0, options=None):
    """Cross-validated prediction metrics for every tissue.

    Parameters
    ----------
    design : Design
    panel : ResponsePanel
    k : int
        Fold count, >= 2.  Fold sizes within a tissue differ by at most 1.
    seed : int
        Drives the per-tissue permutations.
    options : FitOptions, optional

    Raises
    ------
    FoldTooSmall
        If a tissue has fewer than k observed rows, or masking a fold
        would leave some tissue under p+1 training rows.
    """
    options = options or FitOptions()
    if k < 2:
        raise FoldTooSmall(f"need k >= 2 folds, got {k}")
    counts = panel.observed_counts()
    if int(counts.min()) < k:
        t = int(np.argmin(counts))
        raise FoldTooSmall(
            f"tissue {panel.tissue_names[t]} has {int(counts[t])} observed rows "
            f"for {k} folds"
        )
    rng = np.random.default_rng(seed)
    fold_rows = []  # fold_rows[t][i] = row indices of tissue t's fold i
    for t in range(panel.m):
        obs = np.flatnonzero(panel.mask[:, t])
        fold_rows.append(np.array_split(rng.permutation(obs), k))
    min_train = counts - np.array(
        [max(len(f) for f in folds_t) for folds_t in fold_rows]
    )
    if int(min_train.min()) < design.p + 1:
        t = int(np.argmin(min_train))
        raise FoldTooSmall(
            f"tissue {panel.tissue_names[t]} would train on {int(min_train[t])} rows; "
            f"need at least p+1 = {design.p + 1}"
        )

    def run_fold(i):
        train_mask = panel.mask.copy()
        for t in range(panel.m):
            train_mask[fold_rows[t][i], t] = False
        train_panel = ResponsePanel(
            y=np.where(train_mask, panel.y, np.nan),
            mask=train_mask,
            tissue_names=panel.tissue_names,
        )
        result = fit(design, train_panel, options)
        return predict(design.x, result)

    fold_preds = parallel_map(run_fold, range(k))
    held_pred = np.full((panel.n, panel.m), np.nan)
    for i, pred in enumerate(fold_preds):
        for t in range(panel.m):
            rows = fold_rows[t][i]
            held_pred[rows, t] = pred[rows, t]
    rows_out = []
    for t in range(panel.m):
        obs = panel.mask[:, t]
        rows_out.append(
            CvTissueRow(
                tissue=panel.tissue_names[t],
                n_obs=int(obs.sum()),
                pmse=pmse(held_pred[obs, t], panel.y[obs, t]),
                r2=r_squared(held_pred[obs, t], panel.y[obs, t]),
            )
        )
    sizes = tuple(tuple(len(f) for f in folds_t) for folds_t in fold_rows)
    return CvReport(rows=tuple(rows_out), folds=k, fold_sizes=sizes)


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
