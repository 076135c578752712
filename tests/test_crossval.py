"""Prediction, k-fold CV mechanics, and z-score combination."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebshrink import crossval
from ebshrink.crossval import (
    CvReport,
    CvTissueRow,
    kfold_cv,
    predict,
    r_squared,
    stouffer_combine,
)
from ebshrink.em import ResponsePanel, fit
from ebshrink.errors import BadShape, FoldTooSmall, NonFinite, RankDeficient
from ebshrink.linalg import build_design
from ebshrink.simulate import mse

from conftest import blas_threads


def fitted_toy(seed=0, n=14, p=2, m=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    d = build_design(x)
    y = x @ rng.standard_normal((p, m)) + 0.3 * rng.standard_normal((n, m))
    panel = ResponsePanel(y)
    return d, panel, fit(d, panel)


class TestPredict:
    def test_zero_rows_give_zero(self):
        d, _, res = fitted_toy()
        out = predict(np.zeros((4, 2)), res)
        assert_allclose(out, 0.0)
        assert out.shape == (4, 3)

    def test_identity_probe_reads_coefficients(self):
        d, _, res = fitted_toy()
        out = predict(np.eye(2), res)
        coefs = np.column_stack([tp.post_mean for tp in res.posteriors])
        assert np.array_equal(out, coefs)

    def test_linear_in_rows(self):
        d, _, res = fitted_toy()
        row = np.array([[1.5, -2.0]])
        assert_allclose(predict(2.0 * row, res), 2.0 * predict(row, res))

    def test_shape_and_finiteness_checks(self):
        _, _, res = fitted_toy()
        with pytest.raises(BadShape):
            predict(np.zeros((3, 5)), res)
        with pytest.raises(NonFinite):
            predict(np.array([[np.nan, 0.0]]), res)


class TestMetrics:
    def test_perfect_prediction(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert mse(truth, truth) == 0.0
        assert r_squared(truth, truth) == 1.0

    def test_affine_rescaling_keeps_r2(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        pred = 2.0 * truth + 1.0
        assert r_squared(pred, truth) == pytest.approx(1.0)
        assert mse(pred, truth) > 0.0

    def test_constant_prediction_has_zero_r2(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert r_squared(np.full(3, 9.0), truth) == 0.0

    def test_pmse_hand_value(self):
        assert mse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)


def masked_toy(seed, n=20, p=2, m=3, missing=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    mask = np.ones((n, m), dtype=bool)
    for t in range(1, m):
        mask[rng.choice(n, missing, replace=False), t] = False
    y = np.where(mask, rng.standard_normal((n, m)), np.nan)
    return x, ResponsePanel(y, mask=mask)


def documented_folds(n, k, seed):
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def record_folds(monkeypatch, x):
    """Patch crossval.predict to log (held-out row indices, predictions)."""
    calls = []

    def recording_predict(x_new, fit_result):
        pred = predict(x_new, fit_result)
        rows = [int(np.flatnonzero((x == r).all(axis=1))[0]) for r in x_new]
        calls.append((np.array(rows), pred))
        return pred

    monkeypatch.setattr(crossval, "predict", recording_predict)
    return calls


class TestKfoldCv:
    def test_folds_partition_rows(self, monkeypatch):
        n, k, seed = 23, 4, 1
        x, panel = masked_toy(40, n=n)
        calls = record_folds(monkeypatch, x)
        report = kfold_cv(build_design(x), panel, k=k, seed=seed)
        assert report.folds == k
        folds = [rows for rows, _ in calls]
        assert len(folds) == k
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for got, want in zip(folds, documented_folds(n, k, seed)):
            assert np.array_equal(got, want)
        for row, t in zip(report.rows, range(panel.m)):
            assert row.n_obs == int(panel.mask[:, t].sum())
            assert np.isfinite(row.pmse) and 0.0 <= row.r2 <= 1.0

    def test_fold_predictions_are_fits_on_training_rows(self, monkeypatch):
        x, panel = masked_toy(46, n=24, m=4, missing=6)
        calls = record_folds(monkeypatch, x)
        report = kfold_cv(build_design(x), panel, k=3, seed=5)
        held = np.empty((panel.n, panel.m))
        for rows, pred in calls:
            train = np.ones(panel.n, dtype=bool)
            train[rows] = False
            train_panel = ResponsePanel(panel.y[train], panel.mask[train], panel.tissue_names)
            direct = predict(x[rows], fit(build_design(x[train]), train_panel))
            assert np.array_equal(pred, direct)
            held[rows] = pred
        for row, t in zip(report.rows, range(panel.m)):
            obs = panel.mask[:, t]
            assert row.pmse == mse(held[obs, t], panel.y[obs, t])
            assert row.r2 == r_squared(held[obs, t], panel.y[obs, t])

    def test_complete_panel_trains_on_complete_panels(self, monkeypatch):
        d, panel, _ = fitted_toy(seed=47, n=20)
        seen = []

        def recording_fit(design, train_panel, options=None):
            seen.append((design.n, train_panel.complete))
            return fit(design, train_panel, options)

        monkeypatch.setattr(crossval, "fit", recording_fit)
        kfold_cv(d, panel, k=4, seed=0)
        assert sorted(seen) == [(15, True)] * 4

    def test_masked_bytes_across_threads_and_reruns(self):
        x, panel = masked_toy(48, n=30, p=3, m=6, missing=8)
        d = build_design(x)
        outputs = set()
        for threads in (1, 2):
            with blas_threads(threads):
                for _ in range(2):
                    outputs.add(kfold_cv(d, panel, k=5, seed=3).to_csv())
        assert len(outputs) == 1

    def test_strong_signal_scores_well(self):
        rng = np.random.default_rng(41)
        n, p, m = 40, 2, 4
        x = rng.standard_normal((n, p))
        coefs = rng.standard_normal((p, m)) * 3.0
        y = x @ coefs + 0.05 * rng.standard_normal((n, m))
        report = kfold_cv(build_design(x), ResponsePanel(y), k=5, seed=2)
        for row in report.rows:
            assert row.r2 > 0.9

    def test_deterministic_in_seed(self):
        d, panel, _ = fitted_toy(seed=42, n=16)
        a = kfold_cv(d, panel, k=4, seed=7).to_csv()
        b = kfold_cv(d, panel, k=4, seed=7).to_csv()
        assert a == b
        c = kfold_cv(d, panel, k=4, seed=8).to_csv()
        assert c != a

    def test_csv_header(self, tmp_path):
        d, panel, _ = fitted_toy(seed=43, n=16)
        report = kfold_cv(d, panel, k=4, seed=0)
        out = tmp_path / "cv.csv"
        report.write(out)
        assert out.read_text().splitlines()[0] == CvReport.CSV_HEADER

    def test_exact_bytes(self, tmp_path):
        report = CvReport(
            rows=(
                CvTissueRow("Brain_Cortex", 40, 85.791771627421923, 0.1),
                CvTissueRow("liver", 7, 1e-300, 1.0),
            ),
            folds=4,
        )
        expected = (
            "tissue,n_obs,pmse,r2\n"
            "Brain_Cortex,40,85.79177162742192,0.1\n"
            "liver,7,1e-300,1.0\n"
        )
        assert report.to_csv() == expected
        out = tmp_path / "cv.csv"
        report.write(out)
        assert out.read_bytes() == expected.encode("utf-8")

    def test_k_too_small(self):
        d, panel, _ = fitted_toy()
        with pytest.raises(FoldTooSmall):
            kfold_cv(d, panel, k=1)
        with pytest.raises(FoldTooSmall):  # more folds than the 14 rows
            kfold_cv(d, panel, k=15)

    def test_fold_leaving_a_tissue_short_is_named(self):
        rng = np.random.default_rng(44)
        n, k, seed = 10, 2, 3
        x = rng.standard_normal((n, 2))
        mask = np.ones((n, 2), dtype=bool)
        mask[3:, 1] = False  # 3 = p+1 observed rows: any fold holding one is short
        y = np.where(mask, rng.standard_normal((n, 2)), np.nan)
        panel = ResponsePanel(y, mask=mask, tissue_names=["blood", "liver"])
        held = [int(mask[f, 1].sum()) for f in documented_folds(n, k, seed)]
        i = next(i for i, h in enumerate(held) if h > 0)
        with pytest.raises(FoldTooSmall) as err:
            kfold_cv(build_design(x), panel, k=k, seed=seed)
        assert str(err.value) == (
            f"tissue liver would train on {3 - held[i]} rows in fold {i + 1} of 2; "
            "need at least p+1 = 3"
        )

    def test_fewer_observed_than_folds_succeeds(self):
        rng = np.random.default_rng(44)
        n, m = 12, 2
        x = rng.standard_normal((n, 2))
        mask = np.ones((n, m), dtype=bool)
        mask[:7, 1] = False  # 5 observed rows < 6 folds; a fold of 2 leaves >= 3
        y = np.where(mask, rng.standard_normal((n, m)), np.nan)
        report = kfold_cv(build_design(x), ResponsePanel(y, mask=mask), k=6)
        assert report.rows[1].n_obs == 5
        assert np.isfinite(report.rows[1].pmse)

    def test_covariate_on_one_individual_is_rank_deficient(self):
        x = np.random.default_rng(49).standard_normal((20, 3))
        x[:, 2] = 0.0
        x[7, 2] = 1.0  # the fold holding out row 7 trains on a zero column
        y = np.random.default_rng(50).standard_normal((20, 2))
        with pytest.raises(RankDeficient, match=r"fold \d of 4: training X'X"):
            kfold_cv(build_design(x), ResponsePanel(y), k=4)

    def test_training_rows_under_p_plus_one(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 2))
        # k=2 leaves 3 training rows per fold, below p+1 = 5
        with pytest.raises(FoldTooSmall):
            kfold_cv(build_design(x), ResponsePanel(y), k=2)


class TestStouffer:
    def test_hand_value(self):
        z, p = stouffer_combine([1.0, 1.0, 1.0, 1.0])
        assert z == pytest.approx(2.0)
        assert p == pytest.approx(math.erfc(2.0 / math.sqrt(2.0)))

    def test_null_input(self):
        z, p = stouffer_combine([0.0, 0.0, 0.0])
        assert z == 0.0
        assert p == 1.0

    def test_single_score_identity(self):
        z, p = stouffer_combine([1.7])
        assert z == pytest.approx(1.7)
        assert p == pytest.approx(math.erfc(1.7 / math.sqrt(2.0)))

    def test_sign_symmetry(self):
        z_pos, p_pos = stouffer_combine([0.5, 1.5])
        z_neg, p_neg = stouffer_combine([-0.5, -1.5])
        assert z_neg == -z_pos
        assert p_neg == p_pos

    def test_rejects_bad_input(self):
        with pytest.raises(BadShape):
            stouffer_combine([])
        with pytest.raises(NonFinite):
            stouffer_combine([np.inf, 0.0])
