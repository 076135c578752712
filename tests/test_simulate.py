"""Simulation designs, metrics, and the replication/risk drivers."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ebshrink import _parallel, em
from ebshrink.crossval import kfold_cv
from ebshrink.em import ResponsePanel, fit, ols, tissue_posterior
from ebshrink.errors import BadConfig, BadShape, DegenerateLabels, NonFinite
from ebshrink.linalg import build_design
from ebshrink.simulate import (
    GENOTYPE_POOL_ROWS,
    Setting,
    SimConfig,
    SimReport,
    SimRow,
    auc,
    mc_bayes_risk,
    model_prior_params,
    mse,
    ols_estimator,
    ols_risk_exact,
    oracle_posterior_estimator,
    run_replications,
    shared_mean,
    simulate_model_panel,
    simulate_setting,
)

from conftest import blas_threads
from oracles import midrank_auc


class TestSimConfig:
    def test_setting_defaults(self):
        c1 = SimConfig.for_setting(1)
        assert (c1.n, c1.p, c1.m) == (50, 30, 50)
        assert c1.sigma2 == 100.0 and c1.missing_frac == 0.0
        assert c1.eta == 50.0
        c2 = SimConfig.for_setting(2)
        assert c2.sigma2 == 1.0
        c3 = SimConfig.for_setting(3)
        assert c3.missing_frac == 0.2
        c4 = SimConfig.for_setting(4)
        assert c4.n == 300 and c4.missing_frac == 0.2

    def test_overrides(self):
        c = SimConfig.for_setting(1, rho=0.6, beta_s=2.0, n=40, eta=7.0)
        assert (c.rho, c.beta_s, c.n, c.eta) == (0.6, 2.0, 40, 7.0)

    def test_bad_values(self):
        with pytest.raises(BadConfig):
            SimConfig.for_setting(1, rho=1.0)
        with pytest.raises(BadConfig):
            SimConfig.for_setting(1, n=10)  # n <= p
        with pytest.raises(BadConfig):
            SimConfig.for_setting(3, missing_frac=0.9)  # too few observed
        with pytest.raises(BadConfig):
            SimConfig.for_setting(1, external_x=np.zeros((5, 30)))

    def test_replace_validates(self):
        # every construction is checked, not only the for_setting path
        with pytest.raises(BadConfig):
            dataclasses.replace(SimConfig.for_setting(1), rho=1.5)

    def test_external_x_shape_checked(self):
        with pytest.raises(BadConfig):
            SimConfig.for_setting(4, external_x=np.zeros((100, 7)))


class TestSharedMean:
    def test_block_structure(self):
        got = shared_mean(30, 2.0, Setting.DENSE)
        assert_allclose(got[:10], 2.0)
        assert_allclose(got[10:20], 1.0)
        assert_allclose(got[20:], 0.0)

    def test_sparse_single_coordinate(self):
        got = shared_mean(30, 0.8, Setting.SPARSE)
        assert got[0] == 0.8
        assert_allclose(got[1:], 0.0)


class TestSimulateSetting:
    def test_same_seed_bitwise_equal(self):
        cfg = SimConfig.for_setting(3, rho=0.2, beta_s=1.0, seed=11)
        a = simulate_setting(cfg)
        b = simulate_setting(cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.panel.y, b.panel.y, equal_nan=True)
        assert np.array_equal(a.true_beta, b.true_beta)
        assert np.array_equal(a.true_active, b.true_active)

    def test_seed_changes_data(self):
        a = simulate_setting(SimConfig.for_setting(1, seed=1))
        b = simulate_setting(SimConfig.for_setting(1, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_covariate_correlation(self):
        cfg = SimConfig.for_setting(1, rho=0.2, n=5000, seed=3)
        data = simulate_setting(cfg)
        corr = np.corrcoef(data.x, rowvar=False)
        off = corr[~np.eye(30, dtype=bool)]
        assert abs(off.mean() - 0.2) < 0.02

    def test_missing_count_exact(self):
        cfg = SimConfig.for_setting(3, seed=4)
        data = simulate_setting(cfg)
        drop = (~data.panel.mask).sum(axis=0)
        assert np.all(drop == round(0.2 * cfg.n))
        assert np.all(np.isnan(data.panel.y[~data.panel.mask]))

    def test_complete_settings_have_full_mask(self):
        data = simulate_setting(SimConfig.for_setting(2, seed=5))
        assert data.panel.complete

    def test_null_tissues_have_zero_coefficients(self):
        data = simulate_setting(SimConfig.for_setting(1, seed=6))
        null = ~data.true_active
        assert null.any()
        assert_allclose(data.true_beta[:, null], 0.0)
        assert np.all(np.any(data.true_beta[:, data.true_active] != 0.0, axis=0))

    def test_genotype_design_is_dosage(self):
        data = simulate_setting(SimConfig.for_setting(4, rho=0.2, seed=7))
        assert set(np.unique(data.x)) <= {0.0, 1.0, 2.0}
        # resampled rows come from a bounded pool
        uniq = np.unique(data.x, axis=0)
        assert uniq.shape[0] <= min(data.config.n, GENOTYPE_POOL_ROWS)

    def test_genotype_external_pool(self):
        rng = np.random.default_rng(8)
        pool = rng.integers(0, 3, size=(120, 30)).astype(np.float64)
        cfg = SimConfig.for_setting(4, seed=9, external_x=pool)
        data = simulate_setting(cfg)
        pool_rows = {tuple(r) for r in pool}
        assert all(tuple(r) in pool_rows for r in data.x)


class TestMetrics:
    def test_mse_zero_and_hand_value(self):
        truth = np.zeros((2, 2))
        assert mse(truth, truth) == 0.0
        est = np.array([[1.0, 2.0], [-1.0, -2.0]])
        assert mse(est, truth) == pytest.approx(2.5)

    def test_mse_shift_cancels(self):
        rng = np.random.default_rng(10)
        truth = rng.standard_normal((3, 4))
        est = rng.standard_normal((3, 4))
        assert mse(est + 1.0, truth + 1.0) == pytest.approx(mse(est, truth))

    def test_mse_shape_mismatch(self):
        with pytest.raises(BadShape):
            mse(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_auc_separated(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [False, False, True, True]) == 1.0

    def test_auc_ties_give_half(self):
        assert auc([1.0] * 6, [True, False] * 3) == pytest.approx(0.5)

    def test_auc_hand_value(self):
        assert auc([1.0, 2.0, 3.0, 4.0], [False, True, False, True]) == pytest.approx(
            0.75
        )

    def test_auc_rank_invariance(self):
        rng = np.random.default_rng(11)
        scores = rng.standard_normal(40)
        labels = rng.random(40) < 0.4
        assert auc(np.exp(scores), labels) == pytest.approx(auc(scores, labels))

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(data=st.data(), n=st.integers(2, 60), levels=st.integers(1, 8),
           exponent=st.integers(-300, 300))
    def test_auc_equals_midrank_reference_bitwise(self, data, n, levels, exponent):
        # a few distinct values make heavy ties; the scale spans float range
        values = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=levels, max_size=levels))
        picks = data.draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        labels = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(0 < labels.sum() < n)
        scores = np.asarray(values)[picks] * 10.0**exponent
        assert auc(scores, labels) == midrank_auc(scores, labels)

    def test_auc_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auc([1.0, 2.0], [True, True])

    def test_auc_nan_scores(self):
        with pytest.raises(NonFinite):
            auc([np.nan, 1.0], [True, False])


class TestRunReplications:
    def small_config(self, seed=20):
        return SimConfig.for_setting(
            1, rho=0.0, beta_s=2.0, seed=seed, n=30, p=6, m=12
        )

    def test_report_shape_and_header(self, tmp_path):
        rep = run_replications(self.small_config(), reps=3)
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row.reps == 3 and row.failed == 0
        assert np.isfinite(row.mse_ols) and np.isfinite(row.mse_proposed)
        out = tmp_path / "report.csv"
        rep.write(out)
        text = out.read_text()
        assert text.splitlines()[0] == SimReport.CSV_HEADER
        assert len(text.splitlines()) == 2

    def test_exact_bytes(self, tmp_path):
        # a run with every replication failed averages to NaN, written "NA"
        report = SimReport(
            rows=(
                SimRow(setting=3, rho=0.5, beta_s=0.1, reps=50, mse_ols=1 / 3,
                       mse_proposed=2e-7, auc=0.75, failed=2),
                SimRow(setting=2, rho=0.0, beta_s=1e22, reps=4, mse_ols=float("nan"),
                       mse_proposed=float("nan"), auc=float("nan"), failed=4),
            )
        )
        expected = (
            "setting,rho,beta_s,reps,mse_ols,mse_proposed,auc,failed\n"
            "3,0.5,0.1,50,0.3333333333333333,2e-07,0.75,2\n"
            "2,0.0,1e+22,4,NA,NA,NA,4\n"
        )
        assert report.to_csv() == expected
        out = tmp_path / "report.csv"
        report.write(out)
        assert out.read_bytes() == expected.encode("utf-8")

    def test_thread_count_does_not_change_results(self):
        with blas_threads(1):
            serial = run_replications(self.small_config(), reps=4).to_csv()
        with blas_threads(2):
            threaded = run_replications(self.small_config(), reps=4).to_csv()
        assert serial == threaded

    def test_same_seed_same_csv(self):
        a = run_replications(self.small_config(), reps=3).to_csv()
        b = run_replications(self.small_config(), reps=3).to_csv()
        assert a == b

    def test_bad_reps(self):
        with pytest.raises(BadConfig):
            run_replications(self.small_config(), reps=0)


def blas_counts(pools):
    return [get() for get, _ in pools]


@pytest.fixture
def blas_pools():
    """Both OpenBLAS pools' (get, set), set to 2 threads for the test, then put back."""
    with blas_threads(2):
        yield _parallel.openblas_pools()


@pytest.fixture
def counts_inside(monkeypatch, blas_pools):
    """Both pools' counts at every sufficient-statistics build, in any thread."""
    seen = []
    build = em._SuffStats

    def spy(*args):
        seen.append(blas_counts(blas_pools))
        return build(*args)

    monkeypatch.setattr(em, "_SuffStats", spy)
    return seen


def small_panel(seed=7):
    data = simulate_setting(SimConfig.for_setting(3, seed=seed, n=20, p=3, m=6))
    return build_design(data.x), data.panel


def small_config():
    return SimConfig.for_setting(3, seed=8, n=20, p=3, m=6)


def run_threads(targets):
    """Run each named target in a thread of that name; the exceptions raised."""
    errors = []

    def guarded(fn):
        try:
            fn()
        except Exception as exc:  # handed to the test thread to fail there
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,), name=name)
               for name, fn in targets.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    return errors


class TestOneBlasThread:
    # each call takes both pools to one thread and gives the caller's counts back
    ENTRY_POINTS = {
        "fit": lambda: fit(*small_panel()),
        "ols": lambda: ols(*small_panel()),
        "tissue_posterior": lambda: tissue_posterior(
            *small_panel(), model_prior_params(small_config())),
        "run_replications": lambda: run_replications(small_config(), reps=4),
        "mc_bayes_risk": lambda: mc_bayes_risk(oracle_posterior_estimator, small_config(), reps=4),
        "kfold_cv": lambda: kfold_cv(*small_panel(), k=3),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_point_pins_then_restores(self, entry, blas_pools, counts_inside):
        self.ENTRY_POINTS[entry]()
        assert counts_inside and all(c == [1, 1] for c in counts_inside)
        assert blas_counts(blas_pools) == [2, 2]

    def test_restores_when_the_call_raises(self, blas_pools):
        design, panel = small_panel()
        with pytest.raises(BadShape):
            fit(design, ResponsePanel(panel.y[:-1], mask=panel.mask[:-1]))
        assert blas_counts(blas_pools) == [2, 2]

    def test_overlapping_fits_in_two_threads(self, blas_pools, counts_inside, monkeypatch):
        # the fit that returns first must not unpin the one still running
        met = threading.Barrier(2, timeout=60)
        first_done = threading.Event()
        late = []
        estep = em._estep_core

        def held(stats, params):
            if threading.current_thread().name == "second" and not late:
                met.wait()
                assert first_done.wait(60)
                late.append(blas_counts(blas_pools))
            return estep(stats, params)

        def first():
            met.wait()
            fit(*small_panel(1))
            first_done.set()

        monkeypatch.setattr(em, "_estep_core", held)
        assert run_threads({"first": first, "second": lambda: fit(*small_panel(2))}) == []
        assert late == [[1, 1]]
        assert len(counts_inside) == 2 and all(c == [1, 1] for c in counts_inside)
        assert blas_counts(blas_pools) == [2, 2]

    def test_many_threads_leave_the_counts_restored(self, blas_pools, counts_inside):
        # more threads than cores, switching often: a lost depth update
        # would unpin a running fit or leave the pools pinned
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = run_threads({f"t{s}": lambda s=s: [fit(*small_panel(s)) for _ in range(3)]
                                  for s in range(6)})
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(counts_inside) == 18 and all(c == [1, 1] for c in counts_inside)
        assert blas_counts(blas_pools) == [2, 2]

    def test_without_pools_fits_and_leaves_counts_alone(self, blas_pools, counts_inside,
                                                        monkeypatch):
        monkeypatch.setattr(_parallel, "openblas_pools", lambda: ())
        assert fit(*small_panel()).iterations >= 2
        assert counts_inside and all(c == [2, 2] for c in counts_inside)
        assert blas_counts(blas_pools) == [2, 2]


class TestBayesRisk:
    def risk_config(self, **kw):
        base = dict(n=30, p=5, m=1, seed=30, beta_s=1.0, rho=0.0)
        base.update(kw)
        return SimConfig.for_setting(1, **base)

    def test_cheating_estimator_has_zero_risk(self):
        est = mc_bayes_risk(lambda draw: draw.true_beta, self.risk_config(), reps=50)
        assert est.risk == 0.0
        assert est.stderr == 0.0

    def test_ols_matches_exact_formula(self):
        from ebshrink.simulate import _draw_x, _mix_seed

        cfg = self.risk_config()
        est = mc_bayes_risk(ols_estimator, cfg, reps=800)
        # rebuild the conditioning design the same way the driver does
        x = _draw_x(np.random.default_rng(_mix_seed(cfg.seed, 0)), cfg)
        exact = ols_risk_exact(build_design(x), cfg.sigma2)
        assert abs(est.risk - exact) <= 3.0 * est.stderr + 1e-12

    def test_delta_weighting(self):
        cfg = self.risk_config()
        delta = np.diag([2.0, 1.0, 1.0, 1.0, 0.5])
        est = mc_bayes_risk(lambda d: d.true_beta, cfg, reps=20, delta=delta)
        assert est.risk == 0.0

    @pytest.mark.parametrize("fault, error", [("shape", BadShape), ("nan", NonFinite),
                                              ("inf", NonFinite)])
    def test_bad_delta_rejected(self, fault, error):
        cfg = self.risk_config()
        delta = np.eye(cfg.p + 1) if fault == "shape" else np.eye(cfg.p)
        delta[0, 1] = {"shape": 0.0, "nan": np.nan, "inf": np.inf}[fault]
        design = build_design(np.random.default_rng(33).standard_normal((cfg.n, cfg.p)))
        with pytest.raises(error):
            mc_bayes_risk(lambda draw: draw.true_beta, cfg, reps=5, delta=delta)
        with pytest.raises(error):
            ols_risk_exact(design, cfg.sigma2, delta)

    @pytest.mark.parametrize("setting", [1, 3])
    def test_batched_draws_match_one_at_a_time(self, setting):
        from ebshrink.simulate import _mix_seed

        cfg = SimConfig.for_setting(setting, n=30, p=5, m=1, seed=34)
        seen = []

        def recording(draw):
            seen.append(draw)
            return draw.true_beta

        assert mc_bayes_risk(recording, cfg, reps=20).risk == 0.0
        (draw,) = seen
        assert draw.panel.y.shape == (cfg.n, 20) and draw.true_beta.shape == (cfg.p, 20)
        assert draw.panel.complete == (setting == 1)
        for i in range(4):
            rng = np.random.default_rng(_mix_seed(cfg.seed, 1, i))
            panel, true_beta, _ = simulate_model_panel(
                draw.design, draw.params, 1, rng, missing_frac=cfg.missing_frac
            )
            assert np.array_equal(draw.panel.y[:, i : i + 1], panel.y, equal_nan=True)
            assert np.array_equal(draw.panel.mask[:, i : i + 1], panel.mask)
            assert np.array_equal(draw.true_beta[:, i : i + 1], true_beta)

    def test_estimates_of_wrong_shape_rejected(self):
        # one tissue's estimate would broadcast against every replication
        with pytest.raises(BadShape, match="estimates have shape"):
            mc_bayes_risk(lambda draw: draw.true_beta[:, 0], self.risk_config(), reps=5)

    def test_ols_risk_exact_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(31).standard_normal((20, 4)))
        assert ols_risk_exact(build_design(q), 2.5) == pytest.approx(10.0)

    def test_model_panel_respects_activity(self):
        cfg = self.risk_config(m=40, tau1=0.5)
        design = build_design(
            np.random.default_rng(32).standard_normal((cfg.n, cfg.p))
        )
        params = model_prior_params(cfg)
        panel, true_beta, active = simulate_model_panel(
            design, params, cfg.m, np.random.default_rng(33)
        )
        assert panel.y.shape == (cfg.n, cfg.m)
        assert_allclose(true_beta[:, ~active], 0.0)
        assert active.any() and (~active).any()


class TestMinimumBayesRiskIdentity:
    """The posterior mean's minimum Bayes risk, checked as an exact identity.

    For any estimator d and PSD Delta, with pm = E[b | y] under the prior
    the coefficients are drawn from,

        risk_Delta(d) = risk_Delta(pm) + E[(d - pm)' Delta (d - pm)],

    so the per-draw cross term 2 (d - pm)' Delta (pm - b) has mean exactly
    0; and sum(active - h) has mean 0 and variance sum h(1 - h).  Each is
    gated at 4 standard errors over fixed draws, with d the least squares,
    on one complete (1) and two masked (3, 4) scenarios.  A posterior mean
    whose eta is off by 30% puts the cross term 8.9 to 20 errors out.
    """

    DRAWS = 4000

    @pytest.fixture(scope="class", params=[1, 3, 4])
    def draws(self, request):
        cfg = SimConfig.for_setting(request.param, seed=7)
        design = build_design(simulate_setting(cfg).x)
        params = model_prior_params(cfg)
        panel, beta, active = simulate_model_panel(
            design, params, self.DRAWS, np.random.default_rng(8), missing_frac=cfg.missing_frac
        )
        return cfg.p, ols(design, panel).T, tissue_posterior(design, panel, params), beta, active

    @pytest.mark.parametrize("weights", ["identity", "drawn"])
    def test_cross_term_has_mean_zero(self, draws, weights):
        p, est, post, beta, _ = draws
        delta = np.eye(p)
        if weights == "drawn":
            a = np.random.default_rng(9).standard_normal((p, p))
            delta = a @ a.T / p
        pm = post.post_mean.T
        terms = 2.0 * np.einsum("ji,jk,ki->i", est - pm, delta, pm - beta)
        z = terms.mean() / (terms.std(ddof=1) / np.sqrt(self.DRAWS))
        assert abs(z) <= 4.0

    def test_association_probabilities_are_calibrated(self, draws):
        _, _, post, _, active = draws
        z = np.sum(active - post.h) / np.sqrt(np.sum(post.h * (1.0 - post.h)))
        assert abs(z) <= 4.0
