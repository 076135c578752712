"""Acceptance gate: simulation benchmarks, oracle agreement, and determinism.

Each test covers one numbered criterion and logs a PASS/FAIL line through
the conftest banner.  The simulation checks compare the shrinkage fit
against per-tissue least squares at fixed seeds; the oracle checks compare
fast low-rank code paths against slow dense or quadrature references.
"""

import time

import numpy as np

from ebshrink.cli import cli_main
from ebshrink.em import FitOptions, ResponsePanel, fit, tissue_posterior
from ebshrink.fileio import write_matrix_tsv
from ebshrink.linalg import build_design
from ebshrink.posterior import PriorParams
from ebshrink.simulate import (
    SimConfig,
    mc_bayes_risk,
    model_prior_params,
    ols_estimator,
    ols_risk_exact,
    oracle_posterior_estimator,
    run_replications,
    simulate_model_panel,
    simulate_setting,
)

from conftest import blas_threads, one_tissue, record_criterion
from oracles import (
    dense_component_logliks,
    dense_responsibility,
    e_step,
    m_step_complete,
    numeric_q_max_complete,
    quad_posterior_mean_1d,
)


def ratio_auc(setting, rho, beta_s, seed, reps=100):
    cfg = SimConfig.for_setting(setting, rho=rho, beta_s=beta_s, seed=seed)
    row = run_replications(cfg, reps=reps).rows[0]
    assert row.failed == 0
    return row.mse_proposed / row.mse_ols, row.auc, row


class TestCriterion1:
    def test_dense_design_trends(self):
        t0 = time.time()
        results = {}
        for rho, beta_s in [(0.0, 2.0), (0.6, 2.0), (0.8, 0.5)]:
            results[(rho, beta_s)] = ratio_auc(1, rho, beta_s, seed=101)
        elapsed = time.time() - t0
        worst_ratio = max(r for r, _, _ in results.values())
        worst_auc = min(a for _, a, _ in results.values())
        ok = worst_ratio <= 0.35 and worst_auc >= 0.75 and elapsed <= 300.0
        record_criterion(
            1,
            ok,
            f"setting 1 worst ratio {worst_ratio:.3f} <= 0.35, "
            f"worst auc {worst_auc:.3f} >= 0.75, {elapsed:.0f}s <= 300s",
        )
        assert worst_ratio <= 0.35
        assert worst_auc >= 0.75
        assert elapsed <= 300.0
        # least-squares error is parameter-free given the design law, so it
        # anchors the noise scale; reference values from long runs
        r0, _, row0 = results[(0.0, 2.0)]
        assert r0 <= 0.2
        assert 0.65 * 5.7021 <= row0.mse_ols <= 1.5 * 5.7021
        r6, _, row6 = results[(0.6, 2.0)]
        assert r6 <= 0.3
        assert 0.65 * 13.7753 <= row6.mse_ols <= 1.5 * 13.7753


class TestCriterion2:
    def test_single_signal_robustness(self):
        ratio, _, row = ratio_auc(2, 0.8, 2.0, seed=102)
        ok = ratio <= 0.15
        record_criterion(
            2,
            ok,
            f"setting 2 (0.8, 2) ratio {ratio:.4f} <= 0.15 "
            f"(ols {row.mse_ols:.4f}, proposed {row.mse_proposed:.4f})",
        )
        assert ok


class TestCriterion3:
    def test_missing_data_trends(self):
        ratio, _, row = ratio_auc(3, 0.0, 0.5, seed=103)
        _, auc_strong, _ = ratio_auc(3, 0.2, 2.0, seed=103)
        _, auc_mid, _ = ratio_auc(3, 0.0, 1.0, seed=103)
        ok = ratio <= 0.15 and auc_strong >= 0.9 and auc_mid >= 0.85
        record_criterion(
            3,
            ok,
            f"setting 3 (0, 0.5) ratio {ratio:.4f} <= 0.15, "
            f"(0.2, 2) auc {auc_strong:.4f} >= 0.9, (0, 1) auc {auc_mid:.4f} >= 0.85",
        )
        assert ratio <= 0.15
        assert auc_strong >= 0.9
        assert auc_mid >= 0.85
        # noise-scale anchor for the least-squares column
        assert 0.65 * 11.0515 <= row.mse_ols <= 1.5 * 11.0515


class TestCriterion4:
    def test_dosage_design_direction(self):
        worst_ratio, worst_auc = 0.0, 1.0
        for rho, beta_s in [(0.0, 0.5), (0.2, 1.0), (0.6, 2.0)]:
            ratio, auc_val, _ = ratio_auc(4, rho, beta_s, seed=104)
            worst_ratio = max(worst_ratio, ratio)
            worst_auc = min(worst_auc, auc_val)
        ok = worst_ratio <= 0.5 and worst_auc >= 0.8
        record_criterion(
            4,
            ok,
            f"setting 4 worst ratio {worst_ratio:.3f} <= 0.5, "
            f"worst auc {worst_auc:.3f} >= 0.8",
        )
        assert worst_ratio <= 0.5
        assert worst_auc >= 0.8


class TestCriterion5:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(105)
        worst_quad = 0.0
        for _ in range(20):
            x = rng.standard_normal((4, 1)) + 0.5
            y = rng.standard_normal(4) * 1.5
            params = PriorParams(
                tau1=float(rng.uniform(0.2, 0.8)),
                beta=rng.standard_normal(1),
                eta=float(rng.uniform(0.5, 4.0)),
                sigma2=float(rng.uniform(0.5, 2.0)),
            )
            tp = tissue_posterior(build_design(x), one_tissue(y), params)[0]
            ref = quad_posterior_mean_1d(x, y, params)
            worst_quad = max(worst_quad, abs(tp.post_mean[0] - ref))

        worst_dense = 0.0
        for _ in range(30):
            n = int(rng.integers(4, 7))
            p = int(rng.integers(1, 3))
            x = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            mask = None
            if rng.random() < 0.5 and n >= p + 3:
                mask = np.ones(n, dtype=bool)
                mask[rng.choice(n, 2, replace=False)] = False
            params = PriorParams(
                tau1=float(rng.uniform(0.1, 0.9)),
                beta=rng.standard_normal(p) * 0.5,
                eta=float(rng.uniform(0.2, 3.0)),
                sigma2=float(rng.uniform(0.5, 2.0)),
            )
            d = build_design(x)
            tp = tissue_posterior(d, one_tissue(y, mask), params)[0]
            ref_h = dense_responsibility(x, y, mask, params)
            ref0, ref1 = dense_component_logliks(x, y, mask, params)
            worst_dense = max(
                worst_dense,
                abs(tp.h - ref_h),
                abs(tp.log_bf - (ref0 - ref1)),
            )
        ok = worst_quad <= 1e-6 and worst_dense <= 1e-9
        record_criterion(
            5,
            ok,
            f"quadrature max err {worst_quad:.2e} <= 1e-6, "
            f"dense max err {worst_dense:.2e} <= 1e-9",
        )
        assert worst_quad <= 1e-6
        assert worst_dense <= 1e-9


class TestCriterion6:
    def test_em_correctness(self):
        rng = np.random.default_rng(106)
        worst_dip = 0.0
        for trial in range(100):
            n = int(rng.integers(8, 17))
            p = int(rng.integers(1, 4))
            m = int(rng.integers(3, 9))
            x = rng.standard_normal((n, p))
            y = rng.standard_normal((n, m)) + x @ rng.standard_normal((p, m))
            mask = None
            if trial % 2:
                k = int(rng.integers(1, max(2, n - p - 1)))
                mask = np.ones((n, m), dtype=bool)
                for t in range(m):
                    mask[rng.choice(n, k, replace=False), t] = False
                y = np.where(mask, y, np.nan)
            res = fit(build_design(x), ResponsePanel(y, mask=mask))
            trace = np.asarray(res.loglik_trace)
            dips = np.diff(trace) / (1.0 + np.abs(trace[:-1]))
            worst_dip = max(worst_dip, float(-dips.min(initial=0.0)))

        worst_m = 0.0
        for _ in range(3):
            x = rng.standard_normal((8, 2))
            y = rng.standard_normal((8, 4)) + x @ rng.standard_normal((2, 4)) * 2.0
            d = build_design(x)
            panel = ResponsePanel(y)
            t1 = rng.uniform(0.2, 0.9, size=4)
            resp = np.column_stack([1.0 - t1, t1])
            new = m_step_complete(d, panel, resp)
            tau1, beta, sigma2, eta = numeric_q_max_complete(x, y, resp)
            worst_m = max(
                worst_m,
                abs(new.tau1 - tau1) / max(1.0, abs(tau1)),
                float(np.max(np.abs(new.beta - beta)) / max(1.0, np.max(np.abs(beta)))),
                abs(new.sigma2 - sigma2) / max(1.0, abs(sigma2)),
                abs(new.eta - eta) / max(1.0, abs(eta)),
            )

        worst_fd = 0.0
        for seed in (1060, 1061):
            r2 = np.random.default_rng(seed)
            x = r2.standard_normal((18, 2))
            y = x @ r2.standard_normal((2, 10)) + r2.standard_normal((18, 10))
            d = build_design(x)
            panel = ResponsePanel(y)
            res = fit(d, panel, FitOptions(tol=1e-12, max_iter=4000))
            p0 = res.params
            ll0 = e_step(d, panel, p0)[1]
            scale = 1e-3 * (1.0 + abs(ll0))
            step = 1e-5
            probes = []
            for j in range(2):
                bump = p0.beta.copy()
                bump[j] += step
                probes.append(
                    PriorParams(tau1=p0.tau1, beta=bump, eta=p0.eta, sigma2=p0.sigma2)
                )
            probes.append(
                PriorParams(
                    tau1=p0.tau1,
                    beta=p0.beta,
                    eta=p0.eta,
                    sigma2=p0.sigma2 * (1 + step),
                )
            )
            probes.append(
                PriorParams(
                    tau1=p0.tau1,
                    beta=p0.beta,
                    eta=p0.eta * (1 + step),
                    sigma2=p0.sigma2,
                )
            )
            for params in probes:
                worst_fd = max(worst_fd, (e_step(d, panel, params)[1] - ll0) / scale)

        ok = worst_dip <= 1e-9 and worst_m <= 1e-5 and worst_fd <= 1.0
        record_criterion(
            6,
            ok,
            f"worst monotonicity dip {worst_dip:.2e} <= 1e-9, "
            f"m-step vs numeric Q {worst_m:.2e} <= 1e-5, "
            f"stationarity excess {worst_fd:.2e} <= 1",
        )
        assert worst_dip <= 1e-9
        assert worst_m <= 1e-5
        assert worst_fd <= 1.0


class TestCriterion7:
    def test_oracle_beats_least_squares(self):
        details = []
        ok = True
        for setting in (1, 3):
            cfg = SimConfig.for_setting(setting, seed=107)
            est_ols = mc_bayes_risk(ols_estimator, cfg, reps=2000)
            est_oracle = mc_bayes_risk(oracle_posterior_estimator, cfg, reps=2000)
            pooled = float(np.hypot(est_ols.stderr, est_oracle.stderr))
            gap = (est_ols.risk - est_oracle.risk) / pooled
            details.append(f"S{setting} gap {gap:.1f} se")
            ok = ok and gap >= 2.0
            if setting == 1:
                design = build_design(
                    simulate_setting(SimConfig.for_setting(1, seed=107)).x
                )
                # conditioning design inside the risk driver uses child seed 0
                from ebshrink.simulate import _draw_x, _mix_seed

                x = _draw_x(np.random.default_rng(_mix_seed(cfg.seed, 0)), cfg)
                exact = ols_risk_exact(build_design(x), cfg.sigma2)
                dev = abs(est_ols.risk - exact) / est_ols.stderr
                details.append(f"S1 ols risk within {dev:.1f} se of exact")
                ok = ok and dev <= 3.0
        record_criterion(7, ok, ", ".join(details))
        assert ok


class TestCriterion8:
    def test_contraction_toward_oracle(self):
        cfg = SimConfig.for_setting(1, n=50, p=10, seed=108)
        params = model_prior_params(cfg)
        rng = np.random.default_rng(1080)
        design = build_design(rng.standard_normal((cfg.n, cfg.p)))
        medians = []
        for m in (10, 50, 200):
            dists = []
            for _ in range(40):
                panel, _, _ = simulate_model_panel(design, params, m, rng)
                res = fit(design, panel)
                fitted = res.posteriors[0].post_mean
                oracle = tissue_posterior(design, panel, params)[0].post_mean
                dists.append(float(np.linalg.norm(fitted - oracle)))
            medians.append(float(np.median(dists)))
        increases = [
            (medians[i + 1] - medians[i]) / medians[i] for i in range(len(medians) - 1)
        ]
        n_up = sum(1 for g in increases if g > 0)
        ok = n_up <= 1 and all(g <= 0.05 for g in increases)
        record_criterion(
            8,
            ok,
            "median oracle distance over m=(10, 50, 200): "
            + ", ".join(f"{v:.3f}" for v in medians),
        )
        assert ok


class TestCriterion9:
    def test_cli_byte_determinism(self, tmp_path, capsys):
        data = simulate_setting(
            SimConfig.for_setting(1, rho=0.0, beta_s=2.0, seed=9, n=30, p=5, m=8)
        )
        x_path = tmp_path / "x.tsv"
        y_path = tmp_path / "y.tsv"
        write_matrix_tsv(x_path, data.x, col_ids=[f"v{j + 1}" for j in range(5)])
        write_matrix_tsv(
            y_path,
            data.panel.y,
            col_ids=list(data.panel.tissue_names),
        )
        z_path = tmp_path / "z.tsv"
        write_matrix_tsv(
            z_path,
            np.random.default_rng(90).standard_normal((6, 4)) * 3.0,
            col_ids=["t1", "t2", "t3", "t4"],
        )
        fit_json = tmp_path / "fit.json"
        assert (
            cli_main(
                ["fit", "--x", str(x_path), "--y", str(y_path), "--out", str(fit_json)]
            )
            == 0
        )

        commands = {
            "fit": ["fit", "--x", str(x_path), "--y", str(y_path)],
            "predict": ["predict", "--x", str(x_path), "--fit", str(fit_json)],
            "simulate": ["simulate", "--setting", "2", "--reps", "3", "--seed", "7"],
            "cv": ["cv", "--x", str(x_path), "--y", str(y_path), "--folds", "4"],
            "screen": ["screen", "--z", str(z_path), "--alpha", "0.2"],
        }
        ok = True
        for name, argv in commands.items():
            outputs = set()
            for threads in (1, 2):
                with blas_threads(threads):
                    for run in range(2):
                        out = tmp_path / f"{name}-{threads}-{run}.out"
                        assert cli_main(argv + ["--out", str(out)]) == 0
                        outputs.add(out.read_bytes())
            ok = ok and len(outputs) == 1
        capsys.readouterr()
        record_criterion(
            9, ok, "5 commands byte-identical across reruns and thread counts"
        )
        assert ok
