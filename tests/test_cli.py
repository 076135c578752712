"""End-to-end command-line runs through cli_main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ebshrink
import ebshrink.crossval
from ebshrink.cli import cli_main
from ebshrink.em import ResponsePanel, fit
from ebshrink.fileio import read_matrix_tsv, write_fit_json, write_matrix_tsv
from ebshrink.linalg import build_design
from ebshrink.simulate import SimConfig, simulate_setting


@pytest.fixture()
def sim_files(tmp_path):
    """Small simulated x/y TSV pair on disk."""
    cfg = SimConfig.for_setting(1, rho=0.0, beta_s=2.0, seed=5, n=30, p=5, m=8)
    data = simulate_setting(cfg)
    x_path = tmp_path / "x.tsv"
    y_path = tmp_path / "y.tsv"
    write_matrix_tsv(x_path, data.x, col_ids=[f"v{j + 1}" for j in range(cfg.p)])
    write_matrix_tsv(
        y_path,
        data.panel.y,
        col_ids=list(data.panel.tissue_names),
    )
    return str(x_path), str(y_path)


class TestFitPredict:
    def test_fit_writes_monotone_trace(self, sim_files, tmp_path, capsys):
        x_path, y_path = sim_files
        out = tmp_path / "fit.json"
        code = cli_main(["fit", "--x", x_path, "--y", y_path, "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        trace = np.asarray(doc["loglik_trace"])
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))
        assert set(doc["params"]) == {"tau1", "beta", "eta", "sigma2"}
        assert len(doc["posteriors"]) == 8

    def test_predict_round_trip(self, sim_files, tmp_path):
        x_path, y_path = sim_files
        fit_out = tmp_path / "fit.json"
        assert cli_main(["fit", "--x", x_path, "--y", y_path, "--out", str(fit_out)]) == 0
        pred_out = tmp_path / "pred.tsv"
        code = cli_main(
            ["predict", "--x", x_path, "--fit", str(fit_out), "--out", str(pred_out)]
        )
        assert code == 0
        pred = read_matrix_tsv(str(pred_out))
        x_vals = read_matrix_tsv(x_path).values
        assert pred.values.shape == (x_vals.shape[0], 8)
        assert np.all(np.isfinite(pred.values))

    def test_fit_is_deterministic(self, sim_files, tmp_path):
        x_path, y_path = sim_files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["fit", "--x", x_path, "--y", y_path, "--out", str(a)]) == 0
        assert cli_main(["fit", "--x", x_path, "--y", y_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_identical_bytes_across_runs(self, tmp_path):
        args = ["simulate", "--setting", "2", "--rho", "0.0", "--beta-s", "2.0",
                "--reps", "3", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "setting,rho,beta_s,reps,mse_ols,mse_proposed,auc,failed"

    def test_seed_changes_report(self, tmp_path):
        base = ["simulate", "--setting", "2", "--reps", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert cli_main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestCv:
    def test_cv_report(self, sim_files, tmp_path):
        x_path, y_path = sim_files
        out = tmp_path / "cv.csv"
        code = cli_main(
            ["cv", "--x", x_path, "--y", y_path, "--folds", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tissue,n_obs,pmse,r2"
        assert len(lines) == 9

    def test_singular_training_fold_fails_cleanly(self, tmp_path, capsys):
        # a covariate nonzero on one individual only: the fold holding that
        # individual out trains on a zero column
        x = np.random.default_rng(51).standard_normal((20, 3))
        x[:, 2] = 0.0
        x[7, 2] = 1.0
        x_path, y_path = tmp_path / "x.tsv", tmp_path / "y.tsv"
        write_matrix_tsv(x_path, x, col_ids=["a", "b", "c"])
        y = np.random.default_rng(52).standard_normal((20, 2))
        write_matrix_tsv(y_path, y, col_ids=["t1", "t2"])
        out = tmp_path / "cv.csv"
        code = cli_main(
            ["cv", "--x", str(x_path), "--y", str(y_path), "--folds", "4", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fold ") and "training X'X" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestScreen:
    def test_keeps_strong_rows(self, tmp_path, capsys):
        z_path = tmp_path / "z.tsv"
        write_matrix_tsv(
            z_path,
            np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]),
            col_ids=["t1", "t2", "t3", "t4"],
            row_ids=["strong", "null"],
        )
        out = tmp_path / "kept.tsv"
        code = cli_main(
            ["screen", "--z", str(z_path), "--alpha", "0.05", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "#id\tz\tp"
        assert len(lines) == 2
        rid, z, p = lines[1].split("\t")
        assert rid == "strong"
        assert float(z) == pytest.approx(2.0)
        assert float(p) == pytest.approx(0.0455, abs=2e-4)
        assert "kept 1 of 2" in capsys.readouterr().out

    def test_strict_alpha_keeps_nothing(self, tmp_path):
        z_path = tmp_path / "z.tsv"
        write_matrix_tsv(z_path, np.ones((1, 4)), col_ids=list("abcd"))
        out = tmp_path / "kept.tsv"
        assert cli_main(["screen", "--z", str(z_path), "--out", str(out)]) == 0
        assert out.read_bytes() == b"#id\tz\tp\n"

    @pytest.mark.parametrize(
        "values, col_ids, row_ids, alpha, expected",
        [
            (
                [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [-3.0, 0.5, -2.0, -1.25]],
                ["t1", "t2", "t3", "t4"],
                ["strong", "null", "neg"],
                "0.05",
                "#id\tz\tp\nstrong\t2.0\t0.04550026389635844\n"
                "neg\t-2.875\t0.004040274979892004\n",
            ),
            (
                [[0.1, 0.2], [5.0, -0.3], [-4.0, -4.0]],
                ["a", "b"],
                None,
                "0.01",
                "#id\tz\tp\nrow2\t3.3234018715767735\t0.0008892670321324544\n"
                "row3\t-5.65685424949238\t1.541725790028008e-08\n",
            ),
        ],
        ids=["row_ids", "generated_ids"],
    )
    def test_exact_bytes(self, tmp_path, values, col_ids, row_ids, alpha, expected):
        z_path = tmp_path / "z.tsv"
        write_matrix_tsv(z_path, np.array(values), col_ids=col_ids, row_ids=row_ids)
        out = tmp_path / "kept.tsv"
        code = cli_main(["screen", "--z", str(z_path), "--alpha", alpha, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == expected.encode("utf-8")


class TestCellsHoldingTheSeparator:
    # a name holding the file's separator or a line break would shift every
    # later field of its line; the command fails before any file is created
    def test_cv_rejects_comma_in_tissue_name(self, sim_files, tmp_path, capsys, monkeypatch):
        x_path, y_path = sim_files
        y_file = read_matrix_tsv(y_path, allow_na=True)
        names = ["Brain, Cortex"] + y_file.col_ids[1:]
        y_named = tmp_path / "y_named.tsv"
        write_matrix_tsv(y_named, y_file.values, col_ids=names)

        def no_fit(*args, **kwargs):
            raise AssertionError("the name is rejected before any fold is fitted")

        monkeypatch.setattr(ebshrink.crossval, "fit", no_fit)
        out = tmp_path / "cv.csv"
        code = cli_main(
            ["cv", "--x", x_path, "--y", str(y_named), "--folds", "4", "--out", str(out)]
        )
        assert code == 1
        assert "Brain, Cortex" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_rejects_tab_in_tissue_name(self, sim_files, tmp_path, capsys):
        x_path, y_path = sim_files
        x_file = read_matrix_tsv(x_path)
        y_file = read_matrix_tsv(y_path, allow_na=True)
        names = ["Brain\tCortex"] + y_file.col_ids[1:]
        panel = ResponsePanel(y_file.values, mask=~np.isnan(y_file.values), tissue_names=names)
        fit_json = tmp_path / "fit.json"
        write_fit_json(fit_json, fit(build_design(x_file.values), panel), panel.tissue_names)
        out = tmp_path / "pred.tsv"
        code = cli_main(["predict", "--x", x_path, "--fit", str(fit_json), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli_main(["fit", "--x"]) == 2
        assert cli_main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_runtime_error_is_1(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = cli_main(
            ["fit", "--x", "/does/not/exist.tsv", "--y", "/nor/this.tsv",
             "--out", str(out)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_1(self, tmp_path, capsys):
        x = tmp_path / "x.tsv"
        x.write_text("a\tb\n1\tzap\n")
        y = tmp_path / "y.tsv"
        y.write_text("t1\n1\n")
        out = tmp_path / "fit.json"
        code = cli_main(["fit", "--x", str(x), "--y", str(y), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err


# BLAS reads its thread count once, at load, so each count needs its own process
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli_process(argv, pinned):
    """Run the CLI in a fresh interpreter, BLAS pinned to one thread or at its default."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if pinned:
        env["OMP_NUM_THREADS"] = "1"
    src = str(Path(ebshrink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from ebshrink.cli import cli_main; sys.exit(cli_main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                   capture_output=True)


class TestBlasThreadCount:
    def test_cli_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Each command writes the same bytes with BLAS on one thread and at its default.

        On a one-core machine the default is one thread too, and the test has
        no power there.
        """
        commands = {
            "simulate3": ["simulate", "--setting", "3", "--reps", "10", "--seed", "20221128"],
            "simulate4": ["simulate", "--setting", "4", "--reps", "4", "--seed", "9"],
        }
        # on the tall panel a threaded BLAS splits X'y and the triangular solves
        for n, p, m in ((120, 10, 300), (2000, 40, 50)):
            data = simulate_setting(SimConfig.for_setting(3, seed=12, n=n, p=p, m=m))
            x_path, y_path = tmp_path / f"x{n}.tsv", tmp_path / f"y{n}.tsv"
            write_matrix_tsv(x_path, data.x, col_ids=[f"v{j + 1}" for j in range(p)])
            write_matrix_tsv(y_path, data.panel.y, col_ids=list(data.panel.tissue_names))
            commands[f"masked_fit_n{n}"] = ["fit", "--x", str(x_path), "--y", str(y_path)]
        differ = []
        for name, argv in commands.items():
            outputs = []
            for pinned in (True, False):
                out = tmp_path / f"{name}-{pinned}.out"
                run_cli_process(argv + ["--out", str(out)], pinned)
                outputs.append(out.read_bytes())
            if outputs[0] != outputs[1]:
                differ.append(name)
        assert differ == []


class TestColdStart:
    def test_import_leaves_out_scipy_optimize_and_stats(self):
        env = dict(os.environ)
        src = str(Path(ebshrink.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, ebshrink, ebshrink.cli; "
            "print(sorted({m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'optimize'], ['scipy', 'stats'])}))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"
