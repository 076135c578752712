"""Command-line interface.

Subcommands: fit, predict, simulate, cv, screen.  Exit codes: 0 success,
2 usage error (argparse), 1 runtime failure (bad files, degenerate data,
I/O).  Output bytes depend on the inputs alone: fits, replications and CV
folds run one after another in the calling thread, with their linear
algebra on one BLAS thread whatever the BLAS thread count.
"""

import argparse
import sys

import numpy as np

from .crossval import kfold_cv, predict, stouffer_combine
from .em import FitOptions, ResponsePanel, fit
from .errors import EbshrinkError, ParseError
from .fileio import (
    read_fit_json,
    read_matrix_tsv,
    render_table,
    write_fit_json,
    write_matrix_tsv,
)
from .linalg import build_design
from .simulate import SimConfig, run_replications


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ebshrink",
        description="Empirical Bayes multi-task linear regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the shared prior to a response panel")
    p_fit.add_argument("--x", required=True, help="covariate TSV, no NA")
    p_fit.add_argument("--y", required=True, help="response TSV, NA = missing")
    p_fit.add_argument("--out", required=True, help="output fit JSON")
    p_fit.add_argument("--tol", type=float, default=1e-8)
    p_fit.add_argument("--max-iter", type=int, default=1000)

    p_pred = sub.add_parser("predict", help="posterior-mean predictions at new rows")
    p_pred.add_argument("--x", required=True, help="new covariate TSV, no NA")
    p_pred.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p_pred.add_argument("--out", required=True, help="output prediction TSV")

    p_sim = sub.add_parser("simulate", help="replicate a simulation scenario")
    p_sim.add_argument("--setting", type=int, required=True, choices=[1, 2, 3, 4])
    p_sim.add_argument("--rho", type=float, default=0.0)
    p_sim.add_argument("--beta-s", type=float, default=1.0)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--x", default=None, help="external covariate pool (setting 4)")
    p_sim.add_argument("--out", required=True, help="output CSV report")

    p_cv = sub.add_parser("cv", help="k-fold cross-validated prediction metrics")
    p_cv.add_argument("--x", required=True)
    p_cv.add_argument("--y", required=True)
    p_cv.add_argument("--folds", type=int, default=10)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--out", required=True, help="output CSV report")

    p_scr = sub.add_parser("screen", help="combine per-tissue z-scores and filter")
    p_scr.add_argument("--z", required=True, help="z-score TSV, rows = candidates")
    p_scr.add_argument("--alpha", type=float, default=1e-6)
    p_scr.add_argument("--out", required=True, help="output TSV of kept rows")

    return parser


def _load_design_panel(x_path, y_path):
    x_file = read_matrix_tsv(x_path, allow_na=False)
    y_file = read_matrix_tsv(y_path, allow_na=True)
    if x_file.values.shape[0] != y_file.values.shape[0]:
        raise ParseError(
            f"row mismatch: {x_path} has {x_file.values.shape[0]}, "
            f"{y_path} has {y_file.values.shape[0]}"
        )
    if (
        x_file.row_ids is not None
        and y_file.row_ids is not None
        and x_file.row_ids != y_file.row_ids
    ):
        raise ParseError("row identifiers disagree between covariates and responses")
    design = build_design(x_file.values)
    panel = ResponsePanel(
        y=y_file.values, mask=~np.isnan(y_file.values), tissue_names=y_file.col_ids
    )
    return design, panel


def _cmd_fit(args):
    design, panel = _load_design_panel(args.x, args.y)
    result = fit(design, panel, FitOptions(tol=args.tol, max_iter=args.max_iter))
    write_fit_json(args.out, result, panel.tissue_names)
    status = "converged" if result.converged else "hit max-iter"
    print(f"fit {status} after {result.iterations} iterations; wrote {args.out}")
    return 0


def _cmd_predict(args):
    x_file = read_matrix_tsv(args.x, allow_na=False)
    result, names = read_fit_json(args.fit)
    pred = predict(x_file.values, result)
    write_matrix_tsv(args.out, pred, col_ids=names, row_ids=x_file.row_ids)
    print(f"wrote {pred.shape[0]} x {pred.shape[1]} predictions to {args.out}")
    return 0


def _cmd_simulate(args):
    overrides = {}
    if args.x is not None:
        overrides["external_x"] = read_matrix_tsv(args.x, allow_na=False).values
    config = SimConfig.for_setting(
        args.setting, rho=args.rho, beta_s=args.beta_s, seed=args.seed, **overrides
    )
    report = run_replications(config, args.reps)
    report.write(args.out)
    row = report.rows[0]
    print(
        f"setting {row.setting} rho={row.rho} beta_s={row.beta_s}: "
        f"mse_ols={row.mse_ols} mse_proposed={row.mse_proposed} "
        f"auc={row.auc} failed={row.failed}; wrote {args.out}"
    )
    return 0


def _cmd_cv(args):
    design, panel = _load_design_panel(args.x, args.y)
    # a tissue name the CSV report cannot hold fails here, before k fits
    render_table(["tissue"], ([name] for name in panel.tissue_names), ",")
    report = kfold_cv(design, panel, k=args.folds, seed=args.seed)
    report.write(args.out)
    print(f"wrote {len(report.rows)} tissue rows to {args.out}")
    return 0


def _cmd_screen(args):
    z_file = read_matrix_tsv(args.z, allow_na=False)
    n_rows = z_file.values.shape[0]
    row_ids = z_file.row_ids or [f"row{i + 1}" for i in range(n_rows)]
    combined = np.array([stouffer_combine(z) for z in z_file.values])
    keep = combined[:, 1] < args.alpha
    kept_ids = [rid for rid, k in zip(row_ids, keep) if k]
    write_matrix_tsv(args.out, combined[keep], col_ids=["z", "p"], row_ids=kept_ids)
    print(f"kept {len(kept_ids)} of {n_rows} rows at alpha={args.alpha}")
    return 0


_DISPATCH = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "simulate": _cmd_simulate,
    "cv": _cmd_cv,
    "screen": _cmd_screen,
}


def cli_main(argv=None):
    """Run the CLI on an argument list; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (EbshrinkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
