"""Recorded fits: the values a change that claims to move nothing must keep.

``record()`` refits settings 1, 3 and 4 at rho 0.5, seeds 0-19, and reruns
the README's ``ebshrink simulate --setting 3 --beta-s 0.5 --reps 50 --seed
20221128``.  ``tests/test_golden_fits.py`` compares a fresh record with the
committed ``tests/golden_fits.json``.  A change that moves values on
purpose regenerates the file and lists the largest change per setting,
which this script prints:

    PYTHONPATH=src python tests/golden_fits.py
"""

import json
import os
import sys

import numpy as np

from ebshrink.em import fit
from ebshrink.linalg import build_design
from ebshrink.simulate import SimConfig, run_replications, simulate_setting

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_fits.json")

SETTINGS = (1, 3, 4)
SEEDS = range(20)
RHO = 0.5

# the README's determinism example
SIMULATE = dict(setting=3, beta_s=0.5, reps=50, seed=20221128)

# what each fit keeps; iterations are compared exactly, the rest by scale
FIELDS = ("iterations", "tau1", "eta", "sigma2", "beta", "h", "loglik")
SIM_FIELDS = ("mse_ols", "mse_proposed", "auc", "failed")


def fit_record(setting, seed):
    data = simulate_setting(SimConfig.for_setting(setting, rho=RHO, seed=seed))
    result = fit(build_design(data.x), data.panel)
    params = result.params
    return {
        "setting": setting,
        "seed": seed,
        "iterations": result.iterations,
        "tau1": params.tau1,
        "eta": params.eta,
        "sigma2": params.sigma2,
        "beta": params.beta.tolist(),
        "h": result.posteriors.h.tolist(),
        "loglik": float(result.loglik_trace[-1]),
    }


def simulate_record():
    config = SimConfig.for_setting(
        SIMULATE["setting"], beta_s=SIMULATE["beta_s"], seed=SIMULATE["seed"]
    )
    row = run_replications(config, SIMULATE["reps"]).rows[0]
    return dict(SIMULATE, **{name: getattr(row, name) for name in SIM_FIELDS})


def record():
    return {
        "fits": [fit_record(setting, seed) for setting in SETTINGS for seed in SEEDS],
        "simulate": simulate_record(),
    }


def relative_change(got, want):
    """Largest |got - want| over the largest |want|, for a number or a list."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = float(np.max(np.abs(want)))
    diff = float(np.max(np.abs(got - want)))
    return diff / scale if scale > 0.0 else diff


def changes(new, old):
    """{setting or "simulate": (largest relative change, its field)} from old to new."""
    out = {}
    for got, want in zip(new["fits"], old["fits"]):
        for name in FIELDS:
            change = relative_change(got[name], want[name])
            key = f"setting {want['setting']}"
            if change > out.get(key, (-1.0, None))[0]:
                out[key] = (change, f"{name} at seed {want['seed']}")
    for name in SIM_FIELDS:
        change = relative_change(new["simulate"][name], old["simulate"][name])
        if change > out.get("simulate", (-1.0, None))[0]:
            out["simulate"] = (change, name)
    return out


def main():
    new = record()
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            old = json.load(fh)
        for key, (change, where) in changes(new, old).items():
            print(f"{key}: largest relative change {change:.3g} ({where})")
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(new, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {os.path.getsize(PATH)} bytes to {PATH}")


if __name__ == "__main__":
    sys.exit(main())
