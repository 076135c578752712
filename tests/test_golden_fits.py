"""Refit the recorded cases and compare with tests/golden_fits.json.

Roundoff passes and a real move fails: every value must lie within 1e-10
of its recorded value, relative to the largest magnitude of its field (so
an h near 0 is not held to a bound of its own), and iteration counts and
failed replications must match exactly.  Not bitwise, because other CPUs'
BLAS kernels round differently.  A change that moves values on purpose
regenerates the file with ``tests/golden_fits.py``.
"""

import json

import pytest

import golden_fits

RTOL = 1e-10

EXACT = ("iterations", "failed")


@pytest.fixture(scope="module")
def recorded():
    with open(golden_fits.PATH, encoding="utf-8") as fh:
        return json.load(fh)


def assert_matches(got, want, fields, where):
    for name in fields:
        if name in EXACT:
            assert got[name] == want[name], f"{where}: {name}"
        else:
            change = golden_fits.relative_change(got[name], want[name])
            assert change <= RTOL, f"{where}: {name} moved by {change:.3g} relative"


@pytest.mark.parametrize("setting", golden_fits.SETTINGS)
def test_fits_match_the_record(recorded, setting):
    wanted = [rec for rec in recorded["fits"] if rec["setting"] == setting]
    assert [rec["seed"] for rec in wanted] == list(golden_fits.SEEDS)
    for want in wanted:
        got = golden_fits.fit_record(setting, want["seed"])
        assert_matches(got, want, golden_fits.FIELDS, f"setting {setting}, seed {want['seed']}")


def test_readme_simulate_value_matches_the_record(recorded):
    want = recorded["simulate"]
    assert want["mse_proposed"] == 0.6967185826467197
    assert want["auc"] == 0.7871169190005122
    assert_matches(golden_fits.simulate_record(), want, golden_fits.SIM_FIELDS, "simulate")
