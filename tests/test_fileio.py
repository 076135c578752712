"""TSV parsing/writing and the fit JSON round-trip."""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from ebshrink.crossval import predict
from ebshrink.em import FitResult, ResponsePanel, fit
from ebshrink.errors import NaInCovariates, NonFinite, ParseError
from ebshrink.fileio import (
    read_fit_json,
    read_matrix_tsv,
    render_table,
    write_fit_json,
    write_matrix_tsv,
)
from ebshrink.linalg import build_design
from ebshrink.posterior import PriorParams, posterior_table
from oracles import read_matrix_tsv_per_cell, render_table_per_cell


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRenderTable:
    def test_floats_by_fmt_others_by_str(self):
        text = render_table(["a", "b", "c"], [(0.1, np.float64(2.0), 3), ("NA", True, -0.0)], ",")
        assert text == "a,b,c\n0.1,2.0,3\nNA,True,-0.0\n"

    def test_header_only(self):
        assert render_table(["#id", "z", "p"], []) == "#id\tz\tp\n"

    @pytest.mark.parametrize("cell", ["Brain\tCortex", "two\nlines", "carriage\rreturn"])
    def test_rejects_separator_and_line_breaks(self, cell):
        with pytest.raises(ValueError, match=r"line 3, field 2"):
            render_table(["id", "t"], [("r1", 1.0), ("r2", cell)])

    def test_rejects_bad_header_cell(self):
        with pytest.raises(ValueError, match=r"'Brain, Cortex' \(line 1, field 1\)"):
            render_table(["Brain, Cortex", "lung"], [(1.0, 2.0)], ",")

    def test_rejects_ragged_row(self):
        with pytest.raises(ValueError, match="line 2 has 2 cells, header 3"):
            render_table(["a", "b", "c"], [(1.0, 2.0)])

    def test_tab_is_legal_in_csv(self):
        assert render_table(["a\tb"], [], ",") == "a\tb\n"


class TestReadMatrixTsv:
    def test_single_column(self, tmp_path):
        p = write_text(tmp_path / "x.tsv", "snp1\n1\n3\n")
        mf = read_matrix_tsv(p)
        assert mf.col_ids == ["snp1"]
        assert mf.row_ids is None
        assert np.array_equal(mf.values, np.array([[1.0], [3.0]]))
        assert not np.isnan(mf.values).any()

    def test_row_id_column(self, tmp_path):
        p = write_text(
            tmp_path / "x.tsv", "#id\ta\tb\nr1\t1\t2\nr2\t3\t4\n"
        )
        mf = read_matrix_tsv(p)
        assert mf.col_ids == ["a", "b"]
        assert mf.row_ids == ["r1", "r2"]
        assert np.array_equal(mf.values, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_na_allowed_only_on_request(self, tmp_path):
        p = write_text(tmp_path / "y.tsv", "t1\tt2\n1\tNA\n2\t5\n")
        with pytest.raises(NaInCovariates):
            read_matrix_tsv(p)
        mf = read_matrix_tsv(p, allow_na=True)
        assert np.isnan(mf.values[0, 1])
        assert np.isnan(mf.values).sum() == 1

    def test_overflow_is_a_parse_error(self, tmp_path):
        p = write_text(tmp_path / "x.tsv", "a\n1e999\n")
        with pytest.raises(ParseError):
            read_matrix_tsv(p)

    def test_ragged_row_coordinates(self, tmp_path):
        p = write_text(tmp_path / "x.tsv", "a\tb\n1\t2\n3\n")
        with pytest.raises(ParseError) as exc:
            read_matrix_tsv(p)
        assert exc.value.row == 3

    def test_bad_cell_coordinates(self, tmp_path):
        p = write_text(tmp_path / "x.tsv", "a\tb\n1\t2\n3\tfoo\n")
        with pytest.raises(ParseError) as exc:
            read_matrix_tsv(p)
        assert exc.value.row == 3
        assert exc.value.col == 2

    def test_empty_file(self, tmp_path):
        p = write_text(tmp_path / "x.tsv", "")
        with pytest.raises(ParseError):
            read_matrix_tsv(p)


class TestWriteMatrixTsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(91)
        values = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-8, 8, (6, 4))
        p = tmp_path / "m.tsv"
        write_matrix_tsv(p, values, col_ids=[f"c{j}" for j in range(4)])
        back = read_matrix_tsv(str(p))
        assert np.array_equal(back.values, values)

    def test_row_ids_round_trip(self, tmp_path):
        values = np.array([[1.5, 2.5]])
        p = tmp_path / "m.tsv"
        write_matrix_tsv(p, values, col_ids=["a", "b"], row_ids=["only"])
        text = p.read_text()
        assert text.startswith("#id\t")
        back = read_matrix_tsv(str(p))
        assert back.row_ids == ["only"]
        assert np.array_equal(back.values, values)

    def test_na_mask_written_as_na(self, tmp_path):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        mask = np.isnan(values)
        p = tmp_path / "y.tsv"
        write_matrix_tsv(p, values, col_ids=["t1", "t2"])
        assert "NA" in p.read_text()
        back = read_matrix_tsv(str(p), allow_na=True)
        assert np.array_equal(np.isnan(back.values), mask)
        assert np.array_equal(back.values[~mask], values[~mask])

    @pytest.mark.parametrize(
        "row_ids, expected",
        [
            (None, "t1\tt2\tt3\n1.5\tNA\t-2e-07\n"
                   "NA\t0.1\t30000000000.0\n"),
            (["r1", "r2"], "#id\tt1\tt2\tt3\nr1\t1.5\tNA\t-2e-07\n"
                           "r2\tNA\t0.1\t30000000000.0\n"),
        ],
        ids=["plain", "row_ids"],
    )
    def test_exact_bytes(self, tmp_path, row_ids, expected):
        values = np.array([[1.5, np.nan, -2e-7], [np.nan, 0.1, 3e10]])
        p = tmp_path / "y.tsv"
        write_matrix_tsv(p, values, col_ids=["t1", "t2", "t3"], row_ids=row_ids)
        assert p.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "col_ids, row_ids", [(["a\tb", "c"], None), (["a", "b"], ["r\n1"]), (["a", "b", "c"], None)]
    )
    def test_bad_identifier_writes_nothing(self, tmp_path, col_ids, row_ids):
        p = tmp_path / "m.tsv"
        with pytest.raises(ValueError):
            write_matrix_tsv(p, np.ones((1, 2)), col_ids=col_ids, row_ids=row_ids)
        assert not p.exists()

    @pytest.mark.parametrize(
        "col_ids, row_ids, where",
        [(["a", "b"], ["r1", "r\t2"], "line 3, field 1"),
         (["a", "b\tc"], ["r1", "r2"], "line 1, field 3")],
        ids=["row_id", "header"],
    )
    def test_tab_in_identifier_named(self, tmp_path, col_ids, row_ids, where):
        p = tmp_path / "m.tsv"
        with pytest.raises(ValueError, match=where):
            write_matrix_tsv(p, np.ones((2, 2)), col_ids=col_ids, row_ids=row_ids)
        assert not p.exists()

    def test_row_id_count_checked(self, tmp_path):
        p = tmp_path / "m.tsv"
        with pytest.raises(ValueError, match="1 row ids for 2 rows"):
            write_matrix_tsv(p, np.ones((2, 2)), row_ids=["only"])
        assert not p.exists()

    def test_default_column_ids(self, tmp_path):
        p = tmp_path / "m.tsv"
        write_matrix_tsv(p, np.ones((2, 3)))
        back = read_matrix_tsv(str(p))
        assert back.col_ids == ["col1", "col2", "col3"]


class TestFitJson:
    def fitted(self, seed=92):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((15, 3))
        d = build_design(x)
        y = x @ rng.standard_normal((3, 4)) + rng.standard_normal((15, 4))
        panel = ResponsePanel(y, tissue_names=("liver", "lung", "brain", "skin"))
        return d, panel, fit(d, panel)

    def test_round_trip_parameters(self, tmp_path):
        _, panel, res = self.fitted()
        p = tmp_path / "fit.json"
        write_fit_json(p, res, panel.tissue_names)
        back, names = read_fit_json(str(p))
        assert names == list(panel.tissue_names)
        assert back.params.tau1 == res.params.tau1
        assert back.params.sigma2 == res.params.sigma2
        assert back.params.eta == res.params.eta
        assert np.array_equal(back.params.beta, res.params.beta)
        assert back.iterations == res.iterations
        assert back.converged == res.converged
        assert np.array_equal(
            np.asarray(back.loglik_trace), np.asarray(res.loglik_trace)
        )
        for a, b in zip(back.posteriors, res.posteriors):
            assert a.h == b.h
            assert np.array_equal(a.post_mean, b.post_mean)
            assert a.log_bf == b.log_bf
            assert a.log_odds == b.log_odds

    def test_betahat_is_not_stored(self, tmp_path):
        _, panel, res = self.fitted()
        assert res.betahat.shape == (4, 3)
        p = tmp_path / "fit.json"
        write_fit_json(p, res, panel.tissue_names)
        assert "betahat" not in p.read_text()
        back, _ = read_fit_json(str(p))
        assert back.betahat is None

    def test_predictions_survive_round_trip_bitwise(self, tmp_path):
        d, panel, res = self.fitted(seed=93)
        p = tmp_path / "fit.json"
        write_fit_json(p, res, panel.tissue_names)
        back, _ = read_fit_json(str(p))
        probe = np.random.default_rng(94).standard_normal((7, 3))
        assert np.array_equal(predict(probe, back), predict(probe, res))

    def test_report_below_ratio_floor_loads(self, tmp_path):
        # written before the spread was floored as a ratio: eta = 1e-10 with
        # sigma2 = 1e4 is r = 1e-14, below today's r >= 1e-12
        text = (
            '{"params": {"tau1": 0.29999999999999999, "beta": [0.5, -1.25], "eta": 1e-10, '
            '"sigma2": 10000}, "posteriors": [{"tissue": "liver", "h": 0.8125, '
            '"post_mean": [0.40625, -1.015625], "log_bf": -2.3136349291806306, '
            '"log_odds": -1.466337068793427}, {"tissue": "lung", "h": 0.0625, '
            '"post_mean": [0.03125, -0.078125], "log_bf": 1.8607523407150064, '
            '"log_odds": 2.70805020110221}], "loglik_trace": [-120.5, -118.3], '
            '"iterations": 2, "converged": true}\n'
        )
        back, names = read_fit_json(write_text(tmp_path / "old.json", text))
        assert names == ["liver", "lung"]
        assert back.params.sigma2 == 1e4
        assert back.params.eta == 1e-8        # raised to 1e-12 * sigma2
        probe = np.random.default_rng(95).standard_normal((5, 2))
        post_mean = np.array([[0.40625, 0.03125], [-1.015625, -0.078125]])
        assert np.array_equal(predict(probe, back), probe @ post_mean)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda text: re.sub(r'"post_mean": \[[^,]*', '"post_mean": [NaN', text, count=1),
             NonFinite),
            (lambda text: text.replace('"post_mean": [', '"post_mean": [1.5, ', 1), ParseError),
            (lambda text: re.sub(r'"h": [^,]*', '"h": 7', text, count=1), ParseError),
            (lambda text: text[: len(text) // 2], ParseError),
            (lambda text: re.sub(r'"loglik_trace": \[[^,\]]*', '"loglik_trace": [NaN', text),
             NonFinite),
            (lambda text: re.sub(
                r'"iterations": (\d+)', lambda mt: f'"iterations": {int(mt[1]) + 1}', text),
             ParseError),
            (lambda text: re.sub(r'"beta": \[[^,\]]*', '"beta": [NaN', text), NonFinite),
            (lambda text: re.sub(r'"converged": \w+', '"converged": "no"', text), ParseError),
            (lambda text: re.sub(r'"iterations": (\d+)', r'"iterations": \1.9', text), ParseError),
            (lambda text: re.sub(r'"posteriors": \[.*?\], "loglik_trace"',
                                 '"posteriors": [], "loglik_trace"', text),
             ParseError),
            (lambda text: re.sub(r'"h": [^,]*', '"h": 5e-324', text, count=1), NonFinite),
            # a number spelled as a string or a boolean is a type error, not a value
            (lambda text: re.sub(r'"h": ([^,]*)', r'"h": "\1"', text, count=1), ParseError),
            (lambda text: re.sub(r'"h": [^,]*', '"h": true', text, count=1), ParseError),
            (lambda text: re.sub(r'"tau1": ([^,]*)', r'"tau1": "\1"', text), ParseError),
            (lambda text: quote_entries("beta", text), ParseError),
            (lambda text: quote_entries("loglik_trace", text), ParseError),
            (lambda text: re.sub(r'"tissue": "[^"]*"', '"tissue": 7', text, count=1), ParseError),
            (lambda text: re.sub(r'"sigma2": [^}]*', '"sigma2": 1' + "0" * 400, text),
             ParseError),
            # out-of-range parameters are refused, not clamped into range
            (lambda text: re.sub(r'"tau1": [^,]*', '"tau1": 5.0', text), ParseError),
            (lambda text: re.sub(r'"tau1": [^,]*', '"tau1": -3.0', text), ParseError),
            (lambda text: re.sub(r'"eta": [^,]*', '"eta": -7.0', text), ParseError),
            # reports no fit writes: no covariates, and no E-step at the params
            (lambda text: re.sub(r'"beta": \[[^\]]*\]', '"beta": []', text), ParseError),
            (lambda text: re.sub(r'"loglik_trace": \[[^\]]*\], "iterations": \d+',
                                 '"loglik_trace": [], "iterations": 0', text), ParseError),
            # posterior fields that contradict each other, each check alone
            (lambda text: CONTRADICTORY_REPORT, ParseError),
            (lambda text: first_entry(text, h=0.0, log_bf=1e300, log_odds=1e300), ParseError),
            (lambda text: first_entry(text, log_bf=lambda v: v + 1e-6), ParseError),
            (lambda text: first_entry(text, h=lambda v: v - 0.25 if v > 0.5 else v + 0.25),
             ParseError),
        ],
        ids=["nan_post_mean", "long_post_mean", "h_out_of_range", "truncated",
             "nan_trace", "iterations_mismatch", "nan_beta", "string_converged",
             "fractional_iterations", "no_posteriors", "cond_mean_overflow",
             "string_h", "boolean_h", "string_tau1", "string_beta", "string_trace",
             "integer_tissue", "integer_beyond_float", "tau1_above_one", "negative_tau1",
             "negative_eta", "empty_beta", "no_iterations", "found_report",
             "post_mean_where_h_zero", "log_odds_off_prior", "h_off_log_odds"],
    )
    def test_bad_report_rejected(self, tmp_path, edit, error):
        _, panel, res = self.fitted()
        p = tmp_path / "fit.json"
        write_fit_json(p, res, panel.tissue_names)
        text = p.read_text(encoding="utf-8")
        bad = edit(text)
        assert bad != text
        with pytest.raises(error, match="bad.json"):
            read_fit_json(write_text(tmp_path / "bad.json", bad))


# h = 0 with a nonzero post_mean, and log_odds at neither log_bf + log(tau0/tau1)
# nor -logit(h): loaded, it would predict 4.0 at x = (1, 1) for a tissue with h = 0
CONTRADICTORY_REPORT = (
    '{"params": {"tau1": 0.3, "beta": [0.5, -1.25], "eta": 2.0, "sigma2": 1.5}, '
    '"posteriors": [{"tissue": "liver", "h": 0.0, "post_mean": [7.0, -3.0], '
    '"log_bf": -0.61, "log_odds": -1.46}], "loglik_trace": [-120.5], '
    '"iterations": 1, "converged": true}\n'
)


def first_entry(text, **fields):
    """The report text with fields of its first posterior entry replaced.

    A callable value maps the field's old value to its new one.
    """
    doc = json.loads(text)
    entry = doc["posteriors"][0]
    for field, value in fields.items():
        entry[field] = value(entry[field]) if callable(value) else value
    return json.dumps(doc)


def quote_entries(field, text):
    """The report text with every entry of the list ``field`` in quotes."""
    def quoted(mt):
        return f'"{field}": [' + ", ".join(f'"{v}"' for v in mt[1].split(", ")) + "]"
    return re.sub(rf'"{field}": \[([^\]]*)\]', quoted, text)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# finite doubles plus the edges a decimal spelling can get wrong
EDGES = [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
         -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
round_trip = settings(derandomize=True, deadline=None, database=None)


# spellings float() reads that the format forbids (non-finite, overflow)
# or that look odd but are legal, and ones it refuses
ODD_CELLS = ["NA", "nan", "NaN", "-nan", "inf", "infinity", "1e400", "1_0", " 2 ", "  1",
             "\u0661\u0662", "0x10", ""]


def read_outcome(read, path, allow_na):
    try:
        return read(path, allow_na=allow_na)
    except ParseError as exc:  # NaInCovariates included
        return exc


def render_outcome(render, header, rows):
    try:
        return render(header, rows, ",")
    except ValueError:
        return ValueError


class TestRowAtATimeProperties:
    """The row-at-a-time reader and writer against per-cell references."""

    @round_trip
    @given(data=st.data(), n_rows=st.integers(1, 4), n_cols=st.integers(1, 4),
           has_ids=st.booleans(), allow_na=st.booleans(), odd=st.booleans(),
           ragged=st.booleans())
    def test_reader_matches_cell_scan(self, tmp_path_factory, data, n_rows, n_cols, has_ids,
                                      allow_na, odd, ragged):
        cell = st.builds(repr, finite) | st.just("NA")
        if odd:
            cell = cell | st.sampled_from(ODD_CELLS)
        widths = st.sampled_from([n_cols, n_cols - 1, n_cols + 1]) if ragged else st.just(n_cols)
        grid = [["#id"] * has_ids + [f"c{j}" for j in range(n_cols)]]
        for _ in range(n_rows):
            row_id = [data.draw(st.sampled_from(["r1", "NA", "nan"]))] * has_ids
            width = data.draw(widths)
            grid.append(row_id + data.draw(st.lists(cell, min_size=width, max_size=width)))
        path = tmp_path_factory.mktemp("tsv") / "m.tsv"
        path.write_text("".join("\t".join(row) + "\n" for row in grid), encoding="utf-8")
        want = read_outcome(read_matrix_tsv_per_cell, str(path), allow_na)
        got = read_outcome(read_matrix_tsv, str(path), allow_na)
        if isinstance(want, ParseError):
            assert type(got) is type(want)
            assert (got.row, got.col) == (want.row, want.col)
        else:
            assert (got.row_ids, got.col_ids) == (want.row_ids, want.col_ids)
            nan = np.isnan(want.values)
            assert np.array_equal(np.isnan(got.values), nan)
            assert np.array_equal(bits(got.values[~nan]), bits(want.values[~nan]))

    @round_trip
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                             elements=finite | st.just(np.nan)),
           with_ids=st.booleans())
    def test_matrix_writer_matches_per_cell(self, tmp_path_factory, values, with_ids):
        header = [f"t{j}" for j in range(values.shape[1])]
        rows = [row.tolist() for row in values]
        row_ids = None
        if with_ids:
            row_ids = [f"r{i}" for i in range(len(values))]
            header = ["#id", *header]
            rows = [[rid, *row] for rid, row in zip(row_ids, rows)]
        path = tmp_path_factory.mktemp("tsv") / "m.tsv"
        write_matrix_tsv(path, values, col_ids=header[with_ids:], row_ids=row_ids)
        assert path.read_bytes() == render_table_per_cell(header, rows).encode("utf-8")

    @round_trip
    @given(data=st.data(), width=st.integers(1, 5), n_rows=st.integers(0, 4))
    def test_mixed_rows_match_per_cell(self, data, width, n_rows):
        cell = (finite | st.just(np.nan) | finite.map(np.float64) | st.integers()
                | st.booleans() | st.text(st.sampled_from("aNn1.\t,\n\r"), max_size=3))
        header = [f"h{j}" for j in range(width)]
        rows = [data.draw(st.lists(cell, min_size=width, max_size=width)) for _ in range(n_rows)]
        assert render_outcome(render_table, header, rows) == render_outcome(
            render_table_per_cell, header, rows
        )


class TestRoundTripProperties:
    @round_trip
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                             elements=finite | st.just(np.nan)))
    def test_matrix_tsv_is_bitwise(self, tmp_path_factory, values):
        p = tmp_path_factory.mktemp("tsv") / "m.tsv"
        write_matrix_tsv(p, values)
        back = read_matrix_tsv(str(p), allow_na=True).values
        nan = np.isnan(values)
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(bits(back[~nan]), bits(values[~nan]))

    @round_trip
    @given(data=st.data(), p=st.integers(1, 4), m=st.integers(1, 3))
    def test_fit_json_is_bitwise(self, tmp_path_factory, data, p, m):
        vec = lambda k: np.array(data.draw(st.lists(finite, min_size=k, max_size=k)))
        params = PriorParams(
            tau1=data.draw(st.floats(0.0, 1.0)),
            beta=vec(p),
            eta=data.draw(st.floats(0.0, 1e308)),
            sigma2=data.draw(st.floats(0.0, 1e308, exclude_min=True)),
        )
        # the posterior fields a fit writes: log_odds and h follow from
        # log_bf at the prior odds, and post_mean is zero where h is
        log_bf = vec(m)
        log_odds = log_bf + (math.log(params.tau0) - math.log(params.tau1))
        h = expit(-log_odds)
        post_mean = np.array([vec(p) for _ in range(m)])
        post_mean[h == 0.0] = 0.0
        posteriors = posterior_table(h, post_mean, np.zeros((m, p)), log_bf, log_odds)
        # the reader rebuilds post_mean / h and rejects an overflow (tested above)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            assume(all(np.all(np.isfinite(tp.post_mean / tp.h)) for tp in posteriors if tp.h))
        names = data.draw(st.lists(st.text(), min_size=m, max_size=m))
        # a fit's trace ends on the E-step at its parameters, so it is never empty
        trace = vec(data.draw(st.integers(1, 4)))
        result = FitResult(params=params, posteriors=posteriors, loglik_trace=trace,
                           iterations=len(trace), converged=data.draw(st.booleans()))
        path = tmp_path_factory.mktemp("fit") / "fit.json"
        write_fit_json(path, result, names)
        back, back_names = read_fit_json(str(path))
        assert back_names == names
        assert (back.iterations, back.converged) == (result.iterations, result.converged)
        for attr in ("tau1", "beta", "eta", "sigma2"):
            assert np.array_equal(bits(getattr(back.params, attr)), bits(getattr(params, attr)))
        assert np.array_equal(bits(back.loglik_trace), bits(trace))
        for a, b in zip(back.posteriors, posteriors):
            for attr in ("h", "post_mean", "log_bf", "log_odds"):
                assert np.array_equal(bits(getattr(a, attr)), bits(getattr(b, attr)))

    def test_non_finite_report_writes_nothing(self, tmp_path):
        _, panel, res = TestFitJson().fitted()
        res.loglik_trace[-1] = np.nan
        p = tmp_path / "fit.json"
        with pytest.raises(ValueError):
            write_fit_json(p, res, panel.tissue_names)
        assert not p.exists()


# a valid report, small enough that a drawn location often hits a field
VALID_REPORT = {
    "params": {"tau1": 0.3, "beta": [0.5, -1.25], "eta": 2.0, "sigma2": 1.5},
    "posteriors": [
        {"tissue": "liver", "h": 0.8125, "post_mean": [0.40625, -1.015625],
         "log_bf": -2.3136349291806306, "log_odds": -1.466337068793427},
        {"tissue": "lung", "h": 0.0625, "post_mean": [0.03125, -0.078125],
         "log_bf": 1.8607523407150064, "log_odds": 2.70805020110221},
    ],
    "loglik_trace": [-120.5, -118.3],
    "iterations": 2,
    "converged": True,
}
DROP = object()
# what a mutation writes: a deletion, any float (NaN and infinities too),
# values at the edges of each field's range, and arbitrary JSON: every type,
# integers beyond float range, nested and empty containers
EDITS = (
    st.just(DROP) | st.floats()
    | st.sampled_from([0, 1, -1, 0.0, -0.0, 5e-324, 1e308, 10**400, True, None, "1.0", [], {}])
    | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=6,
    )
)


def locations(node, path=()):
    """The path of ``node`` and of everything nested in it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from locations(child, (*path, key))


def mutated(doc, path, value):
    """``doc`` with the item at ``path`` replaced by value, or deleted for DROP."""
    if not path:
        return doc if value is DROP else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestFitJsonFuzz:
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(data=st.data(), edits=st.integers(1, 3))
    def test_mutated_report_loads_or_raises_typed(self, tmp_path_factory, data, edits):
        doc = copy.deepcopy(VALID_REPORT)
        for _ in range(edits):
            path = data.draw(st.sampled_from(list(locations(doc))))
            doc = mutated(doc, path, data.draw(EDITS))
        path = tmp_path_factory.mktemp("fuzz") / "fit.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result, names = read_fit_json(str(path))
            except (ParseError, NonFinite):
                return
        post = result.posteriors
        assert post.shape == (len(names),)
        for field in post.dtype.names:
            assert np.all(np.isfinite(post[field]))
        assert np.all(np.isfinite(result.loglik_trace)) and result.iterations >= 1
