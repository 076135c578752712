"""Delimited tables, tab-separated matrix files and the fit report JSON.

:func:`render_table` renders every delimited file the package writes:
floats by ``repr``, the shortest string that reads back bitwise, NaN as
``NA``, and a cell holding the separator or a line break is an error, not
a shifted field.  The fit report goes through the standard ``json``
encoder, which spells floats the same way.

TSV layout: the first row holds column identifiers; when its first cell is
``#id`` every data row additionally starts with a row identifier.  Cells
are decimal floats; ``NA`` marks a missing response where permitted and
reads back as NaN.

Both directions work a row at a time: the reader parses each data row with
one numpy assignment (numpy reads a string through ``float()``) and scans
cell by cell only to locate an error; the writer renders each run of float
cells with one ``join`` over ``float.__repr__``.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .em import FitResult
from .errors import NaInCovariates, NonFinite, ParseError
from .posterior import PriorParams, posterior_table


def _cell(c):
    if isinstance(c, float):  # numpy's float64 included; NaN is unequal to itself
        return float.__repr__(c) if c == c else "NA"
    return str(c)


def _run_text(run, sep):
    """Cells of one type joined by ``sep``; a run of floats renders in one pass."""
    if type(run[0]) is float:
        text = sep.join(map(float.__repr__, run))
        if "nan" not in text:  # no float repr but NaN's holds "nan"
            return text
    return sep.join(map(_cell, run))


def render_table(header, rows, sep="\t"):
    """Text of a delimited table, one line per row, each ending in a newline.

    Float cells are written by ``repr`` (NaN as ``NA``), every other cell by
    ``str``.  A row whose width differs from the header's, or a cell holding
    ``sep``, ``\\n`` or ``\\r``, raises ValueError naming its 1-based line
    (and field).  ``rows`` may be any iterable; it is consumed one row at a
    time.
    """
    lines = []
    for row in itertools.chain([header], rows):
        runs = [list(run) for _, run in itertools.groupby(row, type)]
        width = sum(map(len, runs))
        if width != len(header):
            raise ValueError(f"line {len(lines) + 1} has {width} cells, header {len(header)}")
        line = sep.join([_run_text(run, sep) for run in runs])
        if line.count(sep) != width - 1 or "\n" in line or "\r" in line:
            cells = [_cell(c) for run in runs for c in run]
            for j, cell in enumerate(cells):
                if sep in cell or "\n" in cell or "\r" in cell:
                    raise ValueError(
                        f"cell {cell!r} (line {len(lines) + 1}, field {j + 1}) holds the "
                        f"separator {sep!r} or a line break"
                    )
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_text(path, text):
    """Write already rendered text, so a rendering error creates no file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class MatrixFile:
    """Parsed TSV matrix: values and identifiers."""

    values: np.ndarray       # (r, c), NaN where NA
    row_ids: list            # list of str, or None without a #id column
    col_ids: list            # list of str


def read_matrix_tsv(path, allow_na=False):
    """Parse a TSV matrix file.

    Valid input is parsed a row at a time; the cell-by-cell scan runs only
    to locate an error.  Values are bitwise those of ``float()`` on each
    cell.

    Parameters
    ----------
    path : str
    allow_na : bool
        Whether literal ``NA`` cells are legal (response files only).

    Returns
    -------
    MatrixFile

    Raises
    ------
    ParseError
        Ragged rows, unparseable or non-finite numbers, missing header or
        data; coordinates are 1-based file positions of the first error.
    NaInCovariates
        An NA cell when ``allow_na`` is false.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").rstrip("\r").split("\t") for ln in fh]
    while rows and rows[-1] == [""]:
        rows.pop()
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0]
    has_ids = header[0] == "#id"
    col_ids = header[1:] if has_ids else header
    if not col_ids:
        raise ParseError(f"{path}: header has no column identifiers")
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: header but no data rows")
    values = _parse_rows(body, len(header), int(has_ids), allow_na)
    if values is None:
        _raise_first_error(path, body, len(header), int(has_ids), allow_na)
        raise RuntimeError(f"{path}: the row parse failed where the cell scan finds no error")
    row_ids = [row[0] for row in body] if has_ids else None
    return MatrixFile(values=values, row_ids=row_ids, col_ids=list(col_ids))


def _parse_rows(body, width, start, allow_na):
    """The data rows as a float array, or None when some row or cell is illegal."""
    values = np.empty((len(body), width - start))
    na_count = np.zeros(len(body), dtype=np.intp)
    for i, row in enumerate(body):
        if len(row) != width:
            return None
        cells = row[start:]
        if allow_na and "NA" in cells:
            na_count[i] = cells.count("NA")
            cells = ["nan" if c == "NA" else c for c in cells]
        try:
            values[i] = cells
        except ValueError:
            return None
    # each NA cell parsed as NaN, so a row is legal when its NA cells are
    # its only non-finite values
    if not np.array_equal(np.count_nonzero(np.isfinite(values), axis=1), width - start - na_count):
        return None
    return values


def _raise_first_error(path, body, width, start, allow_na):
    """Raise the error of the first illegal row or cell in file order."""
    for i, row in enumerate(body):
        line_no = i + 2
        if len(row) != width:
            raise ParseError(
                f"{path}: expected {width} fields, found {len(row)}", row=line_no
            )
        for c, cell in enumerate(row[start:]):
            if cell == "NA":
                if not allow_na:
                    raise NaInCovariates(
                        f"{path}: NA not allowed here", row=line_no, col=c + 1
                    )
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {cell!r} as a number",
                    row=line_no,
                    col=c + 1,
                ) from None
            if not np.isfinite(v):
                raise ParseError(
                    f"{path}: non-finite value {cell!r}", row=line_no, col=c + 1
                )


def write_matrix_tsv(path, values, col_ids=None, row_ids=None):
    """Write a matrix as TSV, NaN as ``NA``; a #id column only when row_ids given."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {values.shape}")
    if col_ids is None:
        col_ids = [f"col{j + 1}" for j in range(values.shape[1])]
    header = [str(s) for s in col_ids]
    rows = (row.tolist() for row in values)
    if row_ids is not None:
        if len(row_ids) != len(values):
            raise ValueError(f"{len(row_ids)} row ids for {len(values)} rows")
        header = ["#id", *header]
        rows = ([str(rid), *row] for rid, row in zip(row_ids, rows))
    write_text(path, render_table(header, rows))


def write_fit_json(path, result, tissue_names):
    """Persist a FitResult; see read_fit_json for the inverse.

    A non-finite number raises ValueError before the file is opened.
    """
    post = result.posteriors
    if len(tissue_names) != len(post):
        raise ValueError(f"{len(tissue_names)} names for {len(post)} posteriors")
    doc = {
        "params": {
            "tau1": result.params.tau1,
            "beta": list(result.params.beta),
            "eta": result.params.eta,
            "sigma2": result.params.sigma2,
        },
        "posteriors": [
            {"tissue": str(name), "h": h, "post_mean": post_mean, "log_bf": log_bf,
             "log_odds": log_odds}
            for name, h, post_mean, log_bf, log_odds in zip(
                tissue_names, post.h.tolist(), post.post_mean.tolist(),
                post.log_bf.tolist(), post.log_odds.tolist(),
            )
        ],
        "loglik_trace": list(result.loglik_trace),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    write_text(path, json.dumps(doc, allow_nan=False) + "\n")


def _numbers(values, path, field):
    """A nonempty JSON list of finite numbers as a float64 array, else ParseError or NonFinite."""
    # exact types: a string or a boolean (bool subclasses int) is not a number
    if type(values) is not list or not values or not set(map(type, values)) <= {int, float}:
        raise ParseError(f"{path}: {field}: expected a nonempty list of JSON numbers")
    out = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"{path}: {field} is not finite")
    return out


def _contradictions(h, post_mean, log_bf, log_odds, prior):
    """(m, 3) bool: post_mean nonzero at h = 0; log_odds off log_bf + prior (the
    prior log odds log(tau0/tau1)) beyond roundoff; h off expit(-log_odds)."""
    with np.errstate(over="ignore"):
        off = np.abs(log_odds - (log_bf + prior)) > 1e-12 * (1.0 + np.abs(log_bf) + abs(prior))
    return np.column_stack(((h == 0.0) & np.any(post_mean != 0.0, axis=1), off,
                            np.abs(h - expit(-log_odds)) > 1e-9))


def _check_entry(entry, path, shape, prior):
    """Raise the error of one report entry's first fault, if it has one."""
    name = entry["tissue"]
    if type(name) is not str:
        raise ParseError(f"{path}: tissue = {name!r} is not a JSON string")
    h, log_bf, log_odds = _numbers(
        [entry["h"], entry["log_bf"], entry["log_odds"]], path, f"tissue {name!r} summary"
    ).tolist()
    if not 0.0 <= h <= 1.0:
        raise ParseError(f"{path}: tissue {name!r} has h = {h!r} outside [0, 1]")
    post_mean = _numbers(entry["post_mean"], path, f"tissue {name!r} post_mean")
    if post_mean.shape != shape:
        raise ParseError(
            f"{path}: tissue {name!r} has post_mean of shape {post_mean.shape}, "
            f"beta has {shape}"
        )
    with np.errstate(over="ignore"):
        cond = post_mean / h if h > 0.0 else np.zeros_like(post_mean)
    if not np.all(np.isfinite(cond)):
        raise NonFinite(f"{path}: tissue {name!r} has post_mean / h beyond float range")
    bad = _contradictions(h, post_mean[None], log_bf, log_odds, prior)[0]
    if bad.any():
        what = ("nonzero post_mean at h = 0", "log_odds off log_bf + log(tau0/tau1)",
                "h off expit(-log_odds)")[int(np.argmax(bad))]
        raise ParseError(f"{path}: tissue {name!r} has {what}")


def _posteriors(entries, path, params):
    """Names and posterior table of all report entries, checked in one stacked pass.

    Only when that pass finds a fault are the entries walked one at a time,
    so the error names the first bad entry.
    """
    shape, prior = params.beta.shape, math.log(params.tau0) - math.log(params.tau1)
    try:
        names = [entry["tissue"] for entry in entries]
        summaries = [(entry["h"], entry["log_bf"], entry["log_odds"]) for entry in entries]
        post_means = [entry["post_mean"] for entry in entries]
        # exact types, as in _numbers
        ok = (
            set(map(type, names)) == {str}
            and set(map(type, itertools.chain.from_iterable(summaries))) <= {int, float}
            and set(map(type, post_means)) == {list}
            and set(map(len, post_means)) == {shape[0]}
            and set(map(type, itertools.chain.from_iterable(post_means))) <= {int, float}
        )
        if ok:
            summary = np.array(summaries, dtype=np.float64)
            h, log_bf, log_odds = summary.T
            post_mean = np.array(post_means, dtype=np.float64)
            with np.errstate(over="ignore"):
                cond = np.divide(
                    post_mean, h[:, None], out=np.zeros_like(post_mean), where=h[:, None] > 0.0
                )
            ok = bool(
                np.isfinite(summary).all() and ((h >= 0.0) & (h <= 1.0)).all()
                and np.isfinite(post_mean).all() and np.isfinite(cond).all()
                and not _contradictions(h, post_mean, log_bf, log_odds, prior).any()
            )
    except (KeyError, TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        for entry in entries:
            _check_entry(entry, path, shape, prior)
        raise RuntimeError(f"{path}: the stacked check failed where no entry is at fault")
    return names, posterior_table(h, post_mean, cond, log_bf, log_odds)


def read_fit_json(path):
    """Load a fit report.

    Returns
    -------
    (result, tissue_names) : FitResult, list of str
        ``result.posteriors`` is the read-only record array of
        :func:`~ebshrink.posterior.posterior_table`, one row per report
        entry in file order; ``result.betahat`` is None.

    The conditional means are reconstructed as post_mean / h; when h
    underflows to zero the conditional mean is unrecoverable and zeros
    are stored (post_mean is zero there too).  Earlier versions floored eta
    alone; a report with eta/sigma2 below R_FLOOR loads with eta raised to
    R_FLOOR * sigma2, and its post_mean (so its predictions) as written.

    Raises
    ------
    ParseError
        Malformed JSON, missing or mistyped fields (numbers and vector
        entries must be JSON numbers, ``tissue`` a JSON string,
        ``iterations`` a JSON integer, ``converged`` a JSON boolean), a
        tau1 outside [0, 1], a negative eta, an empty beta, no posteriors,
        an h outside [0, 1], a post_mean whose length differs from beta's,
        posterior fields that contradict each other (see _contradictions),
        an empty trace, or an iteration count that differs from the length
        of the trace.
    NonFinite
        Non-finite parameters, posterior summaries or log-likelihoods, or a
        conditional mean post_mean / h that overflows.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        fields = doc["params"]
        tau1, eta, sigma2 = _numbers(
            [fields["tau1"], fields["eta"], fields["sigma2"]], path, "tau1, eta or sigma2"
        ).tolist()
        if not 0.0 <= tau1 <= 1.0:
            raise ParseError(f"{path}: tau1 = {tau1!r} outside [0, 1]")
        if eta < 0.0:
            raise ParseError(f"{path}: eta = {eta!r} is negative")
        beta = _numbers(fields["beta"], path, "beta")
        params = PriorParams(tau1=tau1, beta=beta, eta=eta, sigma2=sigma2)
        if not doc["posteriors"]:
            raise ParseError(f"{path}: no posteriors")
        names, posteriors = _posteriors(doc["posteriors"], path, params)
        # a fit ends on an E-step, so its trace holds at least that entry
        trace = _numbers(doc["loglik_trace"], path, "loglik_trace")
        iterations, converged = doc["iterations"], doc["converged"]
        if type(iterations) is not int:
            raise ParseError(f"{path}: iterations = {iterations!r} is not a JSON integer")
        if type(converged) is not bool:
            raise ParseError(f"{path}: converged = {converged!r} is not a JSON boolean")
        if trace.shape != (iterations,):
            raise ParseError(
                f"{path}: iterations = {iterations} but loglik_trace has shape {trace.shape}"
            )
        result = FitResult(
            params=params,
            posteriors=posteriors,
            loglik_trace=trace,
            iterations=iterations,
            converged=converged,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed fit report ({exc})") from exc
    return result, names
