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
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .em import FitResult
from .errors import NaInCovariates, NonFinite, ParseError
from .posterior import PriorParams, TissuePosterior


def _cell(c):
    if isinstance(c, float):  # numpy's float64 included; NaN is unequal to itself
        return float.__repr__(c) if c == c else "NA"
    return str(c)


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
        cells = [_cell(c) for c in row]
        if len(cells) != len(header):
            raise ValueError(f"line {len(lines) + 1} has {len(cells)} cells, header {len(header)}")
        line = sep.join(cells)
        if line.count(sep) != len(cells) - 1 or "\n" in line or "\r" in line:
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
        data; coordinates are 1-based file positions.
    NaInCovariates
        An NA cell when ``allow_na`` is false.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty file")
    rows = [ln.split("\t") for ln in lines]
    header = rows[0]
    has_ids = header[0] == "#id"
    col_ids = header[1:] if has_ids else header
    if not col_ids:
        raise ParseError(f"{path}: header has no column identifiers")
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: header but no data rows")
    width = len(header)
    row_ids = [] if has_ids else None
    values = np.empty((len(body), len(col_ids)))
    for i, row in enumerate(body):
        line_no = i + 2
        if len(row) != width:
            raise ParseError(
                f"{path}: expected {width} fields, found {len(row)}", row=line_no
            )
        if has_ids:
            row_ids.append(row[0])
            row = row[1:]
        for c, cell in enumerate(row):
            if cell == "NA":
                if not allow_na:
                    raise NaInCovariates(
                        f"{path}: NA not allowed here", row=line_no, col=c + 1
                    )
                values[i, c] = np.nan
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
            values[i, c] = v
    return MatrixFile(values=values, row_ids=row_ids, col_ids=list(col_ids))


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
    if len(tissue_names) != len(result.posteriors):
        raise ValueError(
            f"{len(tissue_names)} names for {len(result.posteriors)} posteriors"
        )
    doc = {
        "params": {
            "tau1": result.params.tau1,
            "beta": list(result.params.beta),
            "eta": result.params.eta,
            "sigma2": result.params.sigma2,
        },
        "posteriors": [
            {
                "tissue": str(name),
                "h": tp.h,
                "post_mean": list(tp.post_mean),
                "log_bf": tp.log_bf,
                "log_odds": tp.log_odds,
            }
            for name, tp in zip(tissue_names, result.posteriors)
        ],
        "loglik_trace": list(result.loglik_trace),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    write_text(path, json.dumps(doc, allow_nan=False) + "\n")


def _numbers(values, path, field):
    """A JSON list of finite numbers as a float64 array, else ParseError or NonFinite."""
    # exact types: a string or a boolean (bool subclasses int) is not a number
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ParseError(f"{path}: {field}: expected JSON numbers")
    out = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"{path}: {field} is not finite")
    return out


def read_fit_json(path):
    """Load a fit report.

    Returns
    -------
    (result, tissue_names) : FitResult, list of str

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
        ``iterations`` a JSON integer, ``converged`` a JSON boolean), no
        posteriors, an h outside [0, 1], a post_mean whose length differs
        from beta's, or an iteration count that differs from the length of
        the trace.
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
        beta = _numbers(fields["beta"], path, "beta")
        params = PriorParams(tau1=tau1, beta=beta, eta=eta, sigma2=sigma2)
        if not doc["posteriors"]:
            raise ParseError(f"{path}: no posteriors")
        names = []
        posteriors = []
        for entry in doc["posteriors"]:
            name = entry["tissue"]
            if type(name) is not str:
                raise ParseError(f"{path}: tissue = {name!r} is not a JSON string")
            names.append(name)
            h, log_bf, log_odds = _numbers(
                [entry["h"], entry["log_bf"], entry["log_odds"]], path, f"tissue {name!r} summary"
            ).tolist()
            if not 0.0 <= h <= 1.0:
                raise ParseError(f"{path}: tissue {name!r} has h = {h!r} outside [0, 1]")
            post_mean = _numbers(entry["post_mean"], path, f"tissue {name!r} post_mean")
            if post_mean.shape != params.beta.shape:
                raise ParseError(
                    f"{path}: tissue {name!r} has post_mean of shape {post_mean.shape}, "
                    f"beta has {params.beta.shape}"
                )
            with np.errstate(over="ignore"):
                cond = post_mean / h if h > 0.0 else np.zeros_like(post_mean)
            if not np.all(np.isfinite(cond)):
                raise NonFinite(f"{path}: tissue {name!r} has post_mean / h beyond float range")
            posteriors.append(TissuePosterior(h, post_mean, cond, log_bf, log_odds))
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
