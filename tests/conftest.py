"""Shared test plumbing: the acceptance-criteria result banner, one-tissue
panels, and the OpenBLAS thread counts set for a block."""

import contextlib

import numpy as np

from ebshrink import _parallel
from ebshrink.em import ResponsePanel

_CRITERION_LINES = []


def record_criterion(number, ok, detail):
    """Log one acceptance criterion outcome; echoed in the terminal summary."""
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    _CRITERION_LINES.append(line)
    print(line)


def one_tissue(y, mask=None):
    """A one-column ResponsePanel of the n responses y; mask None is complete."""
    col = np.asarray(y, dtype=np.float64)[:, None]
    return ResponsePanel(col, mask=None if mask is None else np.asarray(mask)[:, None])


@contextlib.contextmanager
def blas_threads(count):
    """Both bundled OpenBLAS pools (numpy's and scipy's) on ``count`` threads inside.

    The caller's counts are put back on exit.
    """
    pools = _parallel.openblas_pools()
    # numpy and scipy wheels each bundle an OpenBLAS; without both, a test
    # that varies the counts would check nothing
    assert len(pools) == 2
    saved = [get() for get, _ in pools]
    for _, put in pools:
        put(count)
    try:
        yield
    finally:
        for (_, put), old in zip(pools, saved):
            put(old)


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
