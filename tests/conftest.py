"""Shared test plumbing: the acceptance-criteria result banner, one-tissue panels."""

import numpy as np

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


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
