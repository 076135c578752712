"""The package names the benchmark tracer wraps must exist.

perfbench/tracing.py replaces module attributes such as ``em._SuffStats``
and ``simulate.ols`` for the length of a traced run, and raises when one is
missing.  Entering its patch here makes a refactor that drops a traced name
fail the test suite rather than the benchmark.
"""

import os
import sys

from ebshrink import cli, em, simulate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_layer_targets_patch_and_restore():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    def fits():
        return em.fit, simulate.fit, cli.fit

    before = fits()
    with tracing.Patch(tracing.layer_targets(tracing.Tracer())):
        assert all(now is not old for now, old in zip(fits(), before))
    assert all(now is old for now, old in zip(fits(), before))
