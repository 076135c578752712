"""What the benchmark reads of a fit's posteriors must keep its values.

perfbench/run.py and perfbench/workloads.py walk ``result.posteriors`` one
tissue at a time (``tp.h``, ``tp.post_mean``) and stack the rows back into
arrays.  The rows of the posterior table must give bitwise the table's
columns, and ``predict`` bitwise the product with the stacked columns, so
the benchmark's quality metrics read the same as the library's.
"""

import numpy as np
import pytest

from ebshrink.crossval import predict
from ebshrink.em import fit
from ebshrink.linalg import build_design
from ebshrink.simulate import SimConfig, simulate_setting


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def masked_fit():
    data = simulate_setting(SimConfig.for_setting(3, m=300, seed=41))
    return data.x, fit(build_design(data.x), data.panel)


def test_rows_stack_to_columns(masked_fit):
    _, res = masked_fit
    post = res.posteriors
    assert post.shape == (300,)
    assert np.array_equal(bits([tp.h for tp in post]), bits(post.h))
    stacked = np.column_stack([tp.post_mean for tp in post])
    assert np.array_equal(bits(stacked), bits(post.post_mean.T))


def test_table_is_read_only(masked_fit):
    post = masked_fit[1].posteriors
    with pytest.raises(ValueError, match="read-only"):
        post.h[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        post.post_mean[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        post[0].h = 0.5


def test_predict_is_the_product_with_stacked_rows(masked_fit):
    x, res = masked_fit
    probe = np.random.default_rng(42).standard_normal((40, x.shape[1]))
    stacked = np.column_stack([tp.post_mean for tp in res.posteriors])
    assert np.array_equal(bits(predict(probe, res)), bits(probe @ stacked))
