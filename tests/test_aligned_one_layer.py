"""Aligned init of a net with one layer, k x d: the layer is both the first
and the last, and takes the left basis of Q when k > d and the right one
when k < d. Either way it has the shape k x d and the singular values
asked for."""

import numpy as np
import pytest

from gn_lens import NetworkSpec, init_aligned_svd
from test_command_keys import run


@pytest.mark.parametrize("d, k", [(5, 3), (3, 5), (4, 4), (6, 1), (1, 6)])
def test_a_lone_layer_has_its_shape_and_singular_values(d, k):
    spec = NetworkSpec(kind="linear_deep", dims=(d, k))
    values = np.arange(min(d, k), 0, -1.0)
    (w,) = init_aligned_svd(spec, explicit=[values], seed=3).layers
    assert w.shape == (k, d)
    np.testing.assert_allclose(np.linalg.svd(w, compute_uv=False), values,
                               rtol=1e-14)


def test_the_cli_analyzes_an_aligned_lone_layer_narrower_than_d(tmp_path):
    cfg = {"data": "synthetic", "d": "5", "n": "20", "seeds": "0",
           "kind": "linear_deep", "k": "3", "m": "4", "L": "1",
           "init": "aligned_svd"}
    assert run(tmp_path, "analyze", cfg) == 0
    assert (tmp_path / "out" / "analysis.csv").exists()
