"""`network.layer_products`: every partial product above and below a layer,
built in one pass each way, against `partial_product` one range at a time."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gn_lens import Params, network
from gn_lens.network import layer_products, partial_product


def random_params(dims, seed):
    rng = np.random.default_rng(seed)
    return Params(layers=tuple(
        rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1)
    ))


widths = st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=7)


@given(dims=widths, beta=st.sampled_from([0.0, 0.5]),
       seed=st.integers(min_value=0, max_value=2**16))
@example(dims=[6, 8, 2, 8, 3], beta=0.5, seed=0)  # a width-2 bottleneck
@example(dims=[6, 8, 2, 8, 3], beta=0.0, seed=0)
@settings(max_examples=60, deadline=None)
def test_matches_partial_product_for_every_layer(dims, beta, seed):
    params = random_params(dims, seed)
    L = len(dims) - 1
    above, below = layer_products(params, beta)
    assert len(above) == len(below) == L
    for ell in range(1, L + 1):
        # The above products keep partial_product's association exactly.
        assert np.array_equal(above[ell - 1],
                              partial_product(params, L, ell + 1, beta))
        # The below products are reassociated: equal up to rounding.
        expected = partial_product(params, ell - 1, 1, beta)
        assert below[ell - 1].shape == expected.shape
        scale = np.abs(expected).max()
        np.testing.assert_allclose(below[ell - 1], expected, rtol=1e-12,
                                   atol=1e-12 * scale)


@pytest.mark.parametrize("L", [1, 2, 5, 9])
def test_shifts_each_layer_once_per_pass(monkeypatch, L):
    params = random_params([4] + [6] * (L - 1) + [3], seed=L)
    ranges = []

    def spy(params, hi, lo, beta=0.0):
        ranges.append((hi, lo))
        return partial_product(params, hi, lo, beta)

    monkeypatch.setattr(network, "partial_product", spy)
    layer_products(params, 0.5)
    assert len(ranges) == 2 * (L - 1)
    assert all(hi == lo for hi, lo in ranges)
