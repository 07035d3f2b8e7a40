"""`checkpoint_metrics` builds each instance's partial products once and
shares them between the GN and both depth bounds; residual layers are
shifted without an identity matrix. Both must leave every number exactly
as the public builders, called one by one, give it."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gn_lens import (
    NetworkSpec,
    Params,
    bound_deep_convex,
    bound_deep_max,
    bound_residual_convex,
    bound_residual_max,
    checkpoint_metrics,
    empirical_covariance,
    forward,
    gn_linear,
    gn_residual,
    partial_product,
    prune_by_magnitude,
    pseudo_condition_number,
    sym_eigendecompose,
    synthesize_gaussian,
)
from gn_lens import bounds, gauss_newton, network
from gn_lens.errors import AssumptionError
from gn_lens.network import LINEAR_DEEP, RESIDUAL


def random_params(dims, seed):
    rng = np.random.default_rng(seed)
    return Params(layers=tuple(
        rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1)
    ))


def dataset(d, seed):
    return synthesize_gaussian(d=d, n=12,
                               covariance_spectrum=np.linspace(1.0, 3.0, d),
                               seed=seed)


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


widths = st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=7)


@given(kind=st.sampled_from([LINEAR_DEEP, RESIDUAL]), dims=widths,
       beta=st.sampled_from([0.0, 0.5]),
       seed=st.integers(min_value=0, max_value=2**16))
@example(kind=RESIDUAL, dims=[6, 8, 2, 8, 3], beta=0.5, seed=0)  # bottleneck
@example(kind=RESIDUAL, dims=[6, 8, 2, 8, 3], beta=0.0, seed=0)
@example(kind=LINEAR_DEEP, dims=[6, 8, 2, 8, 3], beta=0.0, seed=0)
@settings(max_examples=60, deadline=None)
def test_metrics_equal_the_public_builders(kind, dims, beta, seed):
    spec = NetworkSpec(kind=kind, dims=tuple(dims), beta=beta)
    params = random_params(dims, seed)
    ds = dataset(dims[0], seed)
    metrics = checkpoint_metrics(spec, params, ds)

    sigma = empirical_covariance(ds)
    if kind == LINEAR_DEEP:
        spectrum = gn_linear(params, sigma).spectrum()
        pair = (bound_deep_convex, bound_deep_max)
        args = (params, sigma)
    else:
        spectrum = gn_residual(params, beta, sigma).spectrum()
        pair = (bound_residual_convex, bound_residual_max)
        args = (params, beta, sigma)
    assert np.array_equal(metrics.spectrum.values, spectrum.values)
    assert same(metrics.kappa, pseudo_condition_number(spectrum))
    try:
        convex, maximum = (bound(*args) for bound in pair)
    except AssumptionError:
        assert math.isnan(metrics.bound_convex)
        assert math.isnan(metrics.bound_max)
        assert metrics.terms == ()
        assert same(metrics.kappa_sigma,
                    pseudo_condition_number(sym_eigendecompose(sigma)))
        return
    assert same(metrics.kappa_sigma, convex.kappa_sigma)
    assert same(metrics.bound_convex, convex.value)
    assert same(metrics.bound_max, maximum.value)
    assert metrics.terms == convex.terms


@pytest.mark.parametrize("kind", [LINEAR_DEEP, RESIDUAL])
def test_products_are_built_once_per_call(monkeypatch, kind):
    calls = []
    original = network.layer_products

    def spy(params, beta=0.0):
        calls.append(beta)
        return original(params, beta)

    # Every module that imports layer_products, so that no call escapes.
    for module in (network, gauss_newton, bounds):
        monkeypatch.setattr(module, "layer_products", spy)
    dims = (5, 7, 7, 7, 3)
    spec = NetworkSpec(kind=kind, dims=dims, beta=0.5)
    params = random_params(dims, seed=3)
    ds = dataset(dims[0], seed=3)
    checkpoint_metrics(spec, params, ds)
    checkpoint_metrics(spec, params, ds)
    assert calls == [0.0 if kind == LINEAR_DEEP else 0.5] * 2


def with_negative_zeros(w, order):
    """A copy of w in the given memory order with -0.0 at three entries."""
    w = np.array(w, order=order)
    w[0, 0] = -0.0  # on the diagonal
    w[-1, 0] = -0.0
    w[0, -1] = -0.0
    return w


def old_shift(w, beta):
    return w + beta * np.eye(*w.shape)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # signed zeros included


SHAPES = [(4, 4), (3, 5), (5, 3), (1, 1), (1, 4), (4, 1)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_shift_matches_the_identity_formula(shape, order, beta):
    rng = np.random.default_rng(sum(shape))
    w = with_negative_zeros(rng.standard_normal(shape), order)
    params = Params(layers=(w,))
    assert params.layers[0].flags[f"{order}_CONTIGUOUS"]
    shifted = partial_product(params, 1, 1, beta)
    assert_bitwise_equal(shifted, old_shift(w, beta))
    assert shifted.flags.c_contiguous


def test_shift_of_pruned_layers_matches_the_identity_formula():
    params = prune_by_magnitude(random_params([5, 6, 6, 4], seed=7), 0.5)
    assert any(np.signbit(w[w == 0]).any() for w in params.layers)
    for i, w in enumerate(params.layers, start=1):
        assert_bitwise_equal(partial_product(params, i, i, 0.5),
                             old_shift(w, 0.5))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_residual_forward_matches_the_identity_formula(order, beta):
    # Tall, square and wide layers.
    dims = (3, 5, 5, 4)
    rng = np.random.default_rng(11)
    layers = tuple(with_negative_zeros(w, order)
                   for w in random_params(dims, seed=11).layers)
    params = Params(layers=layers)
    spec = NetworkSpec(kind=RESIDUAL, dims=dims, beta=beta)
    x = rng.standard_normal((dims[0], 6))
    expected = x
    for w in layers:
        expected = old_shift(w, beta) @ expected
    assert_bitwise_equal(forward(spec, params, x), expected)
