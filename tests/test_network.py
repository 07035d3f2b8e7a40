"""Tests for architecture specs, initializers, forwards, Toeplitz lifting
and pruning."""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    forward,
    init,
    init_aligned_svd,
    lift_conv,
    partial_product,
    prune_by_magnitude,
    toeplitz_from_filter,
    toeplitz_layer,
)
from gn_lens.errors import DimensionError, SpecError, ValidationError
from gn_lens.network import batch_norm, conv_forward, leaky_relu


class TestNetworkSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecError):
            NetworkSpec(kind="quadratic", dims=(2, 2))

    def test_rejects_single_width(self):
        with pytest.raises(SpecError):
            NetworkSpec(kind="linear_deep", dims=(4,))

    def test_one_hidden_needs_three_dims(self):
        with pytest.raises(SpecError):
            NetworkSpec(kind="leaky_one_hidden", dims=(4, 8, 2, 1))

    def test_conv_chain_validation(self):
        with pytest.raises(SpecError):
            NetworkSpec(kind="linear_conv", dims=(8,),
                        conv_layers=((2, 1, 3), (1, 3, 3)))

    def test_conv_lengths(self):
        spec = NetworkSpec(kind="linear_conv", dims=(10,),
                           conv_layers=((2, 1, 3), (1, 2, 4)))
        assert spec.conv_lengths() == [10, 8, 5]


class TestInit:
    def test_gaussian_sigma_zero(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 4, 2))
        params = init(spec, scheme="gaussian", sigma=0.0)
        assert all(np.all(w == 0) for w in params.layers)

    def test_kaiming_variance(self):
        spec = NetworkSpec(kind="linear_deep", dims=(100, 100))
        params = init(spec, scheme="kaiming_normal", seed=0)
        var = float(np.var(params.layers[0]))
        assert abs(var - 0.01) < 0.001

    def test_deterministic(self):
        spec = NetworkSpec(kind="linear_deep", dims=(5, 7, 2))
        a = init(spec, seed=3)
        b = init(spec, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    def test_shapes(self):
        spec = NetworkSpec(kind="linear_deep", dims=(4, 9, 3))
        params = init(spec)
        assert [w.shape for w in params.layers] == [(9, 4), (3, 9)]


class TestAlignedInit:
    def test_zero_singular_values_shift(self):
        spec = NetworkSpec(kind="residual", dims=(4, 4, 4), beta=0.5)
        params = init_aligned_svd(spec, explicit=[np.zeros(4), np.zeros(4)])
        for w in params.layers:
            shifted = np.linalg.svd(w + 0.5 * np.eye(4), compute_uv=False)
            assert np.allclose(shifted, 0.5)

    def test_explicit_shift(self):
        spec = NetworkSpec(kind="residual", dims=(2, 2, 2), beta=0.5)
        params = init_aligned_svd(spec, explicit=[[2.0, 1.0], [2.0, 1.0]])
        for w in params.layers:
            shifted = np.linalg.svd(w + 0.5 * np.eye(2), compute_uv=False)
            assert np.allclose(shifted, [2.5, 1.5], atol=1e-12)

    def test_beta_zero_kappa(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 3, 3))
        params = init_aligned_svd(spec, explicit=[[4.0, 2.0, 1.0],
                                                  [3.0, 2.0, 1.0]])
        sv = np.linalg.svd(params.layers[0], compute_uv=False)
        assert np.isclose(sv[0] / sv[-1], 4.0)

    def test_bases_align_across_layers(self):
        # Product of aligned layers has singular values equal to the product
        # of per-layer singular values (no interference between bases).
        spec = NetworkSpec(kind="linear_deep", dims=(3, 3, 3, 3))
        explicit = [[2.0, 1.0, 0.5], [3.0, 1.0, 0.25], [1.0, 1.0, 1.0]]
        params = init_aligned_svd(spec, explicit=explicit)
        prod = partial_product(params, 3, 1)
        sv = np.linalg.svd(prod, compute_uv=False)
        expect = np.sort(np.prod(np.array(explicit), axis=0))[::-1]
        assert np.allclose(sv, expect, atol=1e-10)


class TestForward:
    def test_identity_layers(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 3, 3))
        params = Params(layers=(np.eye(3), np.eye(3)))
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(forward(spec, params, x), x)

    def test_leaky_alpha_one_is_linear(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((6, 4))
        w = rng.standard_normal((2, 6))
        x = rng.standard_normal((4, 9))
        spec = NetworkSpec(kind="leaky_one_hidden", dims=(4, 6, 2), alpha=1.0)
        out = forward(spec, Params(layers=(v, w)), x)
        assert np.allclose(out, w @ v @ x, atol=1e-12)

    def test_residual_zero_weights(self):
        spec = NetworkSpec(kind="residual", dims=(3, 4, 2), beta=1.0)
        params = Params(layers=(np.zeros((4, 3)), np.zeros((2, 4))))
        x = np.arange(6.0).reshape(3, 2)
        expect = np.eye(2, 4) @ np.eye(4, 3) @ x
        assert np.array_equal(forward(spec, params, x), expect)

    def test_bn_normalizes_rows(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((3, 200)) * 50 + 7
        out = batch_norm(h)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    def test_dimension_check(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 2))
        params = Params(layers=(np.zeros((2, 3)),))
        with pytest.raises(DimensionError):
            forward(spec, params, np.zeros((4, 1)))


class TestLeakyRelu:
    def test_positive_passthrough(self):
        z = np.array([[1.0, -2.0]])
        assert np.array_equal(leaky_relu(z, 0.1), [[1.0, -0.2]])


class TestPartialProduct:
    def test_empty_range_is_identity(self):
        params = Params(layers=(np.ones((4, 3)), np.ones((2, 4))))
        assert np.array_equal(partial_product(params, 0, 1), np.eye(3))
        assert np.array_equal(partial_product(params, 1, 2), np.eye(4))

    def test_single_layer(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 5))
        params = Params(layers=(w,))
        assert np.array_equal(partial_product(params, 1, 1), w)

    def test_matches_naive_triple_product(self):
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal((4, 3))
        w2 = rng.standard_normal((5, 4))
        w3 = rng.standard_normal((2, 5))
        params = Params(layers=(w1, w2, w3))
        assert np.allclose(partial_product(params, 3, 1), w3 @ w2 @ w1,
                           atol=1e-12)

    def test_beta_shift(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((3, 3))
        w2 = rng.standard_normal((3, 3))
        params = Params(layers=(w1, w2))
        got = partial_product(params, 2, 1, beta=0.5)
        expect = (w2 + 0.5 * np.eye(3)) @ (w1 + 0.5 * np.eye(3))
        assert np.allclose(got, expect, atol=1e-12)


class TestToeplitz:
    def test_unit_filter_is_identity(self):
        assert np.array_equal(toeplitz_from_filter([1.0], 4), np.eye(4))

    def test_matches_sliding_window(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(3)
        x = rng.standard_normal(8)
        t = toeplitz_from_filter(w, 8)
        assert np.allclose(t @ x, np.correlate(x, w, mode="valid"), atol=1e-12)

    def test_single_channel_layer_reduces(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal(3)
        layer = toeplitz_layer(w.reshape(1, 1, 3), 7)
        assert np.array_equal(layer, toeplitz_from_filter(w, 7))

    def test_two_output_channels_stack(self):
        rng = np.random.default_rng(7)
        fib = rng.standard_normal((2, 1, 3))
        layer = toeplitz_layer(fib, 6)
        top = toeplitz_from_filter(fib[0, 0], 6)
        bottom = toeplitz_from_filter(fib[1, 0], 6)
        assert np.array_equal(layer, np.vstack([top, bottom]))

    def test_lifted_product_equals_direct_conv(self):
        spec = NetworkSpec(kind="linear_conv", dims=(12,),
                           conv_layers=((3, 1, 4), (2, 3, 3)))
        params = init(spec, seed=8)
        x = np.random.default_rng(9).standard_normal((12, 5))
        lifted = lift_conv(spec, params)
        product = lifted[1] @ lifted[0] @ x
        direct = conv_forward(spec, params, x)
        assert np.allclose(product, direct, atol=1e-12)


class TestPrune:
    def test_fraction_zero_identity_weights(self):
        rng = np.random.default_rng(10)
        params = Params(layers=(rng.standard_normal((3, 3)),))
        pruned = prune_by_magnitude(params, 0.0)
        assert np.array_equal(pruned.layers[0], params.layers[0])
        assert np.all(pruned.masks[0] == 1)

    def test_fraction_one_all_zero(self):
        rng = np.random.default_rng(11)
        params = Params(layers=(rng.standard_normal((4, 2)),))
        pruned = prune_by_magnitude(params, 1.0)
        assert np.all(pruned.layers[0] == 0)
        assert np.all(pruned.masks[0] == 0)

    def test_magnitude_order(self):
        params = Params(layers=(np.array([[1.0, -3.0, 2.0, 0.5]]),))
        pruned = prune_by_magnitude(params, 0.5)
        assert np.array_equal(pruned.layers[0], [[0.0, -3.0, 2.0, 0.0]])

    def test_masks_compose(self):
        params = Params(layers=(np.array([[1.0, -3.0, 2.0, 0.5]]),))
        once = prune_by_magnitude(params, 0.5)
        twice = prune_by_magnitude(once, 0.75)
        assert np.array_equal(twice.layers[0], [[0.0, -3.0, 0.0, 0.0]])
        assert np.array_equal(twice.masks[0], [[0.0, 1.0, 0.0, 0.0]])

    def test_rejects_out_of_range(self):
        params = Params(layers=(np.ones((2, 2)),))
        with pytest.raises(ValidationError):
            prune_by_magnitude(params, 1.5)

