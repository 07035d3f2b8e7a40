"""Tests for the exact GN constructions against the brute-force Jacobian
oracle, plus the functional Hessian block assembly."""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    TeacherSpec,
    empirical_covariance,
    functional_hessian_spectrum,
    gn_conv,
    gn_conv_shared,
    gn_from_jacobian,
    gn_leaky,
    gn_linear,
    gn_residual,
    init,
    lift_conv,
    pseudo_condition_number,
    sym_eigendecompose,
)
from gn_lens.data import Dataset, synthesize_gaussian
from gn_lens.errors import DimensionError, SpecError
from gn_lens.linalg import RankPolicy


def nonzero_part(values, reference_scale, tol=1e-9):
    v = np.asarray(values)
    return np.sort(v[v > tol * reference_scale])[::-1]


def match_nonzero_spectra(a, b, rtol):
    scale = max(a.max(initial=0.0), b.max(initial=0.0))
    av = nonzero_part(a, scale)
    bv = nonzero_part(b, scale)
    assert av.size == bv.size, f"nonzero counts differ: {av.size} vs {bv.size}"
    assert np.max(np.abs(av - bv) / np.abs(bv)) < rtol


class TestGnLinear:
    def test_single_layer_identity_kron(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        sigma = m @ m.T
        params = Params(layers=(rng.standard_normal((3, 4)),))
        gn = gn_linear(params, sigma)
        # L=1: the only term has empty above/below products.
        expect = np.kron(np.eye(3), sigma)
        assert np.allclose(gn.matrix, expect, atol=1e-10)

    def test_scalar_network(self):
        w, v, s = 2.0, 3.0, 1.5
        params = Params(layers=(np.array([[v]]), np.array([[w]])))
        gn = gn_linear(params, np.array([[s]]))
        assert np.isclose(gn.matrix[0, 0], s * (w**2 + v**2))

    def test_matches_analytic_jacobian(self):
        rng = np.random.default_rng(1)
        spec = NetworkSpec(kind="linear_deep", dims=(6, 8, 8, 3))
        params = init(spec, seed=1)
        ds = synthesize_gaussian(d=6, n=40, covariance_spectrum=np.ones(6),
                                 seed=2)
        sigma = empirical_covariance(ds)
        exact = gn_linear(params, sigma).spectrum()
        oracle = gn_from_jacobian(spec, params, ds.X,
                                  mode="analytic_linear").spectrum()
        match_nonzero_spectra(exact.values, oracle.values, 1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec(kind="linear_deep", dims=(4, 5, 2))
        params = init(spec, seed=3)
        x = rng.standard_normal((4, 12))
        sigma = empirical_covariance(Dataset(X=x))
        exact = gn_linear(params, sigma).spectrum()
        oracle = gn_from_jacobian(spec, params, x,
                                  mode="finite_difference").spectrum()
        match_nonzero_spectra(exact.values, oracle.values, 1e-6)

    def test_sigma_shape_mismatch(self):
        params = Params(layers=(np.ones((2, 3)),))
        with pytest.raises(DimensionError):
            gn_linear(params, np.eye(4))


class TestGnResidual:
    def test_beta_zero_reduces_to_linear(self):
        spec = NetworkSpec(kind="residual", dims=(4, 4, 4), beta=0.0)
        params = init(spec, seed=4)
        sigma = np.eye(4)
        a = gn_residual(params, 0.0, sigma).matrix
        b = gn_linear(params, sigma).matrix
        assert np.max(np.abs(a - b)) < 1e-12

    def test_zero_weights_beta_one(self):
        params = Params(layers=(np.zeros((3, 3)), np.zeros((3, 3))))
        identity = Params(layers=(np.eye(3), np.eye(3)))
        sigma = np.diag([3.0, 2.0, 1.0])
        a = gn_residual(params, 1.0, sigma).matrix
        b = gn_linear(identity, sigma).matrix
        assert np.allclose(a, b, atol=1e-12)

    def test_matches_jacobian_oracle(self):
        spec = NetworkSpec(kind="residual", dims=(3, 5, 5, 2), beta=0.7)
        params = init(spec, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 25))
        sigma = empirical_covariance(Dataset(X=x))
        exact = gn_residual(params, 0.7, sigma).spectrum()
        oracle = gn_from_jacobian(spec, params, x,
                                  mode="analytic_linear").spectrum()
        match_nonzero_spectra(exact.values, oracle.values, 1e-8)


class TestGnLeaky:
    def test_single_unit_positive_data(self):
        rng = np.random.default_rng(11)
        x = np.abs(rng.standard_normal((2, 3)))
        v = np.abs(rng.standard_normal((1, 2)))
        w = np.array([[1.7]])
        gn, gamma = gn_leaky(w, v, x, alpha=0.01)
        expect = (x.T @ x) * w[0, 0] ** 2 + x.T @ v.T @ v @ x
        assert np.allclose(gn.matrix, expect, atol=1e-12)
        assert np.allclose(gamma, x.T @ v.T @ v @ x, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        spec = NetworkSpec(kind="leaky_one_hidden", dims=(5, 9, 2), alpha=0.01)
        params = init(spec, seed=13)
        x = rng.standard_normal((5, 15))
        exact, _ = gn_leaky(params.layers[1], params.layers[0], x, 0.01)
        oracle = gn_from_jacobian(spec, params, x, mode="finite_difference",
                                  include_n_factor=False)
        match_nonzero_spectra(exact.spectrum().values,
                              oracle.spectrum().values, 1e-6)

    def test_alpha_one_kappa_matches_linear(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            spec = NetworkSpec(kind="leaky_one_hidden", dims=(4, 7, 2),
                               alpha=1.0)
            params = init(spec, seed=seed)
            x = rng.standard_normal((4, 10))
            leaky, _ = gn_leaky(params.layers[1], params.layers[0], x, 1.0)
            sigma = empirical_covariance(Dataset(X=x))
            linear = gn_linear(params, sigma)
            pol = RankPolicy.analytic(8)
            k_leaky = pseudo_condition_number(leaky.spectrum(), pol)
            k_linear = pseudo_condition_number(linear.spectrum(), pol)
            assert abs(k_leaky - k_linear) / k_linear < 1e-6


class TestGnFromJacobian:
    def test_scalar_single_layer(self):
        spec = NetworkSpec(kind="linear_deep", dims=(1, 1))
        params = Params(layers=(np.array([[2.0]]),))
        x = np.array([[1.0, -1.0, 2.0]])
        gn = gn_from_jacobian(spec, params, x, mode="analytic_linear")
        sigma = float(np.mean(x**2))
        assert np.isclose(gn.matrix[0, 0], sigma)

    def test_modes_agree(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 6, 2))
        params = init(spec, seed=15)
        x = np.random.default_rng(16).standard_normal((3, 8))
        a = gn_from_jacobian(spec, params, x, mode="analytic_linear").spectrum()
        b = gn_from_jacobian(spec, params, x,
                             mode="finite_difference").spectrum()
        match_nonzero_spectra(a.values, b.values, 1e-6)

    def test_rejects_analytic_mode_for_leaky(self):
        spec = NetworkSpec(kind="leaky_one_hidden", dims=(2, 3, 1))
        params = init(spec, seed=17)
        with pytest.raises(SpecError):
            gn_from_jacobian(spec, params, np.ones((2, 3)),
                             mode="analytic_linear")

    def test_bn_improves_conditioning_on_bad_scales(self):
        wins = 0
        seeds = range(20)
        ds = synthesize_gaussian(d=6, n=30,
                                 covariance_spectrum=np.logspace(2, -2, 6),
                                 seed=100)
        for seed in seeds:
            plain = NetworkSpec(kind="linear_deep", dims=(6, 10, 2))
            bn = NetworkSpec(kind="linear_bn_one_hidden", dims=(6, 10, 2))
            params = init(plain, seed=seed)
            pol = RankPolicy.analytic(12)
            k_plain = pseudo_condition_number(
                gn_from_jacobian(plain, params, ds.X).spectrum(), pol)
            k_bn = pseudo_condition_number(
                gn_from_jacobian(bn, params, ds.X).spectrum(), pol)
            wins += k_bn < k_plain
        assert wins >= 18


class TestGnConv:
    def test_unit_filter_identity_kron_sigma(self):
        rng = np.random.default_rng(18)
        m = rng.standard_normal((5, 5))
        sigma = m @ m.T
        spec = NetworkSpec(kind="linear_conv", dims=(5,),
                           conv_layers=((1, 1, 1),))
        params = Params(layers=(np.array([[[1.0]]]),))
        gn = gn_conv(lift_conv(spec, params), sigma)
        assert np.allclose(gn.matrix, np.kron(np.eye(5), sigma), atol=1e-10)

    def test_matches_gn_linear_on_lifted_layers(self):
        spec = NetworkSpec(kind="linear_conv", dims=(10,),
                           conv_layers=((2, 1, 3), (2, 2, 3)))
        params = init(spec, seed=19)
        sigma = np.eye(10)
        lifted = lift_conv(spec, params)
        a = gn_conv(lifted, sigma).matrix
        b = gn_linear(Params(layers=tuple(lifted)), sigma).matrix
        assert np.array_equal(a, b)

    def test_shared_matches_finite_difference_oracle(self):
        # The oracle differentiates conv_forward, which never builds a
        # Toeplitz matrix; the data covariance is far from the identity.
        rng = np.random.default_rng(21)
        d = 10
        for _ in range(8):
            f = int(rng.integers(1, 4))
            q = int(rng.integers(1, 5))
            spec = NetworkSpec(kind="linear_conv", dims=(d,),
                               conv_layers=((f, 1, q), (f, f, q)))
            params = init(spec, seed=int(rng.integers(1000)))
            x = rng.standard_normal((d, d)) @ rng.standard_normal((d, 20))
            sigma = empirical_covariance(Dataset(X=x))
            gn = gn_conv_shared(spec, params, sigma)
            exact = gn.spectrum()
            oracle = gn_from_jacobian(spec, params, x).spectrum()
            match_nonzero_spectra(exact.values, oracle.values, 1e-8)
            p = f * q + f * f * q
            policy = RankPolicy.default_for(p, p)
            assert gn.matrix.shape == (p, p)
            assert policy.select_rank(exact.values) == f * (2 * q - 1)

    def test_shared_rejects_other_kinds_and_shapes(self):
        spec = NetworkSpec(kind="linear_conv", dims=(6,),
                           conv_layers=((2, 1, 3),))
        params = init(spec, seed=22)
        with pytest.raises(DimensionError):
            gn_conv_shared(spec, params, np.eye(5))
        with pytest.raises(DimensionError):
            gn_conv_shared(spec, Params(layers=(np.ones((2, 1, 2)),)),
                           np.eye(6))
        dense = NetworkSpec(kind="linear_deep", dims=(6, 2))
        with pytest.raises(SpecError):
            gn_conv_shared(dense, init(dense, seed=22), np.eye(6))


class TestFunctionalHessian:
    def test_scalar_case(self):
        spec, h_f = functional_hessian_spectrum(
            np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
            TeacherSpec(Z=np.array([[3.0]])),
        )
        assert np.allclose(spec.values, [2.0, -2.0])
        assert np.allclose(sym_eigendecompose(h_f).values, [2.0, -2.0])

    def test_zero_residual(self):
        w = np.array([[1.0, 0.0]])
        v = np.array([[2.0], [0.5]])
        z = w @ v
        spec, _ = functional_hessian_spectrum(w, v, np.eye(1), TeacherSpec(Z=z))
        assert np.allclose(spec.values, 0.0)

    def test_matches_assembled_block_matrix(self):
        rng = np.random.default_rng(20)
        for seed in range(20):
            r = np.random.default_rng(seed)
            k, m, d = 2, 4, 3
            w = r.standard_normal((k, m))
            v = r.standard_normal((m, d))
            z = r.standard_normal((k, d))
            s = r.standard_normal((d, d))
            sigma = s @ s.T
            spec, h_f = functional_hessian_spectrum(w, v, sigma,
                                                    TeacherSpec(Z=z))
            dense = sym_eigendecompose(h_f)
            assert np.max(np.abs(spec.values - dense.values)) < 1e-8
