"""Tests for the analytic condition-number bounds, including hand-evaluated
cases and formula oracles computed independently in the test."""

import math

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    TeacherSpec,
    bound_deep_convex,
    bound_deep_max,
    bound_functional_hessian,
    bound_gaussian_asymptotic,
    bound_gaussian_nonasymptotic,
    bound_leaky,
    bound_one_hidden,
    bound_residual_convex,
    bound_residual_max,
    functional_hessian_spectrum,
    gn_leaky,
    gn_linear,
    init,
    init_aligned_svd,
    pseudo_condition_number,
    residual_product_bound,
)
from gn_lens.errors import AssumptionError, DegenerateDataError
from gn_lens.linalg import RankPolicy


class TestOneHiddenBound:
    def test_identity_case(self):
        report = bound_one_hidden(np.eye(2), np.eye(2), np.eye(2))
        assert np.isclose(report.value, 1.0)
        assert np.isclose(report.terms[0].gamma_l, 0.5)

    def test_hand_evaluation(self):
        # sigma(W) = {2, 1}, sigma(V) = {3, 1}, white covariance:
        # (4 + 9) / (1 + 1) = 6.5
        w = np.diag([2.0, 1.0])
        v = np.diag([3.0, 1.0])
        report = bound_one_hidden(w, v, np.eye(2))
        assert np.isclose(report.value, 6.5)

    def test_dominates_exact_kappa(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d, m, k = 4, 9, 3
            v = rng.standard_normal((m, d)) / np.sqrt(d)
            w = rng.standard_normal((k, m)) / np.sqrt(m)
            sigma = np.eye(d)
            params = Params(layers=(v, w))
            kappa = pseudo_condition_number(
                gn_linear(params, sigma).spectrum(),
                RankPolicy.analytic(k * d),
            )
            assert kappa <= bound_one_hidden(w, v, sigma).value * (1 + 1e-10)

    def test_degenerate_layers(self):
        with pytest.raises(DegenerateDataError):
            bound_one_hidden(np.zeros((2, 3)), np.zeros((3, 2)), np.eye(2))


class TestDepthBounds:
    def test_single_layer_equals_kappa_sigma(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        sigma = m @ m.T
        params = Params(layers=(rng.standard_normal((3, 4)),))
        ks = pseudo_condition_number(
            __import__("gn_lens").sym_eigendecompose(sigma))
        assert np.isclose(bound_deep_convex(params, sigma).value, ks)
        assert np.isclose(bound_deep_max(params, sigma).value, ks)

    def test_two_layer_matches_one_hidden_bound(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((8, 4))
        w = rng.standard_normal((3, 8))
        sigma = np.eye(4)
        convex = bound_deep_convex(Params(layers=(v, w)), sigma).value
        expect = bound_one_hidden(w, v, sigma).value
        assert abs(convex - expect) < 1e-12 * expect

    def test_convex_below_max(self):
        for seed in range(50):
            spec = NetworkSpec(kind="linear_deep", dims=(4, 10, 10, 3))
            params = init(spec, seed=seed)
            sigma = np.eye(4)
            convex = bound_deep_convex(params, sigma).value
            maximum = bound_deep_max(params, sigma).value
            assert convex <= maximum * (1 + 1e-12)

    def test_gamma_weights_sum_to_one(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 8, 8, 2))
        params = init(spec, seed=7)
        report = bound_deep_convex(params, np.eye(3))
        assert np.isclose(sum(t.gamma_l for t in report.terms), 1.0)

    def test_rank_deficient_product_raises(self):
        params = Params(layers=(np.zeros((3, 3)), np.eye(3)))
        with pytest.raises(AssumptionError):
            bound_deep_convex(params, np.eye(3))


class TestResidualBounds:
    def test_beta_zero_equals_deep(self):
        spec = NetworkSpec(kind="residual", dims=(3, 6, 2))
        params = init(spec, seed=2)
        sigma = np.eye(3)
        assert (bound_residual_convex(params, 0.0, sigma).value
                == bound_deep_convex(params, sigma).value)
        assert (bound_residual_max(params, 0.0, sigma).value
                == bound_deep_max(params, sigma).value)

    def test_aligned_equal_spectra_uniform_gammas(self):
        spec = NetworkSpec(kind="residual", dims=(4, 4, 4, 4), beta=0.0)
        s = [2.0, 1.5, 1.0, 0.5]
        params = init_aligned_svd(spec, explicit=[s, s, s])
        report = bound_residual_convex(params, 0.0, np.eye(4))
        assert np.allclose([t.gamma_l for t in report.terms], 1 / 3)

    def test_aligned_beta_improves_max_bound(self):
        for seed in range(100):
            spec = NetworkSpec(kind="residual", dims=(4, 4, 4, 4), beta=1.0)
            params = init_aligned_svd(spec, seed=seed)
            sigma = np.eye(4)
            with_skip = bound_residual_max(params, 1.0, sigma).value
            without = bound_residual_max(params, 0.0, sigma).value
            assert with_skip <= without * (1 + 1e-10)


class TestResidualProductBound:
    def test_all_unit_kappas(self):
        spectra = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        for beta in (0.0, 0.3, 1.0):
            assert residual_product_bound(spectra, beta, 2) == 1.0

    def test_hand_evaluation(self):
        spectra = [[2.0, 1.0], [2.0, 1.0]]
        assert np.isclose(residual_product_bound(spectra, 0.0, 1), 4.0)
        assert np.isclose(residual_product_bound(spectra, 1.0, 1), 2.25)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(3)
        spectra = [np.abs(rng.standard_normal(4)) + 0.1 for _ in range(3)]
        grid = np.linspace(0.0, 2.0, 100)
        values = [residual_product_bound(spectra, b, 2) for b in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_max_bound_term_under_aligned_init(self):
        spec = NetworkSpec(kind="residual", dims=(4, 4, 4), beta=0.5)
        params = init_aligned_svd(spec, seed=4)
        spectra = [np.linalg.svd(w, compute_uv=False)
                   for w in params.layers]
        report = bound_residual_max(params, 0.5, np.eye(4))
        for term in report.terms:
            expect = residual_product_bound(spectra, 0.5, term.ell)
            got = term.kappa2_above * term.kappa2_below
            assert abs(got - expect) < 1e-10 * expect


class TestLeakyBound:
    def test_alpha_one_positive_single_unit(self):
        # With alpha=1 and one unit the bound collapses to the same
        # sum-of-extremes ratio as the one-hidden linear bound on X^T X.
        rng = np.random.default_rng(5)
        x = np.abs(rng.standard_normal((4, 3)))
        v = np.abs(rng.standard_normal((1, 4)))
        w = np.array([[2.0]])
        gn, gamma = gn_leaky(w, v, x, alpha=1.0)
        report = bound_leaky(w, x, 1.0, gamma)
        sx = np.linalg.svd(x, compute_uv=False)
        gspec = np.linalg.eigvalsh(gamma)
        expect = (sx[0] ** 2 * 4.0 + gspec[-1]) / (sx[-1] ** 2 * 4.0 + gspec[0])
        assert np.isclose(report.value, expect)

    def test_bound_holds_over_alpha_sweep(self):
        rng = np.random.default_rng(6)
        d, m, k, n = 8, 12, 2, 6  # n <= d and m >= n keep the bound valid
        x = rng.standard_normal((d, n))
        for alpha in (0.01, 0.1, 0.5, 1.0):
            for seed in range(10):
                r = np.random.default_rng(seed)
                v = r.standard_normal((m, d)) / np.sqrt(d)
                w = r.standard_normal((k, m)) / np.sqrt(m)
                gn, gamma = gn_leaky(w, v, x, alpha)
                kappa = pseudo_condition_number(
                    gn.spectrum(), RankPolicy.analytic(k * n))
                value = bound_leaky(w, x, alpha, gamma).value
                assert kappa <= value * (1 + 1e-10)

    def test_degenerate_denominator(self):
        x = np.random.default_rng(7).standard_normal((2, 50))  # n > d
        v = np.zeros((3, 2))
        w = np.zeros((1, 3))
        gn, gamma = gn_leaky(w, v, x, 0.01)
        with pytest.raises(DegenerateDataError):
            bound_leaky(w, x, 0.01, gamma)


class TestGaussianBounds:
    def test_symmetric_collapse(self):
        m, d = 64, 9
        got = bound_gaussian_nonasymptotic(m, d, d, 0.5, 0.5, t=0.0)
        expect = ((math.sqrt(m) + math.sqrt(d)) /
                  (math.sqrt(m) - math.sqrt(d))) ** 2
        assert np.isclose(got.value, expect)
        assert not got.vacuous

    def test_formula_oracle(self):
        m, d, k = 100, 10, 5
        sw2, sv2 = 1 / 100, 1 / 10
        t = 1.0
        got = bound_gaussian_nonasymptotic(m, d, k, sw2, sv2, t)
        num = (sw2 * (math.sqrt(m) + math.sqrt(k) + t) ** 2
               + sv2 * (math.sqrt(m) + math.sqrt(d) + t) ** 2)
        den = (sw2 * (math.sqrt(m) - math.sqrt(k) - t) ** 2
               + sv2 * (math.sqrt(m) - math.sqrt(d) - t) ** 2)
        assert np.isclose(got.value, num / den)
        assert np.isclose(got.confidence, max(0.0, 1 - 8 * math.exp(-0.5)))

    def test_vacuous_regime_flagged(self):
        got = bound_gaussian_nonasymptotic(16, 9, 9, 0.5, 0.5, t=10.0)
        assert got.vacuous and got.value == math.inf

    def test_asymptotic_symmetric(self):
        m, d = 400, 16
        got = bound_gaussian_asymptotic(m, d, d, 0.3, 0.3)
        y = math.sqrt(d / m)
        assert np.isclose(got, ((1 + y) / (1 - y)) ** 2)

    def test_asymptotic_wide_limit(self):
        got = bound_gaussian_asymptotic(10**9, 4, 4, 1.0, 1.0, kappa_sigma=2.5)
        assert abs(got - 2.5) < 1e-3

    def test_asymptotic_requires_wide(self):
        with pytest.raises(AssumptionError):
            bound_gaussian_asymptotic(8, 9, 3, 1.0, 1.0)


class TestFunctionalHessianBound:
    def test_orthogonal_residual(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = np.eye(3)
        v = np.zeros((3, 3))
        teacher = TeacherSpec(Z=-2.0 * q)  # WV - Z = 2 q, orthogonal x scalar
        assert np.isclose(bound_functional_hessian(w, v, teacher, np.eye(3)),
                          1.0)

    def test_scalar_equality(self):
        teacher = TeacherSpec(Z=np.array([[3.0]]))
        got = bound_functional_hessian(np.array([[1.0]]), np.array([[1.0]]),
                                       teacher, np.array([[2.0]]))
        assert np.isclose(got, 1.0)

    def test_dominates_exact_kappa(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k, m, d = 2, 5, 3
            w = rng.standard_normal((k, m))
            v = rng.standard_normal((m, d))
            z = rng.standard_normal((k, d))
            s = rng.standard_normal((d, d))
            sigma = s @ s.T
            teacher = TeacherSpec(Z=z)
            spec, _ = functional_hessian_spectrum(w, v, sigma, teacher)
            exact = spec.values[0] / spec.values[spec.values > 1e-10 *
                                                spec.values[0]].min()
            bound = bound_functional_hessian(w, v, teacher, sigma)
            assert exact <= bound * (1 + 1e-8)


class TestSelfBalancing:
    def test_symmetric_two_layer_gammas(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 3, 3))
        s = [2.0, 1.0, 0.5]
        params = init_aligned_svd(spec, explicit=[s, s])
        terms = bound_deep_convex(params, np.eye(3)).terms
        assert np.allclose([t.gamma_l for t in terms], 0.5)

    def test_mirrored_growth_and_decay(self):
        # Below-products: kappa^2 grows with depth while sigma_min^2 decays.
        spec = NetworkSpec(kind="linear_deep", dims=(16, 64, 64, 64, 64, 64,
                                                     64, 64, 8))
        params = init(spec, seed=10)
        terms = bound_deep_convex(params, np.eye(16)).terms
        k2b = [t.kappa2_below for t in terms]
        s2b = [t.sig2min_below for t in terms]
        ells = np.arange(len(terms))
        assert np.corrcoef(ells, k2b)[0, 1] > 0
        assert np.corrcoef(ells, s2b)[0, 1] < 0
