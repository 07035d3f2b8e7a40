"""Tests for the dense spectral primitives.

The eigendecomposition is cross-checked against an independently coded
Jacobi-rotation eigensolver so the package never validates itself with the
same LAPACK call it wraps.
"""

import numpy as np
import pytest

from gn_lens import (
    RankPolicy,
    Spectrum,
    pseudo_condition_number,
    psd_sqrt,
    rank_sensitivity_sweep,
    sym_eigendecompose,
)
from gn_lens.errors import (
    DimensionError,
    PsdViolationError,
    RankZeroError,
    ValidationError,
)
from gn_lens.linalg import svdvals


def jacobi_eigenvalues(a, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotation eigensolver for symmetric matrices."""
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestSymEigendecompose:
    def test_diagonal(self):
        spec = sym_eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.values, [3.0, 2.0, 1.0])

    def test_identity(self):
        spec = sym_eigendecompose(np.eye(4))
        assert np.allclose(spec.values, np.ones(4))

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.standard_normal((10, 10))
            m = m + m.T
            spec = sym_eigendecompose(m)
            oracle = jacobi_eigenvalues(m)
            assert np.max(np.abs(spec.values - oracle)) < 1e-10

    def test_vectors_reconstruct(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 7))
        m = m + m.T
        spec, q = sym_eigendecompose(m, want_vectors=True)
        recon = (q * spec.values) @ q.T
        assert np.allclose(recon, 0.5 * (m + m.T), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            sym_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            sym_eigendecompose(np.zeros((2, 3)))


class TestSingularValues:
    def test_diagonal_with_sign(self):
        spec = Spectrum.from_values(svdvals(np.diag([2.0, -3.0])))
        assert np.allclose(spec.values, [3.0, 2.0])

    def test_zero_matrix(self):
        spec = Spectrum.from_values(svdvals(np.zeros((3, 3))))
        assert np.allclose(spec.values, 0.0)
        with pytest.raises(RankZeroError):
            pseudo_condition_number(spec)

    def test_squares_match_gram_eigenvalues(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 3))
        sv = svdvals(m)
        gram = sym_eigendecompose(m.T @ m)
        assert np.allclose(sv**2, gram.values[:3], atol=1e-10)


class TestSpectrum:
    def test_orders_values(self):
        spec = Spectrum.from_values([1.0, 3.0, 2.0])
        assert list(spec.values) == [3.0, 2.0, 1.0]
        assert spec.max == 3.0 and spec.min == 1.0

    def test_rejects_increasing(self):
        with pytest.raises(ValidationError):
            Spectrum(values=np.array([1.0, 2.0]))


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        sigma = m @ m.T
        root = psd_sqrt(sigma)
        err = np.linalg.norm(root @ root - sigma)
        assert err <= 1e-8 * np.linalg.norm(sigma)

    def test_rejects_negative(self):
        with pytest.raises(PsdViolationError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestRankPolicy:
    def test_analytic_rank(self):
        policy = RankPolicy.analytic(2)
        assert policy.select_rank(np.array([4.0, 2.0, 0.0])) == 2

    def test_analytic_rank_one(self):
        assert RankPolicy.analytic(1).select_rank(np.array([5.0, 0.0, 0.0])) == 1

    def test_relative_threshold_excludes_tail(self):
        policy = RankPolicy.relative(1e-12)
        spec = Spectrum.from_values([9.0, 3.0, 1e-16])
        assert pseudo_condition_number(spec, policy) == 3.0

    def test_zero_rank_raises(self):
        with pytest.raises(RankZeroError):
            RankPolicy.absolute(1.0).select_rank(np.array([0.5, 0.1]))

    def test_describe_round_trips_mode(self):
        assert RankPolicy.analytic(3).describe() == "analytic(3)"
        assert RankPolicy.relative(1e-6).describe().startswith("relative")


class TestPseudoConditionNumber:
    def test_with_analytic_rank(self):
        spec = Spectrum.from_values([4.0, 2.0, 0.0])
        assert pseudo_condition_number(spec, RankPolicy.analytic(2)) == 2.0

    def test_default_ignores_null_space(self):
        spec = Spectrum.from_values([4.0, 2.0, 1e-18])
        assert pseudo_condition_number(spec) == 2.0


class TestRankSensitivity:
    def test_hand_case(self):
        spec = Spectrum.from_values([4.0, 2.0, 1.0])
        assert rank_sensitivity_sweep(spec) == [(1, 1.0), (2, 2.0), (3, 4.0)]

    def test_flat_spectrum(self):
        spec = Spectrum.from_values([2.0, 2.0, 2.0])
        assert all(k == 1.0 for _, k in rank_sensitivity_sweep(spec))

    def test_stops_at_zero(self):
        spec = Spectrum.from_values([4.0, 0.0])
        assert rank_sensitivity_sweep(spec) == [(1, 1.0)]
