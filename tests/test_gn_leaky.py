"""`gauss_newton.gn_leaky`: the closed-form kn x kn GN of a one-hidden
Leaky-ReLU network against the per-unit Kronecker sum it replaces, the
finite-difference Jacobian Gram entry by entry, its activation slopes, and
the dimension cap."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gn_lens import NetworkSpec, gauss_newton, gn_from_jacobian, gn_leaky, init
from gn_lens.errors import DimensionError
from gn_lens.linalg import DEFAULT_DIM_CAP


def kron_reference(w, v, x, alpha, lam=None):
    """Sum over hidden units i of (Lam_i X^T X Lam_i) kron (w_i w_i^T), plus
    Gamma kron I_k, where Gamma sums u_i u_i^T with u_i = Lam_i (v_i X).
    Lam_i is diag(lam[i]), by default 1 where v_i X > 0 and alpha elsewhere."""
    k, m = w.shape
    n = x.shape[1]
    z = v @ x
    if lam is None:
        lam = np.where(z > 0, 1.0, alpha)
    xtx = x.T @ x
    g = np.zeros((k * n, k * n))
    gamma = np.zeros((n, n))
    for i in range(m):
        a_i = lam[i][:, None] * xtx * lam[i][None, :]
        g += np.kron(a_i, np.outer(w[:, i], w[:, i]))
        u = lam[i] * z[i]
        gamma += np.outer(u, u)
    g += np.kron(gamma, np.eye(k))
    return g, gamma


def assert_entrywise(actual, expected, rtol):
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


sizes = st.integers(min_value=1, max_value=11)


@given(d=sizes, n=sizes, k=sizes, m=sizes,
       alpha=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
       zero_columns=st.lists(st.booleans(), min_size=11, max_size=11),
       seed=st.integers(min_value=0, max_value=2**16))
@example(d=1, n=1, k=1, m=1, alpha=0.0, zero_columns=[True] * 11, seed=0)
@example(d=3, n=7, k=4, m=5, alpha=0.01, zero_columns=[False, True] * 5 + [False],
         seed=1)
@settings(max_examples=80, deadline=None)
def test_matches_the_per_unit_kron_sum(d, n, k, m, alpha, zero_columns, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    x[:, np.array(zero_columns[:n])] = 0.0  # z = 0 ties take the slope alpha
    v = rng.standard_normal((m, d))
    w = rng.standard_normal((k, m))
    gn, gamma = gn_leaky(w, v, x, alpha)
    expected_gn, expected_gamma = kron_reference(w, v, x, alpha)
    assert gn.matrix.shape == (k * n, k * n)
    assert_entrywise(gn.matrix, expected_gn, 1e-12)
    assert_entrywise(gamma, expected_gamma, 1e-12)
    assert np.array_equal(gn.matrix, gn.matrix.T)
    assert np.array_equal(gamma, gamma.T)


def test_equals_the_jacobian_gram_in_sample_output_order():
    # Rows are stacked sample-major, output-minor, as in the finite-difference
    # Jacobian; an equal spectrum would not show a permuted order.
    spec = NetworkSpec(kind="leaky_one_hidden", dims=(5, 9, 2), alpha=0.01)
    params = init(spec, seed=13)
    x = np.random.default_rng(12).standard_normal((5, 15))
    exact, _ = gn_leaky(params.layers[1], params.layers[0], x, 0.01)
    oracle = gn_from_jacobian(spec, params, x, mode="finite_difference",
                              include_n_factor=False)
    assert oracle.matrix.shape == exact.matrix.shape == (30, 30)
    assert_entrywise(exact.matrix, oracle.matrix, 1e-8)


class TestUnitPatterns:
    """gn_leaky's slope of unit i on sample j: 1 where v_i x_j > 0, alpha
    elsewhere, a tie v_i x_j = 0 included."""

    def test_alpha_one_all_ones(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((3, 2))
        x = rng.standard_normal((2, 5))
        _, gamma = gn_leaky(rng.standard_normal((2, 3)), v, x, alpha=1.0)
        assert_entrywise(gamma, (v @ x).T @ (v @ x), 1e-12)

    def test_positive_data_identity(self):
        v = np.abs(np.random.default_rng(8).standard_normal((3, 2)))
        x = np.abs(np.random.default_rng(9).standard_normal((2, 4)))
        _, gamma = gn_leaky(np.ones((2, 3)), v, x, alpha=0.01)
        assert_entrywise(gamma, (v @ x).T @ (v @ x), 1e-12)

    def test_a_tie_takes_the_slope_alpha(self):
        v = np.array([[1.0, -1.0], [0.5, 2.0]])
        x = np.array([[1.0, 2.0, -1.0], [1.0, 0.5, 3.0]])
        w = np.array([[1.0, 2.0], [-1.0, 0.5]])
        # v @ x = [[0, 1.5, -4], [2.5, 2, 5.5]]: unit 0 ties on sample 0.
        assert (v @ x)[0, 0] == 0.0
        lam = np.array([[0.25, 1.0, 0.25], [1.0, 1.0, 1.0]])
        gn, gamma = gn_leaky(w, v, x, alpha=0.25)
        expected_gn, expected_gamma = kron_reference(w, v, x, 0.25, lam)
        assert_entrywise(gn.matrix, expected_gn, 1e-12)
        assert_entrywise(gamma, expected_gamma, 1e-12)
        lam[0, 0] = 1.0
        slope_one, _ = kron_reference(w, v, x, 0.25, lam)
        assert not np.allclose(gn.matrix, slope_one)


def test_cap_is_checked_before_any_work():
    k, n = 73, 137  # kn = 10,001
    assert k * n == DEFAULT_DIM_CAP + 1
    with pytest.raises(DimensionError, match="kn=10001"):
        gn_leaky(np.ones((k, 1)), np.ones((1, 1)), np.ones((1, n)), 0.1)


def test_cap_is_checked_before_the_activation_pattern(monkeypatch):
    class Numpy:
        """gauss_newton's numpy, with the activation pattern refused."""

        def __getattr__(self, name):
            if name == "where":
                raise AssertionError("gn_leaky went past the dimension cap")
            return getattr(np, name)

    monkeypatch.setattr(gauss_newton, "np", Numpy())
    k, n = 73, 137
    with pytest.raises(DimensionError, match="kn=10001"):
        gn_leaky(np.ones((k, 1)), np.ones((1, 1)), np.ones((1, n)), 0.1)
    with pytest.raises(AssertionError, match="past the dimension cap"):
        gn_leaky(np.ones((k, 1)), np.ones((1, 1)), np.ones((1, n - 1)), 0.1)
