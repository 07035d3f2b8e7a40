"""The GN builders assemble and symmetrize in place, and the symmetry check
walks tiles: the results must equal the out-of-place formulas bit for bit,
and neither step may hold GN-sized temporaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gn_lens import (
    NetworkSpec,
    Params,
    gauss_newton,
    gn_conv_shared,
    gn_from_jacobian,
    gn_linear,
    gn_residual,
    init,
    psd_sqrt,
    sym_eigendecompose,
)
from gn_lens.errors import ValidationError
from gn_lens.linalg import _check_square_symmetric
from gn_lens.network import layer_products


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


def kron_sum_reference(params, beta, sigma):
    """The out-of-place assembly: a dense np.kron per layer summed into g,
    then 0.5 * (g + g.T)."""
    k = params.layers[-1].shape[0]
    d = params.layers[0].shape[1]
    s_half = psd_sqrt(sigma)
    g = np.zeros((k * d, k * d))
    for a, b in zip(*layer_products(params, beta)):
        g += np.kron(a @ a.T, s_half @ (b.T @ b) @ s_half)
    return 0.5 * (g + g.T)


widths = st.integers(min_value=1, max_value=40)


@given(k=widths, d=widths, L=st.integers(min_value=1, max_value=5),
       beta=st.sampled_from([0.0, 0.5]),
       hidden=st.lists(widths, min_size=4, max_size=4),
       seed=st.integers(min_value=0, max_value=2**16))
@example(k=40, d=40, L=3, beta=0.0, hidden=[40, 3, 1, 1], seed=0)
@example(k=40, d=7, L=2, beta=0.5, hidden=[9, 1, 1, 1], seed=1)
@example(k=7, d=40, L=5, beta=0.5, hidden=[1, 40, 12, 5], seed=2)
@settings(max_examples=40, deadline=None)
def test_product_family_equals_the_kron_sum(k, d, L, beta, hidden, seed):
    # kd > 256: several tiles, the last one ragged unless kd is a multiple.
    # The examples assemble in slabs of one block row, of 33 block rows
    # (the last one ragged), and of 33 rows within every block row.
    assume(k * d > 256)
    rng = np.random.default_rng(seed)
    dims = (d, *hidden[:L - 1], k)
    params = Params(layers=tuple(
        rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
        for i in range(L)))
    sigma = random_spd(rng, d)
    gn = gn_residual(params, beta, sigma) if beta else gn_linear(params, sigma)
    assert np.array_equal(gn.matrix, kron_sum_reference(params, beta, sigma))


@pytest.mark.parametrize("n", [65, 100])  # kn x kn (260), then p x p (280)
@pytest.mark.parametrize("include_n_factor", [True, False])
def test_gn_from_jacobian_equals_the_out_of_place_gram(n, include_n_factor):
    spec = NetworkSpec(kind="linear_deep", dims=(10, 20, 4))
    params = init(spec, seed=3)
    x = np.random.default_rng(4).standard_normal((10, n))
    jac = gauss_newton._stacked_jacobian_linear(spec, params, x)
    scale = 1.0 / n if include_n_factor else 1.0
    g = scale * (jac.T @ jac if jac.shape[1] <= jac.shape[0] else jac @ jac.T)
    gn = gn_from_jacobian(spec, params, x, mode="analytic_linear",
                          include_n_factor=include_n_factor)
    assert gn.matrix.shape[0] > 256
    assert np.array_equal(gn.matrix, 0.5 * (g + g.T))


def test_gn_conv_shared_equals_the_out_of_place_symmetrization(monkeypatch):
    # p = 8*1*5 + 8*8*5 = 360 filter taps: a full tile and a ragged one.
    spec = NetworkSpec(kind="linear_conv", dims=(20,),
                       conv_layers=((8, 1, 5), (8, 8, 5)))
    params = init(spec, seed=5)
    sigma = random_spd(np.random.default_rng(6), 20)
    grams = []
    monkeypatch.setattr(gauss_newton, "symmetrize_in_place", grams.append)
    gn = gn_conv_shared(spec, params, sigma)
    # The one-SYRK Gram is exactly symmetric, so it is returned unfolded.
    assert grams == []
    g = gn.matrix
    assert g.shape == (360, 360)
    assert g.tobytes() == g.T.copy().tobytes()
    assert np.array_equal(g, 0.5 * (g + g.T))


def symmetric_300(seed=7):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((300, 300))
    m = a + a.T
    return m, np.abs(m).max()


# (290, 270) lies in the ragged diagonal tile, (10, 290) in the ragged
# tile above the diagonal, whose mirror the check compares it with.
@pytest.mark.parametrize("r, c", [(290, 270), (10, 290)])
def test_asymmetry_above_the_tolerance_is_rejected(r, c):
    m, scale = symmetric_300()
    m[r, c] += 2e-10 * scale
    with pytest.raises(ValidationError, match="not symmetric"):
        sym_eigendecompose(m)


@pytest.mark.parametrize("r, c", [(290, 270), (10, 290)])
def test_asymmetry_within_the_tolerance_is_averaged(r, c):
    m, scale = symmetric_300()
    m[r, c] += 5e-11 * scale
    before = m.copy()
    expected = np.sort(np.linalg.eigvalsh(0.5 * (m + m.T)))[::-1]
    assert np.array_equal(sym_eigendecompose(m).values, expected)
    assert np.array_equal(m, before)


def test_an_exactly_symmetric_matrix_is_not_copied():
    m, _ = symmetric_300()
    assert _check_square_symmetric(m) is m


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak in bytes during the call."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_assembly_and_spectrum_hold_no_gn_sized_temporaries():
    # The depth_wide_io benchmark shape at L = 5: kd = 768, a 4.7 MB GN.
    # Out of place, each step peaked at about 2 GN sizes; in place at 1.3
    # (the GN itself plus tiles) and 0.25 (an isfinite mask and tiles).
    spec = NetworkSpec(kind="linear_deep", dims=(48, 96, 96, 96, 96, 16))
    params = init(spec, seed=8)
    sigma = random_spd(np.random.default_rng(9), 48)
    gn, peak = traced_peak(lambda: gn_linear(params, sigma))
    size = gn.matrix.nbytes
    assert peak / size < 1.5
    _, peak = traced_peak(gn.spectrum)
    assert peak / size < 0.5
