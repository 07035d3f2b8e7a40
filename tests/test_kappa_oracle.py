"""κ against a 40-digit oracle: mpmath's `eigsy` at 40 significant digits
solves the same float64 GN that the library solves in float64.

Each instance is small (kd, kn or p <= 15), and κ runs from 1 to ~1e11 over
every evaluated kind (`linear_deep`, `residual` at β = 0.5,
`leaky_one_hidden`, `linear_conv` through its Toeplitz lifting) and over
`gn_conv_shared`. At the rank r that the library's default policy retains,
the oracle's λ_max/λ_r agrees with the library's κ within

    |Δκ| / κ <= C · κ · ε,   C = 4,

so a printed κ has about 15 − log10(κ) correct significant digits. The
worst C measured on these instances is 1.1 (`residual_flat`, κ = 30),
under OpenBLAS's default kernel and under `OPENBLAS_CORETYPE=Haswell` and
`Nehalem`; C = 4 leaves room for other kernels. For the evaluated kinds
the κ checked is the one `checkpoint_metrics`, and so the CLI, reports.
"""

import numpy as np
import pytest

import gn_lens as g
from gn_lens.linalg import RankPolicy
from gn_lens.network import NetworkSpec, Params, init
from gn_lens.trainer import checkpoint_metrics

mpmath = pytest.importorskip("mpmath")

C = 4.0
EPS = np.finfo(np.float64).eps


def data(d, n, decades, seed):
    """n Gaussian samples whose covariance spectrum spans `decades`."""
    return g.synthesize_gaussian(
        d=d, n=n, covariance_spectrum=np.logspace(0, -decades, d), seed=seed)


def deep(dims, decades, whitened=False):
    ds = data(dims[0], 40, decades, decades)
    if whitened:
        ds, _ = g.whiten(ds)
    spec = NetworkSpec(kind="linear_deep", dims=dims)
    params = init(spec, seed=decades)
    gn = g.gn_linear(params, g.empirical_covariance(ds))
    return gn.matrix, checkpoint_metrics(spec, params, ds).kappa


def residual(decades):
    ds = data(5, 40, decades, decades)
    spec = NetworkSpec(kind="residual", dims=(5, 5, 5, 3), beta=0.5)
    params = init(spec, seed=decades)
    gn = g.gn_residual(params, 0.5, g.empirical_covariance(ds))
    return gn.matrix, checkpoint_metrics(spec, params, ds).kappa


def leaky(decades):
    ds = data(6, 5, decades, decades)
    spec = NetworkSpec(kind="leaky_one_hidden", dims=(6, 8, 3), alpha=0.1)
    params = init(spec, seed=decades)
    v, w = params.layers
    gn, _ = g.gn_leaky(w, v, ds.X, 0.1)
    return gn.matrix, checkpoint_metrics(spec, params, ds).kappa


def conv_lifted(decades):
    ds = data(5, 40, decades, decades)
    spec = NetworkSpec(kind="linear_conv", dims=(5,),
                       conv_layers=((1, 1, 2), (1, 1, 2)))
    params = init(spec, seed=decades)
    gn = g.gn_conv(g.lift_conv(spec, params), g.empirical_covariance(ds))
    return gn.matrix, checkpoint_metrics(spec, params, ds).kappa


def conv_shared(scale, decades):
    """The first layer scaled by `scale`: κ grows as scale**-2. p = 12, of
    rank 6 (the taps of the end-to-end filters)."""
    ds = data(5, 40, decades, 3)
    spec = NetworkSpec(kind="linear_conv", dims=(5,),
                       conv_layers=((2, 1, 2), (2, 2, 2)))
    first, second = init(spec, seed=3).layers
    params = Params(layers=(first * scale, second))
    gn = g.gn_conv_shared(spec, params, g.empirical_covariance(ds))
    return gn.matrix, None


INSTANCES = {
    "deep_one_layer_whitened": lambda: deep((5, 3), 0, whitened=True),
    "deep_flat": lambda: deep((5, 4, 4, 3), 0),
    "deep_4_decades": lambda: deep((5, 4, 4, 3), 4),
    "deep_8_decades": lambda: deep((5, 4, 4, 3), 8),
    "residual_flat": lambda: residual(0),
    "residual_4_decades": lambda: residual(4),
    "residual_8_decades": lambda: residual(8),
    "leaky_flat": lambda: leaky(0),
    "leaky_12_decades": lambda: leaky(12),
    "leaky_20_decades": lambda: leaky(20),
    "conv_lifted_flat": lambda: conv_lifted(0),
    "conv_lifted_4_decades": lambda: conv_lifted(4),
    "conv_lifted_8_decades": lambda: conv_lifted(8),
    "conv_shared": lambda: conv_shared(1.0, 0),
    "conv_shared_scaled_1e-2": lambda: conv_shared(1e-2, 0),
    "conv_shared_scaled_1e-5": lambda: conv_shared(1e-5, 0),
}


def oracle_spectrum(matrix):
    """The eigenvalues of the float64 `matrix`, read exactly, to 40 digits,
    descending."""
    with mpmath.mp.workdps(40):
        values = mpmath.eigsy(mpmath.matrix(matrix.tolist()),
                              eigvals_only=True)
        return sorted(values, reverse=True)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_kappa_is_within_c_kappa_eps_of_the_oracle(name):
    matrix, printed = INSTANCES[name]()
    size = matrix.shape[0]
    assert size <= 15
    spectrum = g.sym_eigendecompose(matrix)
    kappa = g.pseudo_condition_number(spectrum)
    if printed is not None:
        assert printed == kappa
    r = RankPolicy.default_for(size, size).select_rank(spectrum.values)
    exact = oracle_spectrum(matrix)
    with mpmath.mp.workdps(40):
        # The retained λ_r is far above the cutoff, so r is not in doubt.
        assert exact[r - 1] > 1e3 * size * EPS * exact[0]
        kappa_exact = exact[0] / exact[r - 1]
        error = abs(mpmath.mpf(kappa) - kappa_exact) / kappa_exact
        assert error <= C * kappa_exact * EPS, (float(kappa_exact),
                                                float(error))


def test_the_instances_span_kappa_from_1_to_1e10():
    kappas = [g.pseudo_condition_number(g.sym_eigendecompose(make()[0]))
              for make in INSTANCES.values()]
    assert min(kappas) < 1.01 and max(kappas) > 1e10
