"""One depth-bound evaluation per instance and one entry point to LAPACK's
symmetric eigensolver: `checkpoint_metrics` calls `depth_bounds` once, and
`psd_sqrt` takes its eigenpairs from `sym_eigendecompose` yet rounds exactly
as the plain ascending-order product does."""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    checkpoint_metrics,
    empirical_covariance,
    lift_conv,
    psd_sqrt,
    pseudo_condition_number,
    sym_eigendecompose,
    synthesize_gaussian,
)
from gn_lens import linalg, trainer
from gn_lens.bounds import depth_bounds
from gn_lens.network import Params, init, layer_products

SPECS = {
    "linear_deep": NetworkSpec(kind="linear_deep", dims=(6, 8, 7, 2)),
    "residual": NetworkSpec(kind="residual", dims=(6, 8, 8, 8, 2), beta=0.5),
    "linear_conv": NetworkSpec(kind="linear_conv", dims=(6,),
                               conv_layers=((2, 1, 3), (2, 2, 3))),
}


def counting(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_checkpoint_metrics_evaluates_the_depth_bounds_once(monkeypatch,
                                                            kind):
    spec = SPECS[kind]
    ds = synthesize_gaussian(d=6, n=40, covariance_spectrum=np.logspace(1, -1, 6),
                             seed=3)
    params = init(spec, seed=1)
    calls = counting(monkeypatch, trainer, "depth_bounds")
    metrics = checkpoint_metrics(spec, params, ds)
    assert len(calls) == 1
    if kind == "linear_conv":
        params = Params(layers=tuple(lift_conv(spec, params)))
    convex, maximum = depth_bounds(
        layer_products(params, spec.skip),
        pseudo_condition_number(sym_eigendecompose(empirical_covariance(ds))))
    assert metrics.kappa_sigma == convex.kappa_sigma == maximum.kappa_sigma
    assert metrics.bound_convex == convex.value
    assert metrics.bound_max == maximum.value
    assert metrics.terms == convex.terms


def test_psd_sqrt_makes_one_counted_eigensolve(monkeypatch):
    calls = counting(monkeypatch, linalg, "sym_eigendecompose")
    x = np.random.default_rng(0).standard_normal((5, 9))
    psd_sqrt(x @ x.T)
    assert len(calls) == 1


def tie_heavy_covariances():
    """Covariances with exact ties and zero eigenvalues, and generic ones."""
    rng = np.random.default_rng(7)
    out = []
    for d in (1, 2, 3, 5, 8, 17, 24, 40):
        for n in (1, 3, d, 2 * d + 1):
            x = rng.standard_normal((d, n))
            zero_rows = x.copy()
            zero_rows[: d // 2] = 0.0
            doubled = np.vstack([x[: (d + 1) // 2]] * 2)[:d]
            out += [x @ x.T / n, zero_rows @ zero_rows.T / n,
                    doubled @ doubled.T / n]
        c = rng.standard_normal((d, d))
        out += [np.kron(np.eye(2), c @ c.T), np.eye(d), np.zeros((d, d)),
                np.diag(np.repeat(rng.random((d + 1) // 2), 2)[:d])]
    return [0.5 * (m + m.T) for m in out]


def test_psd_sqrt_rounds_as_the_ascending_lapack_product():
    for m in tie_heavy_covariances():
        w, q = np.linalg.eigh(m)
        expected = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
        assert psd_sqrt(m).tobytes() == expected.tobytes()


def test_eigenvectors_pair_with_descending_eigenvalues():
    for m in tie_heavy_covariances():
        spec, q = sym_eigendecompose(m, want_vectors=True)
        w, lapack_q = np.linalg.eigh(m)
        assert spec.values.tobytes() == w[::-1].tobytes()
        # LAPACK's columns, reversed, laid out column-major.
        assert q.tobytes(order="A") == lapack_q[:, ::-1].tobytes(order="F")
        assert q.flags.f_contiguous
        scale = max(1.0, spec.max)
        assert np.allclose(m @ q, q * spec.values, atol=1e-12 * scale)
