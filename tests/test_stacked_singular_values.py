"""The depth bounds take the singular values of every partial product of one
shape with one `svdvals` call on their stack, and every value and term is
bit for bit that of one call per product."""

import math

import numpy as np
import pytest

from gn_lens import bounds
from gn_lens.bounds import bound_one_hidden, depth_bounds
from gn_lens.errors import DimensionError
from gn_lens.network import (
    NetworkSpec,
    Params,
    init,
    layer_products,
    lift_conv,
)

# name -> (spec, beta); the dims run from d to k.
NETS = {
    "equal_widths": (NetworkSpec(kind="linear_deep", dims=(6, 8, 8, 8, 8, 3)),
                     0.0),
    "unequal_hidden": (NetworkSpec(kind="linear_deep",
                                   dims=(5, 7, 9, 7, 9, 3)), 0.0),
    "square": (NetworkSpec(kind="linear_deep", dims=(4, 4, 4, 4, 4)), 0.0),
    "square_residual": (NetworkSpec(kind="residual", dims=(5, 5, 5, 5, 5),
                                    beta=0.5), 0.5),
    # Width 4 < d: the products below it are rank-deficient.
    "bottleneck": (NetworkSpec(kind="linear_deep", dims=(6, 8, 4, 8, 8, 3)),
                   0.0),
    "conv": (NetworkSpec(kind="linear_conv", dims=(16,),
                         conv_layers=((3, 1, 3), (3, 3, 3), (2, 3, 5))), 0.0),
}


def products_of(name, seed=0):
    spec, beta = NETS[name]
    params = init(spec, seed=seed)
    if spec.kind == "linear_conv":
        params = Params(layers=tuple(lift_conv(spec, params)))
    return layer_products(params, beta)


def sigma_for(products, seed=0):
    d = products[1][0].shape[1]
    a = np.random.default_rng(seed).standard_normal((d, 2 * d))
    return a @ a.T / (2 * d)


def per_product_svdvals(m):
    """The reference: one LAPACK call per matrix of a stack."""
    if m.ndim == 2:
        return np.linalg.svd(m, compute_uv=False)
    return np.array([np.linalg.svd(p, compute_uv=False) for p in m])


@pytest.mark.parametrize("name", sorted(NETS))
def test_one_svdvals_call_per_product_shape(monkeypatch, name):
    products = products_of(name)
    shapes = {p.shape for p in products[0] + products[1]}
    assert len(shapes) < 2 * len(products[0])
    calls = []

    def counting(m):
        calls.append(m.shape)
        return per_product_svdvals(m)

    monkeypatch.setattr(bounds, "svdvals", counting)
    depth_bounds(products, bounds._kappa_sigma(sigma_for(products)))
    assert len(calls) == len(shapes)
    assert {c[1:] for c in calls} == shapes


def per_product_extremes(products):
    """The per-product loop, product by product and layer by layer:
    (sigma_max, sigma_min) above and below each ell, sigma_min = 0 where the
    Gram the GN reads (k x k above, d x d below) is singular."""
    eps = np.finfo(np.float64).eps
    extremes = []
    for above, below in zip(*products):
        pair = []
        for p, gram in ((above, above.shape[0]), (below, below.shape[1])):
            s = np.linalg.svd(p, compute_uv=False)
            singular = s.size < gram or s[-1] <= max(p.shape) * eps * s[0]
            pair.append((s[0], 0.0 if singular else s[-1]))
        extremes.append(pair)
    return extremes


def kappa2(smax, smin):
    return (smax / smin) ** 2 if smin else math.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(NETS))
def test_stacked_bounds_equal_a_per_product_loop(monkeypatch, name, seed):
    products = products_of(name, seed)
    sigma = sigma_for(products, seed)
    stacked = depth_bounds(products, bounds._kappa_sigma(sigma))
    # Each term reads its own products, also where an above and a below
    # product share a stack (k = m = d). repr gives each float's shortest
    # round-trip form, so equal reprs are equal bits.
    got = [(t.kappa2_above, t.kappa2_below, t.sig2min_above,
            t.sig2min_below) for t in stacked[0].terms]
    want = [(kappa2(*a), kappa2(*b), a[1] ** 2, b[1] ** 2)
            for a, b in per_product_extremes(products)]
    assert repr(got) == repr(want)
    monkeypatch.setattr(bounds, "svdvals", per_product_svdvals)
    assert repr(stacked) == repr(depth_bounds(products,
                                              bounds._kappa_sigma(sigma)))


@pytest.mark.parametrize("w_shape, v_shape, d_sigma", [
    ((2, 3), (4, 5), 5),  # W's columns are not V's rows
    ((2, 4), (4, 5), 7),  # sigma is not d x d
    ((2, 4), (4, 5), 4),
])
def test_one_hidden_bound_refuses_mismatched_shapes(w_shape, v_shape,
                                                    d_sigma):
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        bound_one_hidden(rng.standard_normal(w_shape),
                         rng.standard_normal(v_shape), np.eye(d_sigma))
