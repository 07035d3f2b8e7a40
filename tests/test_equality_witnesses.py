"""Where the convex depth bound is tight: at L = 2, Sigma = I and a hidden
width m >= max(d, k), the GN is W2 W2^T kron I_d + I_k kron W1^T W1, so its
extreme eigenvalues are sums of the layers' extreme squared singular values
and the convex bound equals kappa in exact arithmetic. The computed values
then agree to rounding, so they are compared at a tolerance: which of the
two is larger rests on the last bits, and the BLAS kernel decides them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gn_lens import (
    NetworkSpec,
    bound_deep_convex,
    gn_linear,
    init,
    pseudo_condition_number,
)
from gn_lens.network import LINEAR_DEEP


@st.composite
def witnesses(draw):
    """(spec, seed, init scheme) of a two-layer linear net with m >= d, k."""
    d = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=max(d, k), max_value=12))
    scheme = draw(st.sampled_from(["kaiming_normal", "xavier_normal"]))
    spec = NetworkSpec(kind=LINEAR_DEEP, dims=(d, m, k))
    return spec, draw(st.integers(min_value=0, max_value=2**16)), scheme


@given(witnesses())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_convex_bound_equals_kappa(witness):
    spec, seed, scheme = witness
    params = init(spec, scheme=scheme, seed=seed)
    sigma = np.eye(spec.dims[0])
    kappa = pseudo_condition_number(gn_linear(params, sigma).spectrum())
    bound = bound_deep_convex(params, sigma).value
    assert abs(bound / kappa - 1) <= 1e-10, (bound, kappa)
