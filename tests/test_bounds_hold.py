"""Every depth bound that `checkpoint_metrics` prints, and the one-hidden
bound at L = 2, is at least kappa, up to rounding. The nets may have
bottlenecks (a hidden width below d or k) and Sigma may be rank-deficient,
as X = A Z with A of rank 1..d; both once let a bound fall below kappa."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gn_lens import (
    Dataset,
    NetworkSpec,
    bound_one_hidden,
    checkpoint_metrics,
    empirical_covariance,
    init,
)
from gn_lens.errors import DegenerateDataError
from gn_lens.network import LINEAR_CONV, LINEAR_DEEP, RESIDUAL

N = 64
EPS = np.finfo(np.float64).eps


@st.composite
def instances(draw):
    """(spec, seed, data rank) of a dense or conv net with small widths."""
    kind = draw(st.sampled_from([LINEAR_DEEP, RESIDUAL, LINEAR_CONV]))
    if kind == LINEAR_CONV:
        kernel = draw(st.integers(min_value=1, max_value=3))
        d = draw(st.integers(min_value=2 * kernel - 1, max_value=8))
        filters = draw(st.integers(min_value=1, max_value=3))
        spec = NetworkSpec(kind=kind, dims=(d,), conv_layers=(
            (filters, 1, kernel), (filters, filters, kernel)))
    else:
        depth = draw(st.integers(min_value=1, max_value=4))
        dims = draw(st.lists(st.integers(min_value=1, max_value=8),
                             min_size=depth + 1, max_size=depth + 1))
        beta = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        spec = NetworkSpec(kind=kind, dims=tuple(dims),
                           beta=beta if kind == RESIDUAL else 0.0)
    rank = draw(st.integers(min_value=1, max_value=spec.dims[0]))
    return spec, draw(st.integers(min_value=0, max_value=2**16)), rank


def low_rank_data(d, rank, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, rank))
    return Dataset(X=a @ rng.standard_normal((rank, N)))


def assert_at_least(bound, kappa):
    # kappa itself is accurate to a few kappa * eps (relative).
    assert bound >= kappa * (1 - 1e-9 - 100 * kappa * EPS), (bound, kappa)


@given(instances())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_finite_bound_is_at_least_kappa(instance):
    spec, seed, rank = instance
    params = init(spec, seed=seed)
    ds = low_rank_data(spec.dims[0], rank, seed)
    metrics = checkpoint_metrics(spec, params, ds)
    for bound in (metrics.bound_convex, metrics.bound_max):
        if math.isfinite(bound):
            assert_at_least(bound, metrics.kappa)
    if spec.kind == LINEAR_DEEP and spec.depth == 2:
        v, w = params.layers
        try:
            one_hidden = bound_one_hidden(w, v, empirical_covariance(ds))
        except DegenerateDataError:
            return
        assert_at_least(one_hidden.value, metrics.kappa)
