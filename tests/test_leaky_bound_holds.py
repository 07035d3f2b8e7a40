"""The Leaky-ReLU bound that `checkpoint_metrics` prints in bound_other is at
least kappa, up to rounding, wherever it is finite. The instances keep
n <= max(d, m), where the bound can be defined, and scale the data by
1e-2 to 1e2; both Grams of its denominator are then nonsingular in many of
them, and near-singular in some."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gn_lens import Dataset, NetworkSpec, checkpoint_metrics, init
from gn_lens.network import LEAKY_ONE_HIDDEN

EPS = np.finfo(np.float64).eps


@st.composite
def instances(draw):
    """(spec, seed, n, data scale) of a small one-hidden Leaky-ReLU net."""
    d = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    alpha = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    spec = NetworkSpec(kind=LEAKY_ONE_HIDDEN, dims=(d, m, k), alpha=alpha)
    n = draw(st.integers(min_value=1, max_value=max(d, m)))
    scale = 10.0 ** draw(st.integers(min_value=-2, max_value=2))
    return spec, draw(st.integers(min_value=0, max_value=2**16)), n, scale


def test_every_finite_leaky_bound_is_at_least_kappa():
    finite = []

    @given(instances())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(instance):
        spec, seed, n, scale = instance
        rng = np.random.default_rng(seed)
        ds = Dataset(X=scale * rng.standard_normal((spec.dims[0], n)))
        metrics = checkpoint_metrics(spec, init(spec, seed=seed), ds)
        bound, kappa = metrics.bound_other, metrics.kappa
        finite.append(math.isfinite(bound))
        if finite[-1]:
            # kappa itself is accurate to a few kappa * eps (relative).
            assert bound >= kappa * (1 - 1e-9 - 100 * kappa * EPS), (bound,
                                                                     kappa)

    check()
    # The property is not vacuous: most drawn instances have a finite bound.
    assert sum(finite) > len(finite) / 2, (sum(finite), len(finite))
