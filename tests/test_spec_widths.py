"""`NetworkSpec.widths` gives the rows of the input and of each layer's
output: the dims of a dense net, and the sizes of a conv chain's
Toeplitz-lifted layers, whose batches and outputs have those rows."""

import numpy as np
import pytest

from gn_lens import NetworkSpec, forward, init, lift_conv
from gn_lens.errors import DimensionError
from gn_lens.network import (
    LEAKY_ONE_HIDDEN,
    LINEAR_CONV,
    LINEAR_DEEP,
    RESIDUAL,
    check_batch,
)


@pytest.mark.parametrize("kind", [LINEAR_DEEP, RESIDUAL, LEAKY_ONE_HIDDEN])
def test_dense_widths_are_the_dims(kind):
    spec = NetworkSpec(kind=kind, dims=(5, 7, 2))
    assert spec.widths == (5, 7, 2)
    assert spec.depth == 2


@pytest.mark.parametrize("convs", [
    ((3, 2, 3), (2, 3, 4)),
    ((1, 1, 1),),
    ((4, 1, 2), (4, 4, 3), (2, 4, 1)),
])
def test_conv_widths_are_those_of_the_lifted_chain(convs):
    spec = NetworkSpec(kind=LINEAR_CONV, dims=(10,), conv_layers=convs)
    params = init(spec, seed=0)
    lifted = lift_conv(spec, params)
    assert spec.depth == len(convs) == len(lifted)
    assert spec.widths == (lifted[0].shape[1],
                           *(t.shape[0] for t in lifted))
    x = np.random.default_rng(1).standard_normal((spec.widths[0], 3))
    assert forward(spec, params, x).shape == (spec.widths[-1], 3)
    with pytest.raises(DimensionError, match=f"{spec.widths[0]} rows"):
        check_batch(spec, x[1:])
