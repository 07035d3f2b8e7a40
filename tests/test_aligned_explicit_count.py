"""`init_aligned_svd` takes one list of singular values per layer: a list
of another length is refused with `SpecError` naming both counts, rather
than failing on a raw index (too few) or being cut short (too many)."""

import numpy as np
import pytest

from gn_lens import NetworkSpec, init_aligned_svd
from gn_lens.errors import SpecError

SPEC = NetworkSpec(kind="residual", dims=(4, 4, 4, 4), beta=0.5)


@pytest.mark.parametrize("count", [0, 1, 2, 4, 5])
def test_a_wrong_layer_count_is_refused_by_name(count):
    explicit = [np.ones(4)] * count
    with pytest.raises(SpecError, match=(
            f"^explicit lists singular values for {count} layers, "
            "but the net has 3$")):
        init_aligned_svd(SPEC, explicit=explicit)


def test_one_list_per_layer_sets_each_layer_of_a_rectangular_net():
    # d = 2 and k = 3 below the hidden width 4: the end layers take
    # truncated columns of the shared basis.
    spec = NetworkSpec(kind="linear_deep", dims=(2, 4, 4, 3))
    explicit = [[3.0, 0.5], [4.0, 2.0, 1.0, 0.25], [2.0, 1.5, 1.0]]
    params = init_aligned_svd(spec, explicit=explicit)
    assert [w.shape for w in params.layers] == spec.layer_shapes()
    for w, values in zip(params.layers, explicit):
        assert np.allclose(np.linalg.svd(w, compute_uv=False), values,
                           rtol=0, atol=1e-12)


def test_a_layer_with_the_wrong_number_of_values_is_named():
    with pytest.raises(SpecError,
                       match="^layer 2 needs 4 singular values, got 3$"):
        init_aligned_svd(SPEC, explicit=[np.ones(4), np.ones(3), np.ones(4)])
