"""Params compare by value and have no hash."""

import numpy as np
import pytest

from gn_lens import NetworkSpec, Params, init
from gn_lens.network import Draw


def test_params_with_equal_but_distinct_arrays_are_equal():
    a = np.arange(6.0).reshape(2, 3)
    assert Params(layers=(a,)) == Params(layers=(a.copy(),))
    assert not Params(layers=(a,)) != Params(layers=(a.copy(),))


def test_params_differ_in_values_shapes_counts_and_masks():
    a = np.arange(6.0).reshape(2, 3)
    params = Params(layers=(a,))
    b = a.copy()
    b[1, 2] = -1.0
    assert params != Params(layers=(b,))
    assert params != Params(layers=(a.reshape(3, 2),))
    assert params != Params(layers=(a, a.T))
    ones = np.ones((2, 3))
    masked = Params(layers=(a,), masks=(ones,))
    assert masked != params and params != masked
    assert masked == Params(layers=(a.copy(),), masks=(ones.copy(),))
    c = a.copy()
    c[0, 0] = 0.0
    mask = ones.copy()
    mask[0, 0] = 0.0
    assert Params(layers=(c,), masks=(mask,)) != Params(layers=(c,),
                                                         masks=(ones,))
    assert params.__eq__(a) is NotImplemented


def test_the_draw_record_is_not_compared():
    spec = NetworkSpec(kind="linear_deep", dims=(4, 5, 3))
    drawn = init(spec, seed=1, draw=Draw())
    assert drawn.draw is not None
    assert drawn == init(spec, seed=1)


def test_params_are_unhashable():
    params = Params(layers=(np.eye(2),))
    with pytest.raises(TypeError, match="unhashable type: 'Params'"):
        hash(params)
