"""The library's own refusals of malformed input: conv layers that are not
three integers >= 1, `Params` masks that do not fit their layers,
`TrainConfig(trace_every=0)`, `mse_gradient` on a kind without an analytic
gradient, and CSV files with no rows or with no column left for X."""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    TrainConfig,
    init,
    load_csv,
    mse_gradient,
)
from gn_lens.errors import (
    DimensionError,
    FormatError,
    SpecError,
    ValidationError,
)

# name -> conv_layers of a `linear_conv` spec over a signal of length 6
BAD_CONVS = {
    "zero_channels": ((0, 1, 3), (0, 0, 3)),
    "zero_kernel": ((2, 1, 0), (2, 2, 0)),
    "two_entries": ((2, 1),),
    "four_entries": ((2, 1, 3, 1),),
}


@pytest.mark.parametrize("name", sorted(BAD_CONVS))
def test_a_conv_layer_that_is_not_three_integers_of_at_least_one_is_refused(
        name):
    with pytest.raises(SpecError, match="three integers >= 1"):
        NetworkSpec(kind="linear_conv", dims=(6,), conv_layers=BAD_CONVS[name])


LAYERS = (np.ones((3, 2)), np.ones((2, 3)))
ONES = tuple(np.ones_like(w) for w in LAYERS)

# name -> (masks, error type, message)
BAD_MASKS = {
    "count": (ONES[:1], DimensionError, "mask count must match layer count"),
    "shape": ((ONES[0], np.ones((3, 2))), DimensionError,
              "mask shape must match layer shape"),
    "value": ((ONES[0], np.full((2, 3), 0.5)), ValidationError,
              "masks must be 0/1"),
    "nonzero_masked_weight": ((ONES[0], np.zeros((2, 3))), ValidationError,
                              "masked entries must be exactly zero"),
}


@pytest.mark.parametrize("name", sorted(BAD_MASKS))
def test_masks_that_do_not_fit_their_layers_are_refused(name):
    masks, error, message = BAD_MASKS[name]
    with pytest.raises(error, match=message):
        Params(layers=LAYERS, masks=masks)


def test_a_trace_interval_below_one_is_refused():
    with pytest.raises(ValidationError, match="trace_every must be >= 1"):
        TrainConfig(learning_rate=0.1, epochs=1, trace_every=0)


def test_mse_gradient_refuses_a_kind_without_an_analytic_gradient():
    spec = NetworkSpec(kind="linear_conv", dims=(6,),
                       conv_layers=((2, 1, 3), (2, 2, 3)))
    x = np.ones((6, 4))
    with pytest.raises(SpecError, match="no analytic gradient for kind "
                                        "'linear_conv'"):
        mse_gradient(spec, init(spec, seed=0), x, np.ones((4, 4)))


@pytest.mark.parametrize("text", ["", "\n\n  \n"])
def test_a_csv_file_with_no_rows_is_refused(tmp_path, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match="empty CSV file"):
        load_csv(path)


def test_a_label_column_needs_a_second_column(tmp_path):
    path = tmp_path / "one_column.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    assert load_csv(path).X.shape == (1, 3)
    with pytest.raises(FormatError, match="only one column"):
        load_csv(path, label_column=True)
