"""`NetworkSpec.layer_shapes()` is the one statement of a network's layers.

Every library entry point that reads weights refuses layers whose shapes
differ from it with `DimensionError`, naming the expected and the given
shapes, instead of evaluating another network or failing on a raw index.
The spec's conv chain is checked through `conv_lengths()`, layer by layer.
"""

import re

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    Params,
    TrainConfig,
    checkpoint_metrics,
    forward,
    gn_conv_shared,
    gn_from_jacobian,
    init,
    lift_conv,
    mse_gradient,
    train,
)
from gn_lens.errors import DimensionError, SpecError

DENSE = NetworkSpec(kind="linear_deep", dims=(6, 8, 2))
LEAKY = NetworkSpec(kind="leaky_one_hidden", dims=(6, 8, 2), alpha=0.1)
CONV = NetworkSpec(kind="linear_conv", dims=(10,),
                   conv_layers=((3, 1, 3), (2, 3, 4)))


def _dense_layers(dims):
    return init(NetworkSpec(kind="linear_deep", dims=dims), seed=1).layers


_conv = init(CONV, seed=1).layers
# (spec, the case, layers that do not fit it)
MISFITS = [
    (DENSE, "one layer too many", _dense_layers((6, 8, 8, 2))),
    (DENSE, "a wrong output width", _dense_layers((6, 8, 3))),
    (LEAKY, "one layer too many", _dense_layers((6, 8, 8, 2))),
    (LEAKY, "a wrong output width", _dense_layers((6, 8, 3))),
    (CONV, "one fibre too few", _conv[:1]),
    (CONV, "a short last fibre", (_conv[0], _conv[1][:, :, :2])),
]


def _batch(spec, n=12):
    rng = np.random.default_rng(0)
    return (rng.standard_normal((spec.widths[0], n)),
            rng.standard_normal((spec.widths[-1], n)))


def _dataset(spec):
    x, y = _batch(spec)
    return Dataset(X=x, Y=y)


DENSE_ENTRY_POINTS = {
    "forward": lambda spec, p: forward(spec, p, _batch(spec)[0]),
    "mse_gradient": lambda spec, p: mse_gradient(spec, p, *_batch(spec)),
    "train": lambda spec, p: train(spec, p, _dataset(spec),
                                   TrainConfig(learning_rate=0.01, epochs=1)),
    "checkpoint_metrics": lambda spec, p: checkpoint_metrics(
        spec, p, _dataset(spec)),
    "gn_from_jacobian": lambda spec, p: gn_from_jacobian(
        spec, p, _batch(spec)[0]),
    "gn_from_jacobian_analytic": lambda spec, p: gn_from_jacobian(
        spec, p, _batch(spec)[0], mode="analytic_linear"),
}
CONV_ENTRY_POINTS = {
    "forward": DENSE_ENTRY_POINTS["forward"],
    "checkpoint_metrics": DENSE_ENTRY_POINTS["checkpoint_metrics"],
    "gn_from_jacobian": DENSE_ENTRY_POINTS["gn_from_jacobian"],
    "lift_conv": lift_conv,
    "gn_conv_shared": lambda spec, p: gn_conv_shared(spec, p, np.eye(10)),
}
CASES = [
    pytest.param(spec, layers, call, id=f"{spec.kind}-{case}-{name}")
    for spec, case, layers in MISFITS
    for name, call in (CONV_ENTRY_POINTS if spec.kind == "linear_conv"
                       else DENSE_ENTRY_POINTS).items()
]


@pytest.mark.parametrize(("spec", "layers", "call"), CASES)
def test_every_entry_point_refuses_layers_that_do_not_fit_the_spec(
        spec, layers, call):
    expected = (f"layer shapes must be {spec.layer_shapes()}, "
                f"got {[w.shape for w in layers]}")
    with pytest.raises(DimensionError, match=re.escape(expected)):
        call(spec, Params(layers=layers))


@pytest.mark.parametrize(("convs", "message"), [
    # Layer 2 breaks the chain before layer 3's kernel outgrows its signal.
    (((2, 1, 3), (4, 3, 3), (1, 4, 9)), "conv in_channels must chain"),
    # Layer 2's kernel outgrows its signal before layer 3 breaks the chain.
    (((2, 1, 3), (4, 2, 9), (1, 3, 2)), "kernel 9 exceeds signal length 8"),
    (((2, 1, 11),), "kernel 11 exceeds signal length 10"),
])
def test_the_conv_chain_reports_its_first_fault(convs, message):
    with pytest.raises(SpecError, match=f"^{message}$"):
        NetworkSpec(kind="linear_conv", dims=(10,), conv_layers=convs)
