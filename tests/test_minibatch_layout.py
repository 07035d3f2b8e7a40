"""A mini-batch that `train` steps on is laid out as `x_all[:, idx]` is: on
an X of 32 rows or more, where GEMM rounds a Fortran-ordered batch
differently from a C-ordered one, `train` equals the public loop of
`mse_gradient` on `x_all[:, idx]` batches byte for byte, for every trainable
kind and for C- and Fortran-ordered X alike."""

import numpy as np
import pytest

from gn_lens import Dataset, NetworkSpec, TrainConfig, init, synthesize_gaussian

from test_train_step import assert_train_matches_reference

KINDS = {
    "linear_deep": dict(kind="linear_deep", hidden=(32, 32)),
    "residual": dict(kind="residual", hidden=(32, 32), beta=0.5),
    "leaky_one_hidden": dict(kind="leaky_one_hidden", hidden=(32,),
                             alpha=0.1),
}


def wide_dataset(d, order, n=40):
    raw = synthesize_gaussian(d, n, np.logspace(1, -1, d), seed=d)
    teacher = np.random.default_rng(d + 1).standard_normal((3, d))
    return Dataset(X=np.array(raw.X, order=order), Y=teacher @ raw.X)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [32, 64, 128])
@pytest.mark.parametrize("name", sorted(KINDS))
def test_minibatches_of_a_wide_x_train_as_column_selections(
        monkeypatch, name, d, order):
    kind = dict(KINDS[name])
    hidden = kind.pop("hidden")
    spec = NetworkSpec(dims=(d, *hidden, 3), **kind)
    ds = wide_dataset(d, order)
    assert ds.X.flags[f"{order}_CONTIGUOUS"]
    cfg = TrainConfig(learning_rate=0.002, epochs=3, batch_size=8, seed=2,
                      trace_every=3)
    trace = assert_train_matches_reference(
        monkeypatch, spec, init(spec, seed=4), ds, cfg)
    assert not trace.diverged
    assert [c.epoch for c in trace.checkpoints] == [0, 3]
