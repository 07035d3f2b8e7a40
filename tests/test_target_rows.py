"""Targets must have one row per network output. A CSV label column gives Y
one row, so `train` and `prune` on k != 1 are config errors naming the key
(exit 2, nothing written) instead of training every output toward the one
label; `train`, `pruning_experiment` and `mse_gradient` refuse a Y that is
not (k, batch n) with `DimensionError`. `TrainConfig` refuses a negative
epoch count as it refuses a negative learning rate or batch size."""

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    TrainConfig,
    cli,
    init,
    mse_gradient,
    pruning_experiment,
    synthesize_gaussian,
    train,
)
from gn_lens.errors import DimensionError, ValidationError

TRAIN = {"kind": "linear_deep", "m": "5", "L": "2", "lr": "0.01",
         "epochs": "2", "batch_size": "8", "seeds": "0"}
SPEC = NetworkSpec(kind="linear_deep", dims=(4, 5, 3))
CFG = TrainConfig(learning_rate=0.01, epochs=1)


def write_labelled_csv(path, d=4, n=24):
    """n rows of d features and a label, as `load_csv` reads them."""
    rows = np.random.default_rng(0).standard_normal((n, d + 1))
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in rows))


def run(tmp_path, command, cfg, out="out"):
    write_labelled_csv(tmp_path / "labels.csv")
    cfg = {"data": "csv", "data_path": str(tmp_path / "labels.csv"),
           "label_column": "true", **cfg}
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / out)])


@pytest.mark.parametrize("command, extra", [
    ("train", {}),
    ("prune", {"fractions": "0,0.5"}),
])
@pytest.mark.parametrize("k", [2, 3])
def test_a_label_column_on_several_outputs_is_a_config_error(
        tmp_path, capsys, command, extra, k):
    assert run(tmp_path, command, {**TRAIN, **extra, "k": str(k)}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'label_column': ")
    assert f"k = {k} outputs" in err and err.count("\n") == 1
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command, extra, output", [
    ("train", {}, "trace.csv"),
    ("prune", {"fractions": "0,0.5"}, "prune.csv"),
])
def test_a_label_column_trains_one_output(tmp_path, command, extra, output):
    assert run(tmp_path, command, {**TRAIN, **extra, "k": "1"}) == 0
    assert (tmp_path / "out" / output).exists()


def labelled(rows, n=20):
    x = synthesize_gaussian(4, n, np.ones(4), seed=1).X
    return x, np.random.default_rng(2).standard_normal((rows, n))


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_train_and_prune_refuse_targets_of_the_wrong_width(rows):
    x, y = labelled(rows)
    ds = Dataset(X=x, Y=y)
    with pytest.raises(DimensionError, match="Y must be 3 x 20"):
        train(SPEC, init(SPEC), ds, CFG)
    with pytest.raises(DimensionError, match="Y must be 3 x 20"):
        pruning_experiment(SPEC, ds, [0.0], [0], CFG)


@pytest.mark.parametrize("shape", [(1, 20), (4, 20), (3, 19), (20,), ()])
def test_mse_gradient_refuses_targets_not_k_by_n(shape):
    x, _ = labelled(3)
    y = np.ones(shape)
    with pytest.raises(DimensionError, match=r"Y must be 3 x 20 .* got shape"):
        mse_gradient(SPEC, init(SPEC), x, y)


def test_mse_gradient_takes_targets_k_by_n():
    x, y = labelled(3)
    grads = mse_gradient(SPEC, init(SPEC), x, y)
    assert [g.shape for g in grads] == [(5, 4), (3, 5)]


def test_train_config_refuses_negative_epochs():
    with pytest.raises(ValidationError, match="epochs"):
        TrainConfig(learning_rate=0.01, epochs=-3)
    assert TrainConfig(learning_rate=0.01, epochs=0).epochs == 0


def test_negative_epochs_are_a_config_error(tmp_path, capsys):
    assert run(tmp_path, "train", {**TRAIN, "k": "1", "epochs": "-3"}) == 2
    assert capsys.readouterr().err == (
        "config error: key 'epochs': must be >= 0, got -3\n")
    assert not list((tmp_path / "out").iterdir())
