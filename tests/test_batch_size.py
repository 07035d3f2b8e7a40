"""A negative `batch_size` is a config error that names the key (exit 2,
nothing written), and `TrainConfig` refuses it; 0 still means full batch."""

import pytest

from gn_lens import TrainConfig, cli
from gn_lens.errors import ValidationError

SMALL = {"data": "synthetic", "d": "6", "n": "32", "seeds": "0"}
TRAIN = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "L": "3",
         "lr": "0.01", "epochs": "2"}


def run(tmp_path, command, cfg, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / out)])


@pytest.mark.parametrize("command, extra", [
    ("train", {}),
    ("prune", {"fractions": "0,0.5"}),
])
@pytest.mark.parametrize("value", ["-5", "-1"])
def test_negative_batch_size_is_a_config_error(tmp_path, capsys, command,
                                               extra, value):
    assert run(tmp_path, command,
               {**TRAIN, **extra, "batch_size": value}) == 2
    err = capsys.readouterr().err
    assert err == f"config error: key 'batch_size': must be >= 0, got {value}\n"
    assert not list((tmp_path / "out").glob("*.csv"))


def test_zero_batch_size_trains_in_full_batch(tmp_path):
    assert run(tmp_path, "train", {**TRAIN, "batch_size": "0"}, out="zero") == 0
    assert run(tmp_path, "train", {**TRAIN, "batch_size": "32"}, out="n") == 0
    assert ((tmp_path / "zero" / "trace.csv").read_bytes()
            == (tmp_path / "n" / "trace.csv").read_bytes())


def test_train_config_refuses_a_negative_batch_size():
    with pytest.raises(ValidationError, match="batch_size"):
        TrainConfig(learning_rate=0.01, epochs=1, batch_size=-1)
