"""Every network value a kind reads is parsed and range-checked before any
data is loaded, so a bad value exits 2 even where the data would fail to
load; a sweep's own axis key is left unread."""

import pytest

from test_command_keys import no_data, run

TRAIN = {"lr": "0.01", "epochs": "1", "batch_size": "8"}
DEEP = {"kind": "linear_deep", "k": "2", "m": "4", "L": "2"}
RESIDUAL = {**DEEP, "kind": "residual", "beta": "0.5"}
LEAKY = {"kind": "leaky_one_hidden", "k": "2", "m": "4", "alpha": "0.1"}
CONV = {"kind": "linear_conv", "filters": "2", "kernel": "3"}


def missing_csv(tmp_path):
    """Data keys naming a CSV file that does not exist."""
    return {"data": "csv", "data_path": str(tmp_path / "missing.csv"),
            "seeds": "0"}


# name -> (network keys, the message after "config error: ")
BAD_VALUES = {
    "k_not_an_integer": ({**DEEP, "k": "x"}, "key 'k': not an integer: 'x'"),
    "m_not_an_integer": ({**DEEP, "m": "abc"},
                         "key 'm': not an integer: 'abc'"),
    "m_zero": ({**DEEP, "m": "0"}, "all widths must be >= 1"),
    "k_zero": ({**LEAKY, "k": "0"}, "all widths must be >= 1"),
    "L_zero": ({**DEEP, "L": "0"}, "key 'L': must be >= 1, got 0"),
    "beta_not_a_number": ({**RESIDUAL, "beta": "b"},
                          "key 'beta': not a number: 'b'"),
    "beta_negative": ({**RESIDUAL, "beta": "-1"},
                      "beta must be finite and >= 0, got -1.0"),
    "alpha_over_one": ({**LEAKY, "alpha": "2"}, "alpha must lie in [0, 1]"),
    "filters_zero": ({**CONV, "filters": "0"},
                     "key 'filters': must be >= 1, got 0"),
    "kernel_not_an_integer": ({**CONV, "kernel": "3.5"},
                              "key 'kernel': not an integer: '3.5'"),
    "beta_beside_dims": ({"kind": "residual", "dims": "6,4,2", "beta": "nan"},
                         "beta must be finite and >= 0, got nan"),
}


@pytest.mark.parametrize("name, command", [
    (name, command) for name in sorted(BAD_VALUES)
    for command in ("analyze", "train")
    # A conv net is not trainable.
    if command == "analyze" or BAD_VALUES[name][0]["kind"] != "linear_conv"])
def test_a_bad_network_value_is_refused_before_any_data(
        tmp_path, capsys, monkeypatch, name, command):
    no_data(monkeypatch)
    net, message = BAD_VALUES[name]
    cfg = {**missing_csv(tmp_path), **net}
    if command == "train":
        cfg.update(TRAIN)
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_bad_value_off_the_sweep_axis_is_refused_before_any_data(
        tmp_path, capsys, monkeypatch):
    no_data(monkeypatch)
    cfg = {**missing_csv(tmp_path), **RESIDUAL, "m": "abc", "axis": "beta",
           "values": "0,1"}
    assert run(tmp_path, "sweep", cfg) == 2
    assert capsys.readouterr().err == (
        "config error: key 'm': not an integer: 'abc'\n")


def test_the_sweep_axis_key_and_dims_wait_for_the_data(tmp_path, capsys):
    # The axis key is left unread: here the missing file is the first error.
    cfg = {**missing_csv(tmp_path), **RESIDUAL, "beta": "abc", "axis": "beta",
           "values": "0,1"}
    assert run(tmp_path, "sweep", cfg) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
