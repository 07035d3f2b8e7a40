"""A network key that the config's kind does not read is a config error
(exit 2) that names the key, in every command, and a sweep reports it before
any cell runs."""

import pytest

from gn_lens import cli
from gn_lens.cli import main

SMALL = {"data": "synthetic", "d": "6", "n": "32", "seeds": "0"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "5", "L": "3"}
TRAIN = {**DEEP, "lr": "0.01", "epochs": "2", "batch_size": "8"}

# kind -> a config of that kind which analyze accepts
BASES = {
    "linear_deep": DEEP,
    "residual": {**DEEP, "kind": "residual", "beta": "0.5"},
    "leaky_one_hidden": {**SMALL, "kind": "leaky_one_hidden", "k": "2",
                         "m": "5"},
    "linear_conv": {**SMALL, "kind": "linear_conv", "filters": "2",
                    "kernel": "3"},
}
KEYS = {"beta": "0.7", "alpha": "0.3", "kernel": "2", "filters": "2"}
READS = {("residual", "beta"), ("leaky_one_hidden", "alpha"),
         ("linear_conv", "kernel"), ("linear_conv", "filters")}


def run(tmp_path, command, cfg):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return main([command, "--config", str(path), "--out",
                 str(tmp_path / "out"), "--jobs", "1"])


def assert_refused(tmp_path, capsys, command, cfg, key):
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"key {key!r}" in err
    assert list((tmp_path / "out").iterdir()) == []


CASES = {
    "analyze_beta_on_deep": ("analyze", {**DEEP, "beta": "0.7"}, "beta"),
    "train_beta_on_deep": ("train", {**TRAIN, "beta": "0.7"}, "beta"),
    "prune_beta_on_deep": ("prune", {**TRAIN, "beta": "0.7",
                                     "fractions": "0,0.5"}, "beta"),
    "analyze_alpha_on_residual": (
        "analyze", {**BASES["residual"], "alpha": "0.3"}, "alpha"),
    "sweep_beta_with_alpha_on_residual": (
        "sweep", {**BASES["residual"], "alpha": "0.3", "axis": "beta",
                  "values": "0,0.5"}, "alpha"),
}


@pytest.mark.parametrize("command, cfg, key", list(CASES.values()),
                         ids=list(CASES))
def test_an_unread_key_is_refused(tmp_path, capsys, command, cfg, key):
    assert_refused(tmp_path, capsys, command, cfg, key)


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in sorted(BASES) for key in sorted(KEYS)
    if key not in BASES[kind]])
def test_analyze_accepts_exactly_the_keys_its_kind_reads(tmp_path, capsys,
                                                         kind, key):
    cfg = {**BASES[kind], key: KEYS[key]}
    if (kind, key) in READS:
        assert run(tmp_path, "analyze", cfg) == 0
    else:
        assert_refused(tmp_path, capsys, "analyze", cfg, key)


def test_a_sweep_refuses_an_unread_key_before_any_cell_runs(
        tmp_path, capsys, monkeypatch):
    def not_reached(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "evaluate_instance", not_reached)
    cfg = {**DEEP, "beta": "0.7", "axis": "L", "values": "2,3"}
    assert_refused(tmp_path, capsys, "sweep", cfg, "beta")


def test_an_unread_axis_is_reported_before_an_unread_key(tmp_path, capsys):
    cfg = {**DEEP, "beta": "0.7", "axis": "alpha", "values": "0.1,0.2"}
    assert_refused(tmp_path, capsys, "sweep", cfg, "axis")
