"""Each command accepts exactly the config keys it reads, and the key lists
come from the tables that already hold them: the data keys from the data
sources, the network keys from `network.KINDS`. `whiten` reads only the
data; `k`, `m` and `L` beside explicit `dims`, and `L` on a one-hidden kind,
are refused by name before any data is loaded."""

import pytest

from gn_lens import NetworkSpec, cli
from gn_lens.cli import ALLOWED_KEYS, main
from gn_lens.errors import SpecError
from gn_lens.network import KINDS

SOURCE_KEYS = {"d", "n", "cov_spectrum", "data_seed", "data_path",
               "label_column", "limit"}
NETWORK_KEYS = {"k", "m", "L", "dims", "beta", "alpha", "filters", "kernel"}
WHITEN_KEYS = {"data", *SOURCE_KEYS, "whiten", "eigen_floor"}
EVALUATE_KEYS = {*WHITEN_KEYS, *NETWORK_KEYS, "experiment", "kind", "init",
                 "init_sigma", "seeds", "rank_policy"}
TRAIN_KEYS = {"lr", "epochs", "batch_size", "trace_every", "teacher_seed"}
OWN_KEYS = {
    "analyze": set(),
    "sweep": {"axis", "values"},
    "train": TRAIN_KEYS,
    "prune": {*TRAIN_KEYS, "fractions"},
}

SYNTHETIC = {"data": "synthetic", "d": "6", "n": "16"}
TRAIN = {"lr": "0.01", "epochs": "1", "batch_size": "8"}


def run(tmp_path, command, cfg):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return main([command, "--config", str(path), "--out",
                 str(tmp_path / "out"), "--jobs", "1"])


def no_data(monkeypatch):
    """Make loading any data fail the test."""
    for loader in ("synthesize_gaussian", "load_csv", "load_idx"):
        monkeypatch.setattr(
            cli, loader,
            lambda *a, _name=loader, **k: pytest.fail(f"{_name} ran"))


def test_the_key_lists_are_the_tables_and_each_commands_own_keys():
    assert set().union(*cli._SOURCE_KEYS.values()) == SOURCE_KEYS
    assert set().union(*KINDS.values()) == NETWORK_KEYS
    assert ALLOWED_KEYS["whiten"] == WHITEN_KEYS
    assert len(WHITEN_KEYS) == 10 and len(EVALUATE_KEYS) == 24
    for command, own in OWN_KEYS.items():
        assert ALLOWED_KEYS[command] == EVALUATE_KEYS | own, command
    assert set(ALLOWED_KEYS) == {*OWN_KEYS, "whiten"}


# Each key the `whiten` command accepted and never read, with a value it
# once let through.
UNREAD_BY_WHITEN = {
    "experiment": "w", "kind": "abc", "dims": "6,4,2", "k": "x", "m": "4",
    "L": "3", "beta": "0.5", "alpha": "0.1", "filters": "2", "kernel": "3",
    "init": "bogus", "init_sigma": "nan", "seeds": "-5",
    "rank_policy": "bogus",
}


def test_whiten_refused_exactly_the_keys_it_does_not_read():
    assert set(UNREAD_BY_WHITEN) == EVALUATE_KEYS - WHITEN_KEYS
    assert len(UNREAD_BY_WHITEN) == 14


@pytest.mark.parametrize("key", sorted(UNREAD_BY_WHITEN))
def test_whiten_refuses_a_key_it_does_not_read_before_any_data(
        tmp_path, capsys, monkeypatch, key):
    no_data(monkeypatch)
    cfg = {**SYNTHETIC, key: UNREAD_BY_WHITEN[key]}
    assert run(tmp_path, "whiten", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert err.endswith(f"unknown key {key!r} for command 'whiten'\n")
    assert not (tmp_path / "out").exists()


DIMS = {**SYNTHETIC, "seeds": "0", "dims": "6,4,2"}

# name -> (command, config, the message after "config error: ")
REFUSALS = {
    **{f"{command}_{key}_beside_dims": (
        command, {**DIMS, **extra, "kind": kind, key: value},
        f"key {key!r}: explicit 'dims' leave it unread")
       for command, extra in (("analyze", {}), ("train", TRAIN))
       for kind, key, value in (("linear_deep", "k", "2"),
                                ("residual", "m", "4"),
                                ("linear_deep", "L", "2"))},
    "sweep_k_beside_dims": (
        "sweep", {**DIMS, "kind": "residual", "k": "2", "axis": "beta",
                  "values": "0,0.5"},
        "key 'k': explicit 'dims' leave it unread"),
    "leaky_L": ("analyze", {**SYNTHETIC, "kind": "leaky_one_hidden",
                            "k": "2", "m": "4", "L": "2"},
                "key 'L': kind 'leaky_one_hidden' does not read it"),
    "leaky_L_beside_dims": (
        "analyze", {**DIMS, "kind": "leaky_one_hidden", "L": "2"},
        "key 'L': kind 'leaky_one_hidden' does not read it"),
    "prune_leaky_L": ("prune", {**SYNTHETIC, **TRAIN,
                                "kind": "leaky_one_hidden", "k": "2",
                                "m": "4", "L": "2"},
                      "key 'L': kind 'leaky_one_hidden' does not read it"),
    "leaky_axis_L": ("sweep", {**SYNTHETIC, "kind": "leaky_one_hidden",
                               "k": "2", "m": "4", "axis": "L",
                               "values": "2,3"},
                     "key 'axis': kind 'leaky_one_hidden' does not read 'L'"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_an_unread_width_key_is_refused_by_name_before_any_data(
        tmp_path, capsys, monkeypatch, name):
    command, cfg, message = REFUSALS[name]
    no_data(monkeypatch)
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("kind", ["leaky_one_hidden", "linear_bn_one_hidden"])
def test_a_one_hidden_kind_reads_no_depth(kind):
    assert "L" not in KINDS[kind] and "dims" in KINDS[kind]
    NetworkSpec(kind=kind, dims=(6, 4, 2))
    with pytest.raises(SpecError, match="one-hidden kinds need"):
        NetworkSpec(kind=kind, dims=(6, 4, 4, 2))


def test_a_bn_config_is_refused_before_any_data_whatever_its_keys(
        tmp_path, capsys, monkeypatch):
    # No command runs this kind, so its refusal comes before any key's.
    no_data(monkeypatch)
    cfg = {**SYNTHETIC, "kind": "linear_bn_one_hidden", "k": "2", "m": "4",
           "L": "2"}
    assert run(tmp_path, "analyze", cfg) == 2
    assert capsys.readouterr().err == (
        "config error: kind 'linear_bn_one_hidden' has no analytic GN "
        "builder\n")
