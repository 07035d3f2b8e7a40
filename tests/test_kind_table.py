"""Every command checks the config's kind once, up front, against the one
table in `network`: the keys each kind reads and the commands and init it
supports. The library keeps its own refusals for callers that skip the CLI."""

import numpy as np
import pytest

import gn_lens as g
from gn_lens import cli, trainer
from gn_lens.cli import main
from gn_lens.errors import SpecError
from gn_lens.network import (
    ALIGNED_KINDS,
    EVALUATED_KINDS,
    KINDS,
    TRAINABLE_KINDS,
)

SMALL = {"data": "synthetic", "d": "6", "n": "16", "seeds": "0"}
TRAIN = {"lr": "0.01", "epochs": "1", "batch_size": "8"}

# kind -> (the network keys of a config of that kind, a sweep axis it reads)
NETWORKS = {
    "linear_deep": ({"k": "2", "m": "6", "L": "3"}, "L"),
    "residual": ({"k": "2", "m": "6", "L": "3", "beta": "0.5"}, "beta"),
    "leaky_one_hidden": ({"k": "2", "m": "6", "alpha": "0.3"}, "m"),
    "linear_conv": ({"filters": "2", "kernel": "3"}, "kernel"),
    "linear_bn_one_hidden": ({"k": "2", "m": "6", "L": "2"}, "m"),
}
# A value of each network key that a kind reading it accepts.
VALUES = {"k": "2", "m": "6", "L": "2", "dims": "6,6,2", "beta": "0.5",
          "alpha": "0.3", "kernel": "2", "filters": "2"}
EXTRA = {"analyze": {}, "sweep": {"values": "2,3"}, "train": TRAIN,
         "prune": {**TRAIN, "fractions": "0,0.5"}}
OUTPUT = {"analyze": "analysis.csv", "sweep": "sweep.csv",
          "train": "trace.csv", "prune": "prune.csv"}


def run(tmp_path, command, cfg):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return main([command, "--config", str(path), "--out",
                 str(tmp_path / "out"), "--jobs", "1"])


def config(kind, command):
    keys, axis = NETWORKS[kind]
    cfg = {**SMALL, "kind": kind, **keys, **EXTRA[command]}
    if command == "sweep":
        cfg["axis"] = axis
    return cfg


def refused(tmp_path, capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err
    assert list((tmp_path / "out").iterdir()) == []


def test_the_table_lists_every_kind_once():
    assert set(NETWORKS) == set(KINDS)
    assert set(ALIGNED_KINDS) <= set(TRAINABLE_KINDS) <= set(EVALUATED_KINDS)
    assert trainer.EVALUATED_KINDS == EVALUATED_KINDS


@pytest.mark.parametrize("command", list(EXTRA))
@pytest.mark.parametrize("kind", list(NETWORKS))
def test_each_command_runs_exactly_the_kinds_the_table_supports(
        tmp_path, capsys, kind, command):
    supported = TRAINABLE_KINDS if command in ("train", "prune") \
        else EVALUATED_KINDS
    code = run(tmp_path, command, config(kind, command))
    if kind in supported:
        assert code == 0
        assert (tmp_path / "out" / OUTPUT[command]).exists()
    else:
        assert code == 2
        refused(tmp_path, capsys, f"kind {kind!r}")


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in sorted(EVALUATED_KINDS) for key in sorted(VALUES)
    if key not in NETWORKS[kind][0]])
def test_analyze_accepts_exactly_the_network_keys_the_table_lists(
        tmp_path, capsys, kind, key):
    cfg = {**config(kind, "analyze"), key: VALUES[key]}
    if key == "dims":
        cfg = {k: v for k, v in cfg.items() if k not in ("k", "m", "L")}
    if key in KINDS[kind]:
        assert run(tmp_path, "analyze", cfg) == 0
    else:
        assert run(tmp_path, "analyze", cfg) == 2
        refused(tmp_path, capsys, f"key {key!r}: kind {kind!r} does not read")


@pytest.mark.parametrize("kind", sorted(EVALUATED_KINDS))
def test_aligned_init_runs_on_exactly_the_aligned_kinds(tmp_path, capsys,
                                                        kind):
    cfg = {**config(kind, "analyze"), "init": "aligned_svd"}
    if kind in ALIGNED_KINDS:
        assert run(tmp_path, "analyze", cfg) == 0
    else:
        assert run(tmp_path, "analyze", cfg) == 2
        refused(tmp_path, capsys, "aligned init is defined for")


# A sweep whose every cell failed alike (exit 3), and a conv config whose
# dense widths were written as 2 and 16 (exit 0).
UNSUPPORTED = {
    "sweep_aligned_leaky_m": (
        "sweep", {"data": "synthetic", "d": "12", "n": "10",
                  "kind": "leaky_one_hidden", "k": "2", "m": "9",
                  "init": "aligned_svd", "axis": "m", "values": "4,9",
                  "seeds": "0"},
        "aligned init is defined for linear/residual kinds"),
    "analyze_conv_widths": (
        "analyze", {"data": "synthetic", "d": "12", "n": "64",
                    "kind": "linear_conv", "filters": "2", "kernel": "3",
                    "L": "7", "k": "5", "seeds": "0"},
        "key 'L': kind 'linear_conv' does not read it"),
}


@pytest.mark.parametrize("command, cfg, message", list(UNSUPPORTED.values()),
                         ids=list(UNSUPPORTED))
def test_a_config_the_kind_cannot_run_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, cfg, message):
    def not_reached(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "evaluate_instance", not_reached)
    assert run(tmp_path, command, cfg) == 2
    refused(tmp_path, capsys, message)


def test_the_library_still_refuses_what_the_cli_checks_first():
    ds = g.synthesize_gaussian(d=6, n=16, covariance_spectrum=np.ones(6))
    leaky = g.NetworkSpec(kind="leaky_one_hidden", dims=(6, 6, 2))
    with pytest.raises(SpecError, match="aligned init is defined for"):
        g.init_aligned_svd(leaky)
    conv = g.NetworkSpec(kind="linear_conv", dims=(6,),
                         conv_layers=((2, 1, 3), (2, 2, 3)))
    with pytest.raises(SpecError, match="'linear_conv' is not trainable"):
        g.pruning_experiment(conv, ds, [0.0], [0],
                             g.TrainConfig(learning_rate=0.01, epochs=1))


@pytest.mark.parametrize("d, code, built", [("101", 3, 0), ("6", 0, 1)])
def test_analyze_builds_the_data_terms_only_under_the_cap(
        tmp_path, monkeypatch, d, code, built):
    calls = []
    real = trainer.data_terms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trainer, "data_terms", counted)
    monkeypatch.setattr(cli, "data_terms", counted)
    cfg = {"data": "synthetic", "d": d, "n": "8", "kind": "linear_deep",
           "k": "100", "m": "4", "L": "2", "seeds": "0"}
    assert run(tmp_path, "analyze", cfg) == code
    assert len(calls) == built
