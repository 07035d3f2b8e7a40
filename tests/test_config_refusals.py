"""Config values refused before any work: each exits 2 with a message that
names its key, and writes no CSV."""

import pytest

from gn_lens import cli
from gn_lens.errors import ValidationError
from gn_lens.linalg import RankPolicy

DEEP = {"data": "synthetic", "d": "4", "n": "16", "seeds": "0",
        "kind": "linear_deep", "k": "2", "m": "6", "L": "3"}
SWEEP = {**DEEP, "axis": "m", "values": "4,6"}
NO_DATA = {k: v for k, v in DEEP.items() if k not in ("d", "n")}

# (command, config, key the message names)
CASES = {
    "whiten_not_boolean": ("analyze", {**DEEP, "whiten": "maybe"}, "whiten"),
    "csv_without_path": ("analyze", {**NO_DATA, "data": "csv"}, "data_path"),
    "idx_without_path": ("analyze", {**NO_DATA, "data": "idx"}, "data_path"),
    "unknown_data_source": ("analyze", {**NO_DATA, "data": "hdf5"}, "data"),
    "rank_policy_no_colon": ("analyze", {**DEEP, "rank_policy": "tight"},
                             "rank_policy"),
    "rank_policy_bad_mode": ("analyze", {**DEEP, "rank_policy": "spectral:2"},
                             "rank_policy"),
    "rank_policy_bad_rank": ("analyze", {**DEEP, "rank_policy": "analytic:x"},
                             "rank_policy"),
    "rank_policy_zero_rank": ("analyze",
                              {**DEEP, "rank_policy": "analytic:0"},
                              "rank_policy"),
    "rank_policy_negative": ("analyze",
                             {**DEEP, "rank_policy": "relative:-1"},
                             "rank_policy"),
    **{f"rank_policy_{mode}_{value}": (
        "analyze", {**DEEP, "rank_policy": f"{mode}:{value}"}, "rank_policy")
       for mode in ("relative", "absolute") for value in ("nan", "inf")},
    "sweep_rank_policy_nan": ("sweep", {**SWEEP, "rank_policy": "relative:nan"},
                              "rank_policy"),
    "train_rank_policy_inf": ("train",
                              {**DEEP, "rank_policy": "absolute:inf",
                               "lr": "0.01", "epochs": "2"}, "rank_policy"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusal_names_its_key_and_writes_nothing(tmp_path, capsys, name):
    command, cfg, key = CASES[name]
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key {key!r}: ")
    assert err.count("\n") == 1
    assert not list(out.glob("**/*.csv"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("make", [RankPolicy.relative, RankPolicy.absolute])
def test_rank_policy_refuses_non_finite_and_negative_values(make, value):
    with pytest.raises(ValidationError, match="finite and >= 0"):
        make(value)


@pytest.mark.parametrize("make", [RankPolicy.relative, RankPolicy.absolute])
def test_rank_policy_takes_zero(make):
    assert make(0.0).value == 0.0
