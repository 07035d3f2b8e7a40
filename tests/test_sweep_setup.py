"""A sweep builds its network once at set-up, with the axis at a value every
network reading it accepts, so an error in a key the axis does not set is
exit 2 with `analyze`'s message before any cell runs; an error of the axis
value stays a cell failure. `eigen_floor` without `whiten`, and
`teacher_seed` on labelled CSV data, are unread keys refused before any data
is synthesized or read."""

import numpy as np
import pytest

from gn_lens import cli

SMALL = {"data": "synthetic", "d": "6", "n": "12", "seeds": "0"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "4", "L": "3"}
TRAIN = {"lr": "0.01", "epochs": "2", "batch_size": "4"}


def run(tmp_path, command, cfg, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / out), "--jobs", "1"])


def forbid(monkeypatch, name):
    def called(*args, **kwargs):
        raise AssertionError(f"cli.{name} ran")

    monkeypatch.setattr(cli, name, called)


# name -> (network keys, axis, sweep values, message). `analyze` runs the same
# keys with the axis key at the first value.
SETUP_ERRORS = {
    "leaky_three_layers": ({"kind": "leaky_one_hidden", "dims": "6,4,4,2"},
                           "alpha", "0,0.5",
                           "one-hidden kinds need dims = [d, m, k]"),
    "residual_beta_nan": ({"kind": "residual", "k": "2", "m": "4",
                           "beta": "nan"}, "L", "2,3",
                          "beta must be finite and >= 0, got nan"),
    "conv_kernel_over_signal": ({"kind": "linear_conv", "kernel": "9"},
                                "filters", "1,2",
                                "kernel 9 exceeds signal length 6"),
    "leaky_alpha_three": ({"kind": "leaky_one_hidden", "k": "2",
                           "alpha": "3"}, "m", "2,4",
                          "alpha must lie in [0, 1]"),
    "residual_k_not_an_integer": ({"kind": "residual", "k": "abc", "m": "4",
                                   "L": "3"}, "beta", "0,0.5",
                                  "key 'k': not an integer: 'abc'"),
    "residual_width_zero": ({"kind": "residual", "k": "2", "m": "0",
                             "L": "3"}, "beta", "0,0.5",
                            "all widths must be >= 1"),
    "residual_dims_off_d": ({"kind": "residual", "dims": "5,7,7,2"}, "beta",
                            "0,0.5", "key 'dims': must start with the data's "
                                     "d=6, got '5,7,7,2'"),
    "residual_dims_not_integers": ({"kind": "residual", "dims": "6,x"},
                                   "beta", "0,0.5",
                                   "key 'dims': bad integer list: '6,x'"),
}


@pytest.mark.parametrize("net, axis, values, message",
                         list(SETUP_ERRORS.values()), ids=list(SETUP_ERRORS))
def test_an_error_off_the_axis_is_refused_with_analyzes_message(
        tmp_path, capsys, monkeypatch, net, axis, values, message):
    forbid(monkeypatch, "evaluate_instance")
    first = values.split(",")[0]
    assert run(tmp_path, "analyze", {**SMALL, **net, axis: first}, "a") == 2
    expected = f"config error: {message}\n"
    assert capsys.readouterr().err == expected
    cfg = {**SMALL, **net, "axis": axis, "values": values}
    assert run(tmp_path, "sweep", cfg) == 2
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out" / "errors.log").exists()
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_a_width_of_zero_is_refused_even_where_only_depth_one_cells_run(
        tmp_path, capsys):
    cfg = {**DEEP, "m": "0", "axis": "L", "values": "1"}
    assert run(tmp_path, "sweep", cfg) == 2
    assert capsys.readouterr().err == "config error: all widths must be >= 1\n"


def test_a_kernel_longer_than_the_signal_stays_a_cell_failure(tmp_path):
    cfg = {**SMALL, "seeds": "0,1", "kind": "linear_conv", "filters": "2",
           "axis": "kernel", "values": "3,9"}
    assert run(tmp_path, "sweep", cfg) == 0
    assert (tmp_path / "out" / "errors.log").read_text() == "".join(
        f"cell {i} (kernel=9, seed={seed}): kernel 9 exceeds signal length 6\n"
        for i, seed in ((2, 0), (3, 1)))
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3


FLOOR = "config error: key 'eigen_floor': whiten = false does not read it\n"


@pytest.mark.parametrize("command", ["analyze", "sweep", "train", "prune"])
@pytest.mark.parametrize("whiten", [None, "false"])
def test_a_floor_without_whitening_is_refused_before_any_data(
        tmp_path, capsys, monkeypatch, command, whiten):
    forbid(monkeypatch, "synthesize_gaussian")
    cfg = {**DEEP, **TRAIN, "eigen_floor": "nan"}
    if command in ("analyze", "sweep"):
        cfg = {**DEEP, "eigen_floor": "nan"}
    if command == "sweep":
        cfg.update(axis="L", values="2,3")
    if whiten is not None:
        cfg["whiten"] = whiten
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err == FLOOR


def write_labels(tmp_path):
    """48 rows of four features and a label."""
    rng = np.random.default_rng(0)
    path = tmp_path / "labels.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in rng.standard_normal((48, 5))))
    return path


LABELLED = {"data": "csv", "label_column": "true", "seeds": "0",
            "kind": "linear_deep", "k": "1", "m": "4", "L": "3", **TRAIN}


@pytest.mark.parametrize("command", ["train", "prune"])
@pytest.mark.parametrize("teacher_seed", ["-3", "3"])
def test_a_teacher_seed_on_labelled_data_is_refused_before_any_data(
        tmp_path, capsys, monkeypatch, command, teacher_seed):
    forbid(monkeypatch, "load_csv")
    cfg = {**LABELLED, "data_path": str(write_labels(tmp_path)),
           "teacher_seed": teacher_seed}
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err == ("config error: key 'teacher_seed': "
                                       "label_column = true does not read it\n")


def test_a_negative_teacher_seed_is_refused_before_any_data(
        tmp_path, capsys, monkeypatch):
    forbid(monkeypatch, "synthesize_gaussian")
    assert run(tmp_path, "train", {**DEEP, **TRAIN, "teacher_seed": "-3"}) == 2
    assert capsys.readouterr().err == (
        "config error: key 'teacher_seed': must be >= 0, got -3\n")


def test_a_label_column_off_csv_is_still_an_unread_data_key(tmp_path, capsys):
    cfg = {**DEEP, **TRAIN, "label_column": "true", "teacher_seed": "3"}
    assert run(tmp_path, "train", cfg) == 2
    assert capsys.readouterr().err == (
        "config error: key 'label_column': data = synthetic does not read it\n")


def test_the_keys_each_data_reads_still_run(tmp_path, capsys):
    labels = str(write_labels(tmp_path))
    assert run(tmp_path, "train", {**LABELLED, "data_path": labels}) == 0
    assert run(tmp_path, "train", {**LABELLED, "data_path": labels,
                                   "label_column": "false",
                                   "teacher_seed": "3"}, "t") == 0
    assert run(tmp_path, "whiten", {"data": "synthetic", "d": "6", "n": "12",
                                    "eigen_floor": "1e-8"}, "w") == 0
    assert run(tmp_path, "analyze", {**DEEP, "whiten": "true",
                                     "eigen_floor": "1e-8"}, "a") == 0
    assert capsys.readouterr().err == ""
