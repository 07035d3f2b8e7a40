"""Config values the runner cannot use are config errors (exit 2) that name
their key, and no config value at all ends in a raw exception."""

import warnings

import pytest

from gn_lens import TrainConfig, cli, init, train
from gn_lens.cli import ALLOWED_KEYS, build_spec, load_dataset, main
from gn_lens.cli import _teacher_targets

SMALL = {"data": "synthetic", "d": "4", "n": "16", "seeds": "0"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "L": "3"}
RESIDUAL = {**SMALL, "kind": "residual", "beta": "0.5", "k": "2", "m": "4",
            "L": "3"}
LEAKY = {**SMALL, "kind": "leaky_one_hidden", "k": "2", "m": "6",
         "alpha": "0.1"}
TRAIN = {**DEEP, "lr": "0.01", "epochs": "2", "batch_size": "8",
         "trace_every": "1", "teacher_seed": "3"}
SWEEP = {**DEEP, "axis": "L", "values": "1,2"}
CONV = {**SMALL, "d": "8", "kind": "linear_conv", "filters": "2",
        "kernel": "3"}
DIMS = {**SMALL, "kind": "linear_deep", "dims": "4,8,8,2"}

# name -> (command, base config)
BASES = {
    "analyze_deep": ("analyze", DEEP),
    "analyze_residual": ("analyze", RESIDUAL),
    "analyze_leaky": ("analyze", LEAKY),
    "analyze_conv": ("analyze", CONV),
    "analyze_dims": ("analyze", DIMS),
    "train": ("train", TRAIN),
    "sweep_L": ("sweep", SWEEP),
}


def run(tmp_path, command, cfg, *flags):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return main([command, "--config", str(path), "--out",
                 str(tmp_path / "out"), "--jobs", "1", *flags])


# (base, key, value, fragment of the message that names the key)
BAD_VALUES = [
    ("analyze_deep", "d", "-1", "key 'd'"),
    ("analyze_deep", "n", "-1", "key 'n'"),
    ("analyze_deep", "d", "0", "key 'd'"),
    ("analyze_deep", "n", "0", "key 'n'"),
    ("analyze_deep", "seeds", "-1", "key 'seeds'"),
    ("analyze_deep", "data_seed", "-1", "key 'data_seed'"),
    ("train", "teacher_seed", "-1", "key 'teacher_seed'"),
    ("train", "lr", "-1", "key 'lr'"),
    ("train", "trace_every", "0", "key 'trace_every'"),
    ("analyze_deep", "init", "unknown", "key 'init'"),
    ("analyze_residual", "beta", "nan", "beta must be finite"),
    ("analyze_residual", "beta", "inf", "beta must be finite"),
    ("analyze_residual", "beta", "1e309", "beta must be finite"),
    ("sweep_L", "values", "nan", "key 'values'"),
    ("sweep_L", "values", "inf", "key 'values'"),
    ("sweep_L", "values", "-inf", "key 'values'"),
    ("sweep_L", "values", "1e309", "key 'values'"),
    ("sweep_L", "values", "2.5,3", "key 'values'"),
    ("analyze_deep", "cov_spectrum", "1,abc,1,1", "bad cov_spectrum"),
    ("analyze_dims", "dims", "", "key 'dims'"),
    ("analyze_conv", "filters", "0", "key 'filters'"),
    ("analyze_conv", "kernel", "-1", "key 'kernel'"),
]


@pytest.mark.parametrize("base, key, value, fragment", BAD_VALUES)
def test_bad_value_is_a_config_error_naming_its_key(tmp_path, capsys, base,
                                                    key, value, fragment):
    command, cfg = BASES[base]
    assert run(tmp_path, command, {**cfg, key: value}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err and "Traceback" not in err


TRAIN_CONV = {**TRAIN, "d": "8", "kind": "linear_conv", "filters": "2",
              "kernel": "3"}
TRAIN_BN = {**TRAIN, "kind": "linear_bn_one_hidden", "L": "2"}

# id -> (command, config, CLI flags, fragment of the message): a spec the
# config makes inconsistent, or a flag value out of range.
BAD_SPECS = {
    "conv_kernel_over_signal": (
        "analyze", {**CONV, "kernel": "9"}, (),
        "kernel 9 exceeds signal length 8"),
    "conv_kernel_over_second_signal": (
        "analyze", {**CONV, "kernel": "5"}, (),
        "kernel 5 exceeds signal length 4"),
    "train_conv": ("train", TRAIN_CONV, (), "'linear_conv' is not trainable"),
    "prune_conv": ("prune", TRAIN_CONV, (), "'linear_conv' is not trainable"),
    "train_bn": ("train", TRAIN_BN, (),
                 "'linear_bn_one_hidden' is not trainable"),
    "prune_bn": ("prune", TRAIN_BN, (),
                 "'linear_bn_one_hidden' is not trainable"),
    "aligned_unequal_hidden": (
        "analyze", {**SMALL, "kind": "linear_deep", "dims": "4,6,8,2",
                    "init": "aligned_svd"}, (),
        "equal (square) hidden widths"),
    "analyze_bn": ("analyze", {**DEEP, "kind": "linear_bn_one_hidden",
                               "L": "2"}, (), "no analytic GN builder"),
    "negative_seed_override": ("analyze", DEEP, ("--seed-override", "-1"),
                               "'--seed-override'"),
}


@pytest.mark.parametrize("command, cfg, flags, fragment",
                         list(BAD_SPECS.values()), ids=list(BAD_SPECS))
def test_bad_spec_is_a_config_error(tmp_path, capsys, command, cfg, flags,
                                    fragment):
    assert run(tmp_path, command, cfg, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err and "Traceback" not in err


def test_unknown_init_is_a_config_error_in_every_command(tmp_path, capsys):
    for command, cfg in (("sweep", SWEEP), ("train", TRAIN),
                         ("prune", {**TRAIN, "fractions": "0,0.5"})):
        assert run(tmp_path, command, {**cfg, "init": "unknown"}) == 2
        assert "key 'init'" in capsys.readouterr().err


def test_an_integer_axis_value_that_fails_fails_only_its_cell(tmp_path):
    assert run(tmp_path, "sweep", {**SWEEP, "values": "0,2"}) == 0
    assert "L=0" in (tmp_path / "out" / "errors.log").read_text()
    assert run(tmp_path, "sweep", {**SWEEP, "values": "0"}) == 3


@pytest.mark.parametrize("spectrum", ["-1,1,1,1", "1,nan,2,1", "1,inf,2,1",
                                      "logspace:1,nan", "logspace:400,1"])
def test_a_bad_covariance_spectrum_is_a_config_error(tmp_path, capsys,
                                                     monkeypatch, spectrum):
    def not_reached(*args, **kwargs):
        raise AssertionError("data synthesized before cov_spectrum is checked")

    monkeypatch.setattr(cli, "synthesize_gaussian", not_reached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from logspace
        assert run(tmp_path, "analyze", {**DEEP, "cov_spectrum": spectrum}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'cov_spectrum'")
    assert err.count("\n") == 1


GRID_KEYS = ("d", "n", "k", "m", "L", "beta", "alpha", "init", "seeds",
             "data_seed", "kind", "lr", "epochs", "batch_size", "trace_every",
             "teacher_seed", "values", "filters", "kernel", "dims",
             "cov_spectrum")
GRID_VALUES = ("-1", "0", "2.5", "nan", "inf", "-inf", "1e309", "abc", "",
               "3..1")


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_grid_value_gives_an_exit_code(tmp_path, capsys, base):
    command, cfg = BASES[base]
    keys = [key for key in GRID_KEYS if key in ALLOWED_KEYS[command]]
    for key in keys:
        for value in GRID_VALUES:
            code = run(tmp_path, command, {**cfg, key: value})
            assert code in (0, 2, 3, 4), (key, value, code)
    assert "Traceback" not in capsys.readouterr().err


DIVERGING = {**DEEP, "lr": "5", "epochs": "300", "batch_size": "8",
             "trace_every": "100"}


def test_divergence_raises_no_numpy_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "train", DIVERGING) == 0
        ds = load_dataset(DIVERGING)
        spec = build_spec(DIVERGING, ds.d)
        _, trace = train(spec, init(spec, seed=0),
                         _teacher_targets(DIVERGING, spec, ds),
                         TrainConfig(learning_rate=5.0, epochs=300,
                                     batch_size=8, trace_every=100))
    assert trace.diverged and [c.epoch for c in trace.checkpoints] == [0]

