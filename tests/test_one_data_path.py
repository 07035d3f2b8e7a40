"""The data terms have one path into the evaluation core: the library `train`
and `pruning_experiment` build them once per call, the raw-sigma wrappers
equal the core called with Sigma^(1/2) or kappa(Sigma) bit for bit, and the
CLI refuses a data key its source does not read, and every config it
refuses, before any data is synthesized or read."""

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    TrainConfig,
    bound_deep_convex,
    bound_deep_max,
    bound_one_hidden,
    bound_residual_convex,
    bound_residual_max,
    cli,
    data_terms,
    gn_conv,
    gn_linear,
    gn_residual,
    init,
    lift_conv,
    pruning_experiment,
    pseudo_condition_number,
    psd_sqrt,
    sym_eigendecompose,
    synthesize_gaussian,
    train,
)
from gn_lens import trainer
from gn_lens.bounds import depth_bounds
from gn_lens.errors import ValidationError
from gn_lens.gauss_newton import gn_from_products
from gn_lens.network import Params, layer_products

from test_config_refusals import CASES as VALUE_REFUSALS
from test_unread_keys import CASES as KEY_REFUSALS

CFG = TrainConfig(learning_rate=0.01, epochs=10, batch_size=8)


def counting_data_terms(monkeypatch):
    calls = []
    real = trainer.data_terms

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trainer, "data_terms", spy)
    return calls


def labelled(kind, d=6):
    x = synthesize_gaussian(d=d, n=32, covariance_spectrum=np.logspace(1, -1, d),
                            seed=2).X
    return Dataset(X=x, Y=x[:2])


SPECS = {
    "linear_deep": NetworkSpec(kind="linear_deep", dims=(6, 8, 7, 2)),
    "residual": NetworkSpec(kind="residual", dims=(6, 6, 6, 2), beta=0.5),
    "leaky_one_hidden": NetworkSpec(kind="leaky_one_hidden", dims=(6, 9, 2),
                                    alpha=0.1),
}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_train_builds_the_data_terms_once(monkeypatch, kind):
    spec, ds = SPECS[kind], labelled(kind)
    params = init(spec, seed=1)
    supplied = train(spec, params, ds, CFG, None, data_terms(ds, kind))[1]
    calls = counting_data_terms(monkeypatch)
    built = train(spec, params, ds, CFG)[1]
    assert len(calls) == 1
    # Eleven checkpoints read the one record, with the supplied bits.
    assert len(built.checkpoints) == 11
    assert repr(built) == repr(supplied)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_pruning_experiment_builds_the_data_terms_once(monkeypatch, kind):
    spec, ds = SPECS[kind], labelled(kind)
    args = (spec, ds, [0.0, 0.5], [0, 1], CFG)
    supplied = pruning_experiment(*args, terms=data_terms(ds, kind))
    calls = counting_data_terms(monkeypatch)
    built = pruning_experiment(*args)
    assert len(calls) == 1
    assert list(map(fingerprint, built)) == list(map(fingerprint, supplied))


def fingerprint(cell):
    """The exact digits of every number a `PruneCell` holds (repr of a
    float is its shortest round-trip form)."""
    m = cell.at_init
    scalars = (m.kappa, m.kappa_sigma, m.bound_convex, m.bound_max,
               m.bound_other, m.terms, cell.trace)
    return repr(scalars), m.spectrum.values.tobytes()


def spd(d, seed=0):
    a = np.random.default_rng(seed).standard_normal((d, 2 * d))
    return a @ a.T / (2 * d)


def same_gn(a, b):
    return a.matrix.tobytes() == b.matrix.tobytes()


def test_the_gn_wrappers_equal_the_core_with_the_square_root():
    sigma = spd(6)
    deep = init(SPECS["linear_deep"], seed=3)
    res = init(SPECS["residual"], seed=4)
    core = [gn_from_products(p, layer_products(p, beta), psd_sqrt(sigma))
            for p, beta in ((deep, 0.0), (res, 0.5))]
    assert same_gn(gn_linear(deep, sigma), core[0])
    assert same_gn(gn_residual(res, 0.5, sigma), core[1])
    conv = NetworkSpec(kind="linear_conv", dims=(12,),
                       conv_layers=((2, 1, 3), (2, 2, 3)))
    lifted = Params(layers=tuple(lift_conv(conv, init(conv, seed=5))))
    sigma12 = spd(12, seed=1)
    assert same_gn(gn_conv(lifted.layers, sigma12),
                   gn_from_products(lifted, layer_products(lifted),
                                    psd_sqrt(sigma12)))


def test_the_bound_wrappers_equal_the_core_with_kappa_sigma():
    sigma = spd(6)
    ks = pseudo_condition_number(sym_eigendecompose(sigma))
    deep = init(SPECS["linear_deep"], seed=3)
    res = init(SPECS["residual"], seed=4)
    deep_core = depth_bounds(layer_products(deep, 0.0), ks)
    res_core = depth_bounds(layer_products(res, 0.5), ks)
    assert repr(bound_deep_convex(deep, sigma)) == repr(deep_core[0])
    assert repr(bound_deep_max(deep, sigma)) == repr(deep_core[1])
    assert repr(bound_residual_convex(res, 0.5, sigma)) == repr(res_core[0])
    assert repr(bound_residual_max(res, 0.5, sigma)) == repr(res_core[1])
    v, w = init(NetworkSpec(kind="linear_deep", dims=(6, 9, 2)), seed=6).layers
    one = bound_one_hidden(w, v, sigma)
    core = depth_bounds(layer_products(Params(layers=(v, w))), ks)[0]
    assert (one.value, one.kappa_sigma, one.terms) == (
        core.value, core.kappa_sigma, core.terms)


def test_the_sigma_error_comes_before_the_depth_terms_error():
    # A zero layer leaves the depth bounds undefined; a non-finite sigma is
    # refused first.
    spec = SPECS["linear_deep"]
    w1, w2, w3 = init(spec, seed=0).layers
    params = Params(layers=(w1, np.zeros_like(w2), w3))
    sigma = spd(6)
    sigma[0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        bound_deep_convex(params, sigma)


DEEP = {"seeds": "0", "kind": "linear_deep", "k": "1", "m": "6", "L": "3"}
SYNTHETIC = {"data": "synthetic", "d": "4", "n": "16"}

# (source keys, the unread key and its value)
DATA_KEY_REFUSALS = {
    "csv_d": ({"data": "csv", "data_path": "x.csv"}, "d", "99"),
    "csv_n": ({"data": "csv", "data_path": "x.csv"}, "n", "7"),
    "csv_cov_spectrum": ({"data": "csv", "data_path": "x.csv"},
                         "cov_spectrum", "ones"),
    "csv_limit": ({"data": "csv", "data_path": "x.csv"}, "limit", "-4"),
    "csv_data_seed": ({"data": "csv", "data_path": "x.csv"}, "data_seed", "1"),
    "synthetic_data_path": (SYNTHETIC, "data_path", "x.csv"),
    "synthetic_label_column": (SYNTHETIC, "label_column", "true"),
    "synthetic_limit": (SYNTHETIC, "limit", "3"),
    "idx_label_column": ({"data": "idx", "data_path": "x.idx"},
                         "label_column", "true"),
    "idx_d": ({"data": "idx", "data_path": "x.idx"}, "d", "4"),
}


def write_config(tmp_path, cfg):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return str(path)


@pytest.mark.parametrize("name", sorted(DATA_KEY_REFUSALS))
@pytest.mark.parametrize("command", ["analyze", "whiten"])
def test_a_data_key_the_source_does_not_read_is_refused(tmp_path, capsys,
                                                        command, name):
    source, key, value = DATA_KEY_REFUSALS[name]
    cfg = {**source, key: value, **(DEEP if command == "analyze" else {})}
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: key {key!r}: data = {source['data']} does not read "
        "it\n")
    assert list(out.iterdir()) == []


def test_a_negative_limit_is_refused(tmp_path, capsys):
    cfg = {"data": "idx", "data_path": "x.idx", "limit": "-4", **DEEP}
    assert cli.main(["analyze", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: key 'limit': must be >= 0, got -4\n")


TRAIN = {"lr": "0.01", "epochs": "2"}
WIDE = {"data": "synthetic", "d": "3000", "n": "10", "whiten": "true"}

# (command, config, extra arguments) refused before any data is needed
PRE_DATA_REFUSALS = {
    **{f"values_{name}": (command, cfg, []) for name, (command, cfg, _)
       in VALUE_REFUSALS.items()},
    **{f"keys_{name}": (command, cfg, []) for name, (command, cfg, _)
       in KEY_REFUSALS.items()},
    **{f"data_{name}": ("analyze", {**source, key: value, **DEEP}, [])
       for name, (source, key, value) in DATA_KEY_REFUSALS.items()},
    "wide_rank_policy": ("analyze", {**WIDE, **DEEP, "rank_policy": "bogus"},
                         []),
    "wide_sweep_rank_policy": (
        "sweep", {**WIDE, **DEEP, "rank_policy": "bogus", "axis": "m",
                  "values": "4,6"}, []),
    "train_untrainable_kind": (
        "train", {**WIDE, **DEEP, **TRAIN, "kind": "linear_conv",
                  "filters": "2", "kernel": "3"}, []),
    "train_negative_batch_size": (
        "train", {**WIDE, **DEEP, **TRAIN, "batch_size": "-5"}, []),
    "prune_fraction_over_one": (
        "prune", {**WIDE, **DEEP, **TRAIN, "fractions": "0,1.5"}, []),
    "negative_seed_override": ("analyze", {**WIDE, **DEEP},
                               ["--seed-override", "-1"]),
    "sweep_negative_jobs": ("sweep", {**WIDE, **DEEP, "axis": "m",
                                      "values": "4,6"}, ["--jobs", "-1"]),
    "init_sigma_nan": ("analyze", {**WIDE, **DEEP, "init": "gaussian",
                                   "init_sigma": "nan"}, []),
    "whiten_eigen_floor_nan": ("whiten", {**WIDE, "eigen_floor": "nan"}, []),
}


@pytest.mark.parametrize("name", sorted(PRE_DATA_REFUSALS))
def test_no_refusal_synthesizes_or_reads_data(tmp_path, capsys, monkeypatch,
                                              name):
    command, cfg, extra = PRE_DATA_REFUSALS[name]
    loads = []
    for loader in ("synthesize_gaussian", "load_csv", "load_idx"):
        monkeypatch.setattr(cli, loader,
                            lambda *a, _name=loader, **k: loads.append(_name))
    assert cli.main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out"), *extra]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert loads == []


@pytest.mark.parametrize("value, message", [
    ("false", "must be true, got 'false'"),
    ("0", "must be true, got '0'"),
    ("maybe", "not a boolean: 'maybe'"),
])
def test_the_whiten_command_refuses_its_key_unless_true(
        tmp_path, capsys, monkeypatch, value, message):
    monkeypatch.setattr(cli, "synthesize_gaussian",
                        lambda *a, **k: pytest.fail("data was synthesized"))
    cfg = {"data": "synthetic", "d": "4", "n": "16", "whiten": value}
    out = tmp_path / "out"
    assert cli.main(["whiten", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: key 'whiten': {message}\n")
    assert list(out.iterdir()) == []


def test_the_whiten_command_reads_whiten_true_as_no_key(tmp_path):
    cfg = {"data": "synthetic", "d": "4", "n": "16",
           "cov_spectrum": "logspace:1,-1"}
    outputs = []
    for extra in ({}, {"whiten": "true"}):
        out = tmp_path / f"out{len(outputs)}"
        assert cli.main(["whiten", "--config",
                         write_config(tmp_path, {**cfg, **extra}),
                         "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("whiten.csv", "whitened.csv")])
    assert outputs[0] == outputs[1]
