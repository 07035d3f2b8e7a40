"""The dataset's evaluation terms (Sigma, kappa(Sigma), Sigma^(1/2), the
singular values of X) are built once per command and read by every cell and
checkpoint with the same bits as terms each evaluation builds itself; a
pruning cell whose kappa is undefined fails alone; an overflowing
`init_sigma` is named."""

import warnings
from dataclasses import astuple

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    PruneCell,
    TrainConfig,
    checkpoint_metrics,
    cli,
    data_terms,
    pruning_experiment,
    synthesize_gaussian,
)
from gn_lens import bounds, trainer
from gn_lens.errors import RankZeroError
from gn_lens.network import Params, init

SMALL = {"data": "synthetic", "d": "6", "n": "64", "seeds": "0,1"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "L": "3"}
TRAIN = {"lr": "0.01", "epochs": "4", "batch_size": "16",
         "trace_every": "2"}
LEAKY = {"data": "synthetic", "d": "12", "n": "10", "seeds": "0,1",
         "kind": "leaky_one_hidden", "k": "2", "m": "9"}
RESIDUAL = {"data": "synthetic", "d": "10", "n": "80",
            "cov_spectrum": "logspace:1,-1", "kind": "residual",
            "beta": "0.5", "seeds": "0,2", "k": "3", "m": "10"}


def run(tmp_path, command, cfg, *extra, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / out), *extra])


def counting(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that records its arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


COMMANDS = {
    "analyze": ("analyze", DEEP),
    "analyze_leaky": ("analyze", LEAKY),
    "sweep": ("sweep", {**DEEP, "axis": "L", "values": "1,2,3"}),
    "sweep_leaky": ("sweep", {**LEAKY, "axis": "alpha",
                              "values": "0,0.1,0.5"}),
    "train": ("train", {**DEEP, **TRAIN}),
    "train_leaky": ("train", {**LEAKY, **TRAIN}),
    "prune": ("prune", {**DEEP, **TRAIN, "fractions": "0,0.5"}),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_builds_the_data_terms_once(tmp_path, monkeypatch, name):
    command, cfg = COMMANDS[name]
    covariances = counting(monkeypatch, trainer, "empirical_covariance")
    # The CLI evaluates through its own name for checkpoint_metrics.
    evaluations = [counting(monkeypatch, module, "checkpoint_metrics")
                   for module in (cli, trainer)]
    x_shape = (int(cfg["d"]), int(cfg["n"]))
    svds = [counting(monkeypatch, module, "svdvals")
            for module in (trainer, bounds)]
    assert run(tmp_path, command, cfg, "--jobs", "2") == 0
    assert len(covariances) == 1
    count = sum(map(len, evaluations))
    assert count == 1 if command == "analyze" else count > 2
    x_svds = [a for calls in svds for a in calls if a[0].shape == x_shape]
    assert len(x_svds) == (1 if cfg["kind"] == "leaky_one_hidden" else 0)


def bottleneck():
    spec = NetworkSpec(kind="residual", dims=(10, 14, 6, 9, 3), beta=0.5)
    return spec, init(spec, seed=0), 10


def zero_middle_layer():
    """A zero layer makes the partial products around it zero, so the depth
    bounds are undefined (`AssumptionError`) while kappa is not."""
    spec = NetworkSpec(kind="linear_deep", dims=(6, 8, 7, 2))
    w1, w2, w3 = init(spec, seed=4).layers
    return spec, Params(layers=(w1, np.zeros_like(w2), w3)), 6


INSTANCES = {
    "linear_deep": lambda: (NetworkSpec(kind="linear_deep", dims=(6, 8, 7, 2)),
                            None, 6),
    "residual_bottleneck": bottleneck,
    "linear_conv": lambda: (NetworkSpec(kind="linear_conv", dims=(6,),
                                        conv_layers=((2, 1, 3), (2, 2, 3))),
                            None, 6),
    "leaky_one_hidden": lambda: (NetworkSpec(kind="leaky_one_hidden",
                                             dims=(12, 9, 2), alpha=0.1),
                                 None, 12),
    "depth_bounds_undefined": zero_middle_layer,
}


def fingerprint(m):
    """The bytes of every number a `Metrics` holds."""
    scalars = (m.kappa, m.kappa_sigma, m.bound_convex, m.bound_max,
               m.bound_other)
    return (np.array(scalars).tobytes(), m.spectrum.values.tobytes(),
            np.array([astuple(t) for t in m.terms], dtype=float).tobytes())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_supplied_terms_give_byte_identical_metrics(name):
    spec, params, d = INSTANCES[name]()
    if params is None:
        params = init(spec, seed=3)
    n = 10 if spec.kind == "leaky_one_hidden" else 40
    ds = synthesize_gaussian(d=d, n=n, covariance_spectrum=np.logspace(1, -1, d),
                             seed=5)
    terms = data_terms(ds, spec.kind)
    built = checkpoint_metrics(spec, params, ds)
    supplied = checkpoint_metrics(spec, params, ds, None, terms)
    assert fingerprint(supplied) == fingerprint(built)
    # The same terms serve a second evaluation unchanged.
    again = checkpoint_metrics(spec, params, ds, None, terms)
    assert fingerprint(again) == fingerprint(built)
    assert np.isfinite(built.kappa)
    assert np.isfinite(built.kappa_sigma)
    if name == "depth_bounds_undefined":
        assert np.isnan(built.bound_convex) and np.isnan(built.bound_max)
        assert built.terms == ()
    elif spec.kind == "leaky_one_hidden":
        assert np.isfinite(built.bound_other)
    else:
        assert np.isfinite(built.bound_convex)


def test_the_shared_arrays_are_read_only():
    ds = synthesize_gaussian(d=4, n=9, covariance_spectrum=np.ones(4), seed=0)
    for kind in ("linear_deep", "leaky_one_hidden"):
        terms = data_terms(ds, kind)
        shared = [a for a in (terms.sigma_half, terms.x_singular)
                  if a is not None]
        assert len(shared) == 1
        for a in shared:
            with pytest.raises(ValueError):
                a[0] = 1.0


SWEEPS = {
    "leaky_alpha": {**LEAKY, "seeds": "0,1,2", "axis": "alpha",
                    "values": "0,0.01,0.1,0.5"},
    "residual_beta": {**RESIDUAL, "L": "4", "axis": "beta",
                      "values": "0,0.25,1"},
    "partial_failure": {**DEEP, "axis": "L", "values": "0,2,3"},
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_two_workers_write_what_one_writes(tmp_path, name):
    cfg = SWEEPS[name]
    assert run(tmp_path, "sweep", cfg, "--jobs", "1", out="one") == 0
    assert run(tmp_path, "sweep", cfg, "--jobs", "2", out="two") == 0
    one = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert one == sorted(p.name for p in (tmp_path / "two").iterdir())
    for file in one:
        assert ((tmp_path / "one" / file).read_bytes()
                == (tmp_path / "two" / file).read_bytes())


def test_a_fraction_of_one_fails_only_its_own_cells(tmp_path, capsys):
    cfg = {**DEEP, **TRAIN, "fractions": "0,1"}
    assert run(tmp_path, "prune", cfg) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "out" / "prune.csv").read_text().splitlines()[1:]
    # Fraction 0 of both seeds: its epoch-0 and last-checkpoint rows.
    assert len(rows) == 4
    assert {row.split(",")[9] for row in rows} == {"0.0"}
    assert (tmp_path / "out" / "errors.log").read_text() == (
        "cell 1 (fraction=1.0, seed=0): all spectrum values at or below "
        "the cutoff\n"
        "cell 3 (fraction=1.0, seed=1): all spectrum values at or below "
        "the cutoff\n")


def test_a_prune_whose_every_cell_fails_exits_3(tmp_path, capsys):
    assert run(tmp_path, "prune", {**DEEP, **TRAIN, "fractions": "1"}) == 3
    assert capsys.readouterr().err == "numeric error: every prune cell failed\n"
    assert not (tmp_path / "out" / "prune.csv").exists()
    assert len((tmp_path / "out" / "errors.log").read_text().splitlines()) == 2


def test_pruning_experiment_returns_a_failed_cell_as_its_error():
    spec = NetworkSpec(kind="linear_deep", dims=(6, 8, 7, 2))
    x = synthesize_gaussian(d=6, n=40, covariance_spectrum=np.ones(6),
                            seed=1).X
    cells = pruning_experiment(spec, Dataset(X=x, Y=x[:2]), [0.0, 1.0, 0.5],
                               [3], TrainConfig(learning_rate=0.01, epochs=2))
    assert isinstance(cells[0], PruneCell) and isinstance(cells[2], PruneCell)
    assert isinstance(cells[1], RankZeroError)
    assert (cells[0].fraction, cells[2].fraction) == (0.0, 0.5)


@pytest.mark.parametrize("command,extra", [
    ("analyze", {}),
    ("train", TRAIN),
])
def test_an_overflowing_init_sigma_is_named(tmp_path, capsys, command, extra):
    cfg = {**DEEP, **extra, "init": "gaussian", "init_sigma": "1e308"}
    # A NumPy overflow warning would be an error here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, command, cfg) == 3
    assert capsys.readouterr().err == (
        "numeric error: init_sigma 1e+308 is too large: the drawn weights "
        "contain non-finite entries\n")
