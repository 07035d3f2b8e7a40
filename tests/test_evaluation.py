"""The shared evaluation core (`trainer.checkpoint_metrics`) and the CLI paths
that run through it: conv analysis on the lifted proxy, the Leaky-ReLU
columns of `prune`, and config errors raised before any work starts."""

import math

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    Params,
    TrainConfig,
    bound_deep_convex,
    bound_deep_max,
    checkpoint_metrics,
    empirical_covariance,
    gn_conv,
    init,
    init_aligned_svd,
    lift_conv,
    prune_by_magnitude,
    pruning_experiment,
    pseudo_condition_number,
    synthesize_gaussian,
)
from gn_lens.cli import main


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_analyze_conv_reports_the_lifted_proxy(tmp_path):
    cfg = write_config(tmp_path, """
data = synthetic
d = 12
n = 40
data_seed = 5
kind = linear_conv
filters = 3
kernel = 3
seeds = 2
""")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
    row = read_table(tmp_path / "analysis.csv")[0]
    ds = synthesize_gaussian(d=12, n=40, covariance_spectrum=np.ones(12),
                             seed=5)
    spec = NetworkSpec(kind="linear_conv", dims=(12,),
                       conv_layers=((3, 1, 3), (3, 3, 3)))
    lifted = lift_conv(spec, init(spec, seed=2))
    sigma = empirical_covariance(ds)
    kappa = pseudo_condition_number(gn_conv(lifted, sigma).spectrum())
    lifted_params = Params(layers=tuple(lifted))
    assert float(row["kappa"]) == pytest.approx(kappa, rel=1e-12)
    assert float(row["bound_convex"]) == pytest.approx(
        bound_deep_convex(lifted_params, sigma).value, rel=1e-12)
    assert float(row["bound_max"]) == pytest.approx(
        bound_deep_max(lifted_params, sigma).value, rel=1e-12)
    assert row["bound_other"] == ""


def test_leaky_prune_fills_only_the_other_bound(tmp_path):
    cfg = write_config(tmp_path, """
data = synthetic
d = 12
n = 8
kind = leaky_one_hidden
k = 2
m = 10
alpha = 0.1
seeds = 0,1
fractions = 0,0.5
lr = 0.01
epochs = 4
""")
    assert main(["prune", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_table(tmp_path / "prune.csv")
    assert [(r["seed"], r["fraction"], r["epoch"]) for r in rows] == [
        (s, f, e) for s in ("0", "1") for f in ("0.0", "0.5") for e in "04"]
    for r in rows:
        assert r["bound_convex"] == "" and r["bound_max"] == ""
        assert float(r["bound_other"]) >= float(r["kappa"]) * (1 - 1e-10)
        assert (r["kappa_sigma"] != "") == (r["epoch"] == "0")


def test_sweep_missing_key_is_config_error_before_any_cell(tmp_path, capsys):
    cfg = write_config(tmp_path, """
data = synthetic
d = 12
n = 40
kind = linear_conv
axis = kernel
values = 2,3
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "'filters'" in capsys.readouterr().err
    assert not (out / "errors.log").exists()
    assert not (out / "sweep.csv").exists()


COMMAND_KEYS = {
    "analyze": "",
    "sweep": "axis = L\nvalues = 2\n",
    "train": "lr = 0.01\nepochs = 2\n",
    "prune": "lr = 0.01\nepochs = 2\n",
}


@pytest.mark.parametrize("command", list(COMMAND_KEYS))
def test_empty_seed_list_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, """
data = synthetic
d = 4
n = 30
kind = linear_deep
k = 2
m = 5
seeds = 5..0
""" + COMMAND_KEYS[command])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "'seeds'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


class TestCheckpointMetrics:
    def test_bounds_that_do_not_apply_are_nan(self):
        ds = synthesize_gaussian(d=6, n=4, covariance_spectrum=np.ones(6),
                                 seed=1)
        leaky = NetworkSpec(kind="leaky_one_hidden", dims=(6, 8, 2), alpha=0.2)
        m = checkpoint_metrics(leaky, init(leaky, seed=0), ds)
        assert math.isnan(m.bound_convex) and math.isnan(m.bound_max)
        assert m.bound_other >= m.kappa * (1 - 1e-10)
        assert m.terms == ()
        deep = NetworkSpec(kind="linear_deep", dims=(6, 8, 2))
        m = checkpoint_metrics(deep, init(deep, seed=0), ds)
        assert math.isnan(m.bound_other)
        assert m.bound_max >= m.bound_convex >= m.kappa * (1 - 1e-10)
        assert sum(t.weighted for t in m.terms) * m.kappa_sigma == \
            pytest.approx(m.bound_convex, rel=1e-12)

    def test_init_accepts_aligned_svd(self):
        spec = NetworkSpec(kind="residual", dims=(3, 5, 5, 2), beta=0.5)
        a = init(spec, scheme="aligned_svd", seed=7)
        b = init_aligned_svd(spec, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    def test_pruning_experiment_keeps_the_evaluation_at_init(self):
        spec = NetworkSpec(kind="linear_deep", dims=(4, 6, 2))
        ds = synthesize_gaussian(d=4, n=20, covariance_spectrum=np.ones(4),
                                 seed=2)
        rng = np.random.default_rng(3)
        ds = Dataset(X=ds.X, Y=rng.standard_normal((2, 4)) @ ds.X)
        cells = pruning_experiment(spec, ds, [0.25], [9],
                                   TrainConfig(learning_rate=0.01, epochs=1),
                                   scheme="gaussian", init_sigma=0.3)
        pruned = prune_by_magnitude(
            init(spec, scheme="gaussian", seed=9, sigma=0.3), 0.25)
        expect = checkpoint_metrics(spec, pruned, ds)
        assert cells[0].at_init.kappa == expect.kappa
        assert cells[0].kappa_init == expect.kappa
        assert cells[0].at_init.bound_convex == expect.bound_convex
