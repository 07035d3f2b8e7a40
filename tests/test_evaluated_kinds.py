"""`checkpoint_metrics` evaluates every kind the CLI evaluates, conv
included, and a sweep refuses before any cell runs a kind it cannot
evaluate or an axis its network does not read."""

import csv

import numpy as np
import pytest

import gn_lens as g
from gn_lens.cli import build_spec, init_params, load_dataset, main
from gn_lens.errors import SpecError
from gn_lens.network import (
    KINDS,
    LEAKY_ONE_HIDDEN,
    LINEAR_BN_ONE_HIDDEN,
    LINEAR_CONV,
    LINEAR_DEEP,
    RESIDUAL,
)
from gn_lens.trainer import EVALUATED_KINDS

SMALL = {"data": "synthetic", "d": "8", "n": "40", "seeds": "0",
         "cov_spectrum": "logspace:1,-1"}
CONV = {**SMALL, "kind": "linear_conv", "filters": "2", "kernel": "3"}

# kind -> the keys of a network of that kind, and a sweep axis it reads
NETWORKS = {
    LINEAR_DEEP: ({"k": "2", "m": "6", "L": "3"}, "L", "2,3"),
    RESIDUAL: ({"k": "2", "m": "6", "L": "3", "beta": "0.5"}, "beta",
               "0,0.5"),
    LEAKY_ONE_HIDDEN: ({"k": "2", "m": "6"}, "alpha", "0.1,0.5"),
    LINEAR_CONV: ({"filters": "2", "kernel": "3"}, "kernel", "2,3"),
    LINEAR_BN_ONE_HIDDEN: ({"k": "2", "m": "6", "L": "2"}, "m", "4,6"),
}


def run(tmp_path, command, cfg, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return main([command, "--config", str(path), "--out", str(tmp_path / out),
                 "--jobs", "1"])


def test_conv_metrics_are_what_analyze_writes_and_the_lifted_chains(
        tmp_path):
    assert run(tmp_path, "analyze", CONV) == 0
    with open(tmp_path / "out" / "analysis.csv") as fh:
        [row] = list(csv.DictReader(fh))
    ds = load_dataset(CONV)
    spec = build_spec(CONV, ds.d)
    params = init_params(spec, CONV, 0)
    m = g.checkpoint_metrics(spec, params, ds)
    for column in ("kappa", "bound_convex", "bound_max", "kappa_sigma"):
        assert repr(getattr(m, column)) == row[column], column
    sigma = g.empirical_covariance(ds)
    lifted = g.Params(layers=tuple(g.lift_conv(spec, params)))
    gn = g.gn_conv(lifted.layers, sigma)
    assert m.kappa == g.pseudo_condition_number(gn.spectrum())
    convex = g.bound_deep_convex(lifted, sigma)
    assert m.bound_convex == convex.value
    assert m.bound_max == g.bound_deep_max(lifted, sigma).value
    assert m.kappa_sigma == convex.kappa_sigma
    assert m.terms == convex.terms


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_metrics_and_the_sweep_agree_on_every_kind(tmp_path,
                                                              kind):
    keys, axis, values = NETWORKS[kind]
    cfg = {**SMALL, "kind": kind, **keys}
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    params = g.init(spec, seed=0)
    if kind in EVALUATED_KINDS:
        assert np.isfinite(g.checkpoint_metrics(spec, params, ds).kappa)
    else:
        with pytest.raises(SpecError, match="no analytic GN builder"):
            g.checkpoint_metrics(spec, params, ds)
    code = run(tmp_path, "sweep", {**cfg, "axis": axis, "values": values})
    assert code == (0 if kind in EVALUATED_KINDS else 2)


def _refused_before_any_cell(tmp_path, capsys, cfg, fragment):
    assert run(tmp_path, "sweep", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err
    assert not (tmp_path / "out" / "sweep.csv").exists()
    assert not (tmp_path / "out" / "errors.log").exists()
    return err


def test_an_unknown_kind_in_a_sweep_is_the_config_error_analyze_gives(
        tmp_path, capsys):
    cfg = {**SMALL, "kind": "abc", "k": "2", "m": "6", "L": "3"}
    err = _refused_before_any_cell(
        tmp_path, capsys, {**cfg, "axis": "L", "values": "2,3"}, "'abc'")
    assert run(tmp_path, "analyze", cfg, out="analyze") == 2
    assert capsys.readouterr().err == err


# (kind and network keys, axis the network leaves unread)
UNREAD_AXES = {
    "beta_on_deep": ({"kind": "linear_deep", "k": "2", "m": "6", "L": "3"},
                     "beta", "0,0.5"),
    "alpha_on_residual": ({"kind": "residual", "k": "2", "m": "6", "L": "3",
                           "beta": "0.5"}, "alpha", "0.1,0.5"),
    "kernel_on_deep": ({"kind": "linear_deep", "k": "2", "m": "6", "L": "3"},
                       "kernel", "2,3"),
    "L_on_conv": ({"kind": "linear_conv", "filters": "2", "kernel": "3"},
                  "L", "2,3"),
    "m_with_dims": ({"kind": "linear_deep", "dims": "8,6,2"}, "m", "4,6"),
}


@pytest.mark.parametrize("keys, axis, values", list(UNREAD_AXES.values()),
                         ids=list(UNREAD_AXES))
def test_a_sweep_over_an_unread_axis_is_a_config_error(tmp_path, capsys,
                                                      keys, axis, values):
    cfg = {**SMALL, **keys, "axis": axis, "values": values}
    _refused_before_any_cell(tmp_path, capsys, cfg, "key 'axis'")


def test_explicit_dims_still_let_a_residual_sweep_read_beta(tmp_path):
    cfg = {**SMALL, "kind": "residual", "dims": "8,6,2", "axis": "beta",
           "values": "0,0.5"}
    assert run(tmp_path, "sweep", cfg) == 0
    with open(tmp_path / "out" / "sweep.csv") as fh:
        assert [r["beta"] for r in csv.DictReader(fh)] == ["0.0", "0.5"]
