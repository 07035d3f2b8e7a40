"""`init_sigma`, `fractions` and `eigen_floor` outside their ranges are config
errors that name the key (exit 2, nothing written); `whiten` refuses a floor
that keeps no eigenvalue; and a sweep's set-up check draws no throwaway net
yet catches an aligned init that fails every cell alike."""

import numpy as np
import pytest

from gn_lens import cli, synthesize_gaussian, whiten
from gn_lens.errors import DegenerateDataError

SMALL = {"data": "synthetic", "d": "6", "n": "64", "seeds": "0,1"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "L": "3"}
TRAIN = {**DEEP, "lr": "0.01", "epochs": "2", "batch_size": "16"}
SWEEP = {**DEEP, "axis": "L", "values": "2,3"}
WHITEN = {"data": "synthetic", "d": "6", "n": "64",
          "cov_spectrum": "logspace:2,-2"}


def run(tmp_path, command, cfg, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / out), "--jobs", "1"])


BAD_VALUES = {
    "init_sigma_nan": ("analyze", {**DEEP, "init": "gaussian",
                                   "init_sigma": "nan"}, "init_sigma"),
    "init_sigma_inf": ("analyze", {**DEEP, "init": "gaussian",
                                   "init_sigma": "inf"}, "init_sigma"),
    "init_sigma_negative": ("analyze", {**DEEP, "init": "gaussian",
                                        "init_sigma": "-1"}, "init_sigma"),
    "train_init_sigma": ("train", {**TRAIN, "init": "gaussian",
                                   "init_sigma": "-1"}, "init_sigma"),
    "prune_init_sigma": ("prune", {**TRAIN, "init": "gaussian",
                                   "init_sigma": "nan"}, "init_sigma"),
    "sweep_init_sigma": ("sweep", {**SWEEP, "init": "gaussian",
                                   "init_sigma": "inf"}, "init_sigma"),
    "fraction_over_one": ("prune", {**TRAIN, "fractions": "0,1.5"},
                          "fractions"),
    "fraction_negative": ("prune", {**TRAIN, "fractions": "-0.5"},
                          "fractions"),
    "fraction_nan": ("prune", {**TRAIN, "fractions": "nan"}, "fractions"),
    "whiten_floor_nan": ("whiten", {**WHITEN, "eigen_floor": "nan"},
                         "eigen_floor"),
    "whiten_floor_inf": ("whiten", {**WHITEN, "eigen_floor": "inf"},
                         "eigen_floor"),
    "whiten_floor_two": ("whiten", {**WHITEN, "eigen_floor": "2"},
                         "eigen_floor"),
    "whiten_floor_one": ("whiten", {**WHITEN, "eigen_floor": "1"},
                         "eigen_floor"),
    "whiten_floor_negative": ("whiten", {**WHITEN, "eigen_floor": "-1"},
                              "eigen_floor"),
    "analyze_whitened_floor_nan": ("analyze", {**DEEP, "whiten": "true",
                                               "eigen_floor": "nan"},
                                   "eigen_floor"),
    "analyze_whitened_floor_two": ("analyze", {**DEEP, "whiten": "true",
                                               "eigen_floor": "2"},
                                   "eigen_floor"),
}


@pytest.mark.parametrize("command, cfg, key", list(BAD_VALUES.values()),
                         ids=list(BAD_VALUES))
def test_a_value_out_of_range_is_a_config_error_naming_its_key(
        tmp_path, capsys, command, cfg, key):
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key {key!r}: must be ")
    assert err.count("\n") == 1
    assert not list((tmp_path / "out").glob("*.csv"))


def test_values_in_range_still_run(tmp_path):
    assert run(tmp_path, "whiten", {**WHITEN, "eigen_floor": "0"}) == 0
    assert run(tmp_path, "analyze", {**DEEP, "init": "gaussian",
                                     "init_sigma": "0.5"}, out="a") == 0
    assert run(tmp_path, "prune", {**TRAIN, "fractions": "0,0.25"},
               out="p") == 0


@pytest.mark.parametrize("floor", [1.0, 2.0, np.nan, np.inf])
def test_whiten_refuses_a_floor_that_keeps_no_eigenvalue(floor):
    ds = synthesize_gaussian(d=4, n=30, covariance_spectrum=[4.0, 3.0, 2.0, 1.0],
                             seed=0)
    with pytest.raises(DegenerateDataError, match="eigen_floor"):
        whiten(ds, eigen_floor=floor)


def count_normals(monkeypatch):
    """Make every `np.random.default_rng` count the normals it draws."""
    counts = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, *args, **kwargs):
            out = self._rng.standard_normal(*args, **kwargs)
            counts.append(np.size(out))
            return out

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: Counting(real(*args)))
    return counts


def test_an_explicit_dims_sweep_draws_one_net(tmp_path, monkeypatch):
    counts = count_normals(monkeypatch)
    cfg = {"data": "synthetic", "d": "5", "n": "40", "kind": "residual",
           "dims": "5,7,7,2", "axis": "beta", "values": "0,0.5", "seeds": "0"}
    assert run(tmp_path, "sweep", cfg) == 0
    # 25 + 200 for the data, 35 + 49 + 14 for the one net both cells share.
    assert sum(counts) == 323


ALIGNED_FAILING_EVERY_CELL = {
    "leaky_alpha": ({"data": "synthetic", "d": "12", "n": "10",
                     "kind": "leaky_one_hidden", "k": "2", "m": "9",
                     "axis": "alpha", "values": "0,0.5"},
                    "key 'init': aligned init is defined for linear/residual "
                    "kinds, not 'leaky_one_hidden'"),
    "narrow_residual_beta": ({"data": "synthetic", "d": "4", "n": "30",
                              "kind": "residual", "k": "2", "m": "3", "L": "3",
                              "axis": "beta", "values": "0,0.5"},
                             "aligned init requires hidden width >= end "
                             "widths"),
}


@pytest.mark.parametrize("cfg, message",
                         list(ALIGNED_FAILING_EVERY_CELL.values()),
                         ids=list(ALIGNED_FAILING_EVERY_CELL))
def test_an_aligned_init_failing_every_cell_is_refused_before_any_cell(
        tmp_path, capsys, monkeypatch, cfg, message):
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "evaluate_instance", no_cell)
    cfg = {**cfg, "init": "aligned_svd", "seeds": "0"}
    assert run(tmp_path, "sweep", cfg) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out" / "errors.log").exists()


# The draw itself overflows, and NumPy warns of it.
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowing_draw_on_explicit_dims_fails_cell_by_cell(tmp_path,
                                                                 capsys):
    cfg = {**SMALL, "kind": "residual", "dims": "6,8,2", "init": "gaussian",
           "init_sigma": "1e308", "axis": "beta", "values": "0,0.5"}
    assert run(tmp_path, "sweep", cfg) == 3
    assert capsys.readouterr().err == "numeric error: every sweep cell failed\n"
    assert "non-finite" in (tmp_path / "out" / "errors.log").read_text()
