"""Instances where a bound or a product is undefined or not representable:
a blank bound instead of an aborted run, and exit 3 with a message that
names the problem instead of a traceback or an internal argument name."""

import math

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    bound_deep_convex,
    checkpoint_metrics,
    empirical_covariance,
    init,
    prune_by_magnitude,
    pseudo_condition_number,
    synthesize_gaussian,
    sym_eigendecompose,
)
from gn_lens.cli import main
from gn_lens.errors import NumericError

SMALL_LINEAR = """
data = synthetic
d = 6
n = 64
kind = linear_deep
k = 2
m = 8
L = 3
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_prune_leaves_undefined_bounds_blank(tmp_path):
    # At fraction 0.9 the k = 2 output layer keeps one weight, so every
    # product above layer 1 is rank-deficient and the depth bounds are
    # undefined; kappa is not.
    cfg = write_config(tmp_path, SMALL_LINEAR + "lr = 0.01\nepochs = 2\nseeds = 0..1\n")
    assert main(["prune", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_table(tmp_path / "prune.csv")
    cells = {(r["seed"], r["fraction"]) for r in rows if r["epoch"] == "0"}
    assert cells == {(s, f) for s in ("0", "1") for f in ("0.0", "0.5", "0.9")}
    assert len(rows) == 2 * len(cells)  # each cell also has its last epoch
    for row in rows:
        assert math.isfinite(float(row["kappa"]))
        undefined = row["fraction"] == "0.9"
        assert (row["bound_convex"] == "") == undefined
        assert (row["bound_max"] == "") == undefined


def test_metrics_of_an_undefined_depth_bound_are_nan():
    ds = synthesize_gaussian(d=6, n=64, covariance_spectrum=np.ones(6), seed=0)
    spec = NetworkSpec(kind="linear_deep", dims=(6, 8, 8, 2))
    params = prune_by_magnitude(init(spec, seed=0), 0.9)
    m = checkpoint_metrics(spec, params, ds)
    assert math.isnan(m.bound_convex) and math.isnan(m.bound_max)
    assert m.terms == ()
    assert math.isfinite(m.kappa)
    sigma = empirical_covariance(ds)
    assert m.kappa_sigma == pseudo_condition_number(sym_eigendecompose(sigma))


def test_svd_failure_is_a_numeric_error(tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    ds = synthesize_gaussian(d=6, n=64, covariance_spectrum=np.ones(6), seed=0)
    params = init(NetworkSpec(kind="linear_deep", dims=(6, 8, 8, 2)), seed=0)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        bound_deep_convex(params, empirical_covariance(ds))
    cfg = write_config(tmp_path, SMALL_LINEAR + "seeds = 0\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "did not converge" in err
    assert "Traceback" not in err


def test_overflowing_weight_products_name_the_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_LINEAR
                       + "init = gaussian\ninit_sigma = 1e200\nseeds = 0\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "overflow" in err
    assert "A contains" not in err
