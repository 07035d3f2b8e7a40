"""The depth bounds use the numerical rank of each partial product: a
product whose smallest singular value is rounding noise is rank-deficient,
so its kappa^2 is infinite, as is the max bound, while the convex bound
keeps the finite limit of its terms."""

import math

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    bound_deep_convex,
    bound_deep_max,
    checkpoint_metrics,
    gn_linear,
    init,
    pseudo_condition_number,
    synthesize_gaussian,
)
from gn_lens.cli import main
from gn_lens.errors import AssumptionError

BOTTLENECK = """
data = synthetic
d = 10
n = 64
kind = residual
dims = 10,14,6,9,3
seeds = 0
"""


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_a_bottleneck_gives_an_infinite_max_bound(tmp_path):
    # The width-6 layer makes the 6 x 10 and 9 x 10 products below layers 3
    # and 4 of rank 6, so their 10 x 10 Grams are singular. The latter's
    # computed sigma_min^2 is ~1e-33, which used to give bound_max ~1e34.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BOTTLENECK)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    [row] = read_table(tmp_path / "analysis.csv")
    kappa = float(row["kappa"])
    assert math.isfinite(kappa)
    assert kappa <= float(row["bound_convex"]) < math.inf
    assert row["bound_max"] == "inf"
    terms = read_table(tmp_path / "terms.csv")
    assert [t["kappa2_below"] for t in terms][2:] == ["inf", "inf"]
    last = terms[-1]
    assert float(last["sig2min_below"]) == float(last["alpha_l"]) == 0.0
    assert float(last["gamma_l"]) == 0.0
    assert 0 < float(last["weighted"]) < math.inf
    assert all(math.isfinite(float(t["kappa2_below"])) for t in terms[:2])


def test_convex_bound_is_the_limit_of_its_terms():
    # W1 has rank 2 of 3, so the product below layer 2 is rank-deficient.
    w1 = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
    w2 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.5, 0.0, 1.0]])
    params = Params(layers=(w1, w2))
    convex = bound_deep_convex(params, np.eye(3))
    first, second = convex.terms
    assert second.kappa2_below == math.inf and second.gamma_l == 0.0
    assert first.gamma_l == 1.0
    s1 = np.linalg.svd(w1, compute_uv=False)
    s2 = np.linalg.svd(w2, compute_uv=False)
    # gamma_2 kappa2(W1) = sigma_max(W1)^2 / alpha_1 with alpha_1 = sigma_min(W2)^2.
    assert second.weighted == pytest.approx(s1[0] ** 2 / s2[-1] ** 2, rel=1e-12)
    assert convex.value == pytest.approx(first.weighted + second.weighted,
                                         rel=1e-12)
    assert bound_deep_max(params, np.eye(3)).value == math.inf
    kappa = pseudo_condition_number(gn_linear(params, np.eye(3)).spectrum())
    assert kappa <= convex.value


def test_an_ill_conditioned_full_rank_network_keeps_finite_bounds():
    # sigma_min / sigma_max = 1e-10 is far above the cutoff of 3 * 2.2e-16.
    w1 = np.diag([1.0, 1e-5, 1e-10])
    params = Params(layers=(w1, np.eye(3)))
    convex = bound_deep_convex(params, np.eye(3))
    maximum = bound_deep_max(params, np.eye(3))
    assert convex.terms[1].kappa2_below == pytest.approx(1e20, rel=1e-12)
    assert math.isfinite(convex.value) and math.isfinite(maximum.value)
    assert maximum.value == pytest.approx(1e20, rel=1e-12)


def test_every_term_rank_deficient_leaves_the_bounds_blank():
    # Every product touches the rank-1 output layer or the rank-1 first layer.
    spec = NetworkSpec(kind="linear_deep", dims=(4, 5, 3))
    base = init(spec, seed=0)
    rank_one = [np.outer(w[:, 0], np.ones(w.shape[1])) for w in base.layers]
    params = Params(layers=tuple(rank_one))
    with pytest.raises(AssumptionError, match="every alpha_l = 0"):
        bound_deep_convex(params, np.eye(4))
    ds = synthesize_gaussian(d=4, n=32, covariance_spectrum=np.ones(4), seed=0)
    m = checkpoint_metrics(spec, params, ds)
    assert math.isnan(m.bound_convex) and math.isnan(m.bound_max)
