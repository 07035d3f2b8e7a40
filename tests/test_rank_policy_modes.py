"""Each rank policy mode, through the library and through `analyze`: its
`describe()` text, the rank it selects and the `rank_policy` column."""

import csv

import numpy as np
import pytest

from gn_lens import RankPolicy
from gn_lens.cli import main

CONFIG = {"data": "synthetic", "d": "4", "n": "40", "seeds": "0",
          "cov_spectrum": "logspace:1,-1", "kind": "linear_deep", "k": "2",
          "m": "5", "L": "3"}


@pytest.mark.parametrize("policy, text", [
    (RankPolicy.analytic(768), "analytic(768)"),
    (RankPolicy.relative(1e-12), "relative(1.000e-12)"),
    (RankPolicy.absolute(1e-9), "absolute(1.000e-09)"),
])
def test_describe(policy, text):
    assert policy.describe() == text


def test_each_mode_selects_its_rank():
    values = np.array([8.0, 4.0, 2.0, 1e-3, 0.0])
    rank = RankPolicy.analytic(3).select_rank(values)
    assert rank == 3 and isinstance(rank, int)
    assert RankPolicy.relative(1e-2).select_rank(values) == 3
    assert RankPolicy.relative(1e-4).select_rank(values) == 4
    assert RankPolicy.absolute(3.0).select_rank(values) == 2
    assert RankPolicy.absolute(0.0).select_rank(values) == 4


def analyze(tmp_path, name, policy):
    out = tmp_path / name
    cfg = {**CONFIG, "rank_policy": policy}
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main(["analyze", "--config", str(path), "--out", str(out),
                 "--spectrum"]) == 0
    with open(out / "analysis.csv") as fh:
        (row,) = csv.DictReader(fh)
    with open(out / "spectrum.csv") as fh:
        values = [float(r["eigenvalue"]) for r in csv.DictReader(fh)]
    return row, values


def test_the_rank_policy_column_and_kappa_of_each_mode(tmp_path):
    # An absolute cutoff between the 4th and 5th largest eigenvalues.
    _, values = analyze(tmp_path, "default", "default")
    cutoff = float(f"{(values[3] + values[4]) / 2:.3e}")
    assert values[4] < cutoff < values[3]
    expected = {
        "relative:1e-12": ("relative(1.000e-12)",
                           sum(v > 1e-12 * values[0] for v in values)),
        "absolute:1e-9": ("absolute(1.000e-09)",
                          sum(v > 1e-9 for v in values)),
        f"absolute:{cutoff}": (f"absolute({cutoff:.3e})", 4),
        "analytic:6": ("analytic(6)", 6),
    }
    for i, (policy, (text, rank)) in enumerate(expected.items()):
        row, spectrum = analyze(tmp_path, f"policy{i}", policy)
        assert spectrum == values
        assert row["rank_policy"] == text
        assert float(row["kappa"]) == values[0] / values[rank - 1]
