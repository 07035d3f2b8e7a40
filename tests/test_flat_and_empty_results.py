"""Results with nothing to spread or rank: an SVG chart whose x or y values
are all equal, the rank sweep of an empty spectrum, and the final kappa of a
pruning cell whose training diverged."""

import math
import re

import numpy as np

from gn_lens import (
    Dataset,
    NetworkSpec,
    pruning_experiment,
    synthesize_gaussian,
)
from gn_lens.cli import main
from gn_lens.linalg import Spectrum, rank_sensitivity_sweep
from gn_lens.trainer import TrainConfig

SMALL = {"data": "synthetic", "d": "4", "n": "16", "kind": "linear_deep",
         "k": "2", "m": "5"}


def run(tmp_path, command, cfg):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main([command, "--config", str(path), "--out", str(tmp_path),
                 "--svg"]) == 0


def coordinates(svg):
    """Every number in the chart's position attributes."""
    values = re.findall(r'\b(?:x|y|x1|y1|x2|y2|points)="([^"]*)"', svg)
    return [float(v) for text in values for v in re.split(r"[ ,]", text)]


def test_a_sweep_over_one_value_draws_a_finite_chart(tmp_path):
    run(tmp_path, "sweep", {**SMALL, "seeds": "0,1", "axis": "L",
                            "values": "3"})
    coords = coordinates((tmp_path / "sweep.svg").read_text())
    assert len(coords) > 20 and all(map(math.isfinite, coords))


def test_a_trace_of_one_checkpoint_draws_a_finite_chart(tmp_path):
    run(tmp_path, "train", {**SMALL, "L": "2", "seeds": "0", "lr": "0.01",
                            "epochs": "0"})
    for name in ("loss", "kappa"):
        coords = coordinates((tmp_path / f"trace_{name}.svg").read_text())
        assert len(coords) > 20 and all(map(math.isfinite, coords))


def test_an_empty_spectrum_has_no_rank_to_sweep():
    assert rank_sensitivity_sweep(Spectrum(values=np.array([]))) == []


def test_a_diverged_cell_has_no_final_kappa():
    ds = synthesize_gaussian(d=4, n=16, covariance_spectrum=[1.0] * 4, seed=0)
    spec = NetworkSpec(kind="linear_deep", dims=(4, 5, 2))
    targets = Dataset(X=ds.X, Y=3 * ds.X[:2])
    (cell,) = pruning_experiment(spec, targets, [0.0], [0],
                                 TrainConfig(learning_rate=5.0, epochs=300))
    assert cell.diverged and cell.trace.checkpoints
    assert math.isfinite(cell.kappa_init) and math.isnan(cell.kappa_end)
