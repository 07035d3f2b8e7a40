"""Paths that no other tier-1 test runs: `data = idx` through the CLI,
`init = xavier_normal`, and the two degenerate-residual refusals of
`bound_functional_hessian`."""

import csv
import struct

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    TeacherSpec,
    bound_functional_hessian,
    init,
    load_idx,
)
from gn_lens.cli import load_dataset, main
from gn_lens.errors import DegenerateDataError
from gn_lens.trainer import checkpoint_metrics


def write_idx_images(path, images):
    n, h, w = images.shape
    path.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w)
                     + images.astype(np.uint8).tobytes())


def analyze(tmp_path, cfg):
    """The row that `analyze` writes for `cfg`."""
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main(["analyze", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "analysis.csv") as fh:
        (row,) = csv.DictReader(fh)
    return row


def test_analyze_reads_an_idx_file(tmp_path):
    images = np.random.default_rng(0).integers(0, 256, size=(30, 2, 3))
    write_idx_images(tmp_path / "images.idx", images)
    row = analyze(tmp_path, {
        "data": "idx", "data_path": tmp_path / "images.idx", "limit": "20",
        "data_seed": "1", "kind": "linear_deep", "k": "2", "m": "4",
        "L": "2", "seeds": "0"})
    ds = load_idx(tmp_path / "images.idx", limit=20, seed=1)
    assert ds.X.shape == (6, 20) and ds.X.max() <= 1.0
    spec = NetworkSpec(kind="linear_deep", dims=(6, 4, 2))
    expected = checkpoint_metrics(spec, init(spec, seed=0), ds)
    assert (row["d"], row["n"]) == ("6", "20")
    assert row["kappa"] == repr(expected.kappa)


def test_xavier_normal_scales_by_fan_in_plus_fan_out():
    dense = NetworkSpec(kind="linear_deep", dims=(5, 7, 3))
    conv = NetworkSpec(kind="linear_conv", dims=(12,),
                       conv_layers=((4, 1, 3), (2, 4, 3)))
    for spec, fans in ((dense, [(5, 7), (7, 3)]),
                       (conv, [(1 * 3, 4 * 3), (4 * 3, 2 * 3)])):
        params = init(spec, scheme="xavier_normal", seed=2)
        rng = np.random.default_rng(2)
        for w, (fan_in, fan_out) in zip(params.layers, fans):
            want = (2.0 / (fan_in + fan_out)) ** 0.5 * rng.standard_normal(
                w.shape)
            assert w.tobytes() == want.tobytes()


def test_analyze_runs_xavier_normal(tmp_path):
    cfg = {"data": "synthetic", "d": "4", "n": "30", "kind": "linear_deep",
           "k": "2", "m": "5", "L": "3", "seeds": "0",
           "init": "xavier_normal"}
    row = analyze(tmp_path, cfg)
    spec = NetworkSpec(kind="linear_deep", dims=(4, 5, 5, 2))
    params = init(spec, scheme="xavier_normal", seed=0)
    assert row["kappa"] == repr(
        checkpoint_metrics(spec, params, load_dataset(cfg)).kappa)


@pytest.mark.parametrize("W, V, Z, message", [
    # W V - Z = 0
    ([[1.0], [2.0]], [[1.0, 3.0]], [[1.0, 3.0], [2.0, 6.0]],
     "zero residual matrix"),
    # W V - Z = diag(1, 0)
    ([[1.0], [0.0]], [[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
     "rank-deficient residual matrix"),
])
def test_the_functional_hessian_bound_refuses_a_degenerate_residual(
        W, V, Z, message):
    with pytest.raises(DegenerateDataError, match=message):
        bound_functional_hessian(np.array(W), np.array(V),
                                 TeacherSpec(Z=np.array(Z)), np.eye(2))
