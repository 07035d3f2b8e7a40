"""A config number that NumPy cannot make an array of, or Python a list of,
ends the run with one stderr line and no traceback: exit 3 for an array
that cannot be built, exit 2 naming the key for a list that cannot. In a
sweep only the cells of that value fail, into errors.log.

Every value here asks for at least 2**63 entries or bytes, past NumPy's
`intp`, so it is refused before anything is allocated."""

import numpy as np
import pytest

from gn_lens import NetworkSpec, init, init_aligned_svd, synthesize_gaussian
from gn_lens.errors import SizeError
from gn_lens.linalg import check_indexable
from test_command_keys import run

BIG = 10**19
SYNTHETIC = {"data": "synthetic", "d": "6", "n": "16", "seeds": "0"}
DEEP = {**SYNTHETIC, "kind": "linear_deep", "k": "2", "m": "4"}
TRAIN = {"lr": "0.01", "epochs": "1", "batch_size": "8"}


def too_large(what, shape):
    return (f"numeric error: {what} of shape {shape} is too large for NumPy "
            "to index\n")


# name -> (command, config, exit code, stderr)
CONFIGS = {
    "n_past_the_largest_dimension": (
        "analyze", {**DEEP, "n": str(BIG)}, 3,
        too_large("the sample", (6, BIG))),
    "n_past_the_largest_byte_size": (
        "analyze", {**DEEP, "n": str(4 * 10**18)}, 3,
        too_large("the sample", (6, 4 * 10**18))),
    "d": ("analyze", {**DEEP, "d": str(BIG)}, 3,
          too_large("cov_spectrum", (BIG,))),
    "d_with_a_logspace_spectrum": (
        "analyze", {**DEEP, "d": str(BIG), "cov_spectrum": "logspace:0,-1"},
        3, too_large("cov_spectrum", (BIG,))),
    "k": ("analyze", {**DEEP, "k": str(BIG)}, 3,
          too_large("a layer", (BIG, 4))),
    "leaky_m": ("analyze", {**SYNTHETIC, "kind": "leaky_one_hidden",
                            "k": "2", "m": str(BIG)}, 3,
                too_large("a layer", (BIG, 6))),
    "conv_filters": ("analyze", {**SYNTHETIC, "kind": "linear_conv",
                                 "filters": str(BIG), "kernel": "3"}, 3,
                     too_large("a layer", (BIG, 1, 3))),
    "aligned_m": ("analyze", {**DEEP, "kind": "residual", "m": str(BIG),
                              "init": "aligned_svd"}, 3,
                  too_large("the shared basis", (BIG, BIG))),
    "train_k": ("train", {**DEEP, **TRAIN, "k": str(BIG)}, 3,
                too_large("the teacher", (BIG, 6))),
    "whiten_n": ("whiten", {"data": "synthetic", "d": "6", "n": str(BIG)}, 3,
                 too_large("the sample", (6, BIG))),
    "L": ("analyze", {**DEEP, "L": str(BIG)}, 2,
          f"config error: key 'L': too many layers to list, got {BIG}\n"),
    "seeds": ("analyze", {**DEEP, "seeds": f"0..{BIG}"}, 2,
              f"config error: key 'seeds': bad integer list: '0..{BIG}'\n"),
    "prune_seeds": ("prune", {**DEEP, **TRAIN, "seeds": f"0..{BIG}"}, 2,
                    f"config error: key 'seeds': bad integer list: "
                    f"'0..{BIG}'\n"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_an_oversize_config_exits_with_one_line(tmp_path, capsys, name):
    command, cfg, code, message = CONFIGS[name]
    assert run(tmp_path, command, cfg) == code
    assert capsys.readouterr().err == message
    assert list((tmp_path / "out").iterdir()) == []


# axis -> (base config, the cell's error)
SWEEPS = {
    "m": (DEEP, f"a layer of shape ({BIG}, 6) is too large for NumPy to "
                "index"),
    "L": (DEEP, f"key 'L': too many layers to list, got {BIG}"),
    "filters": ({**SYNTHETIC, "kind": "linear_conv", "kernel": "3"},
                f"a layer of shape ({BIG}, 1, 3) is too large for NumPy to "
                "index"),
}


@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_an_oversize_sweep_value_fails_only_its_cells(tmp_path, capsys, axis):
    base, error = SWEEPS[axis]
    cfg = {**base, "seeds": "0,1", "axis": axis, "values": "2,1e19"}
    assert run(tmp_path, "sweep", cfg) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"sweep:{axis}=2"] * 2
    assert (out / "errors.log").read_text() == "".join(
        f"cell {i} ({axis}={BIG}, seed={seed}): {error}\n"
        for i, seed in ((2, 0), (3, 1)))


def test_the_library_refuses_an_oversize_draw_with_size_error():
    with pytest.raises(SizeError, match="the sample"):
        synthesize_gaussian(d=6, n=BIG, covariance_spectrum=np.ones(6))
    with pytest.raises(SizeError, match="a layer"):
        init(NetworkSpec(kind="linear_deep", dims=(6, BIG, 2)))
    with pytest.raises(SizeError, match="the shared basis"):
        init_aligned_svd(NetworkSpec(kind="residual", dims=(6, BIG, 2)))


def test_the_limit_is_numpys_own():
    largest = np.iinfo(np.intp).max // 8
    check_indexable((largest,), "x")
    check_indexable((largest // 3, 3), "x")
    for shape in ((largest + 1,), (largest // 3 + 1, 3), (2**32, 2**32)):
        with pytest.raises(SizeError):
            check_indexable(shape, "x")
        with pytest.raises(ValueError):
            np.empty(shape)
