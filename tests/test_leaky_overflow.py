"""A Leaky-ReLU net whose hidden units overflow float64 is one numeric
error, exit 3, with no NumPy warnings."""

import warnings

import numpy as np
import pytest

from gn_lens import gn_leaky
from gn_lens.cli import main
from gn_lens.errors import NumericError

CONFIG = """
data = synthetic
d = 6
n = 5
seeds = 0
kind = leaky_one_hidden
k = 2
m = 8
init = gaussian
init_sigma = 1e200
"""

MESSAGE = ("the hidden units overflow float64; the weights or data are too "
           "large")


def test_gn_leaky_reports_overflow_without_warnings():
    rng = np.random.default_rng(0)
    v, w = 1e200 * rng.standard_normal((8, 6)), rng.standard_normal((2, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=MESSAGE):
            gn_leaky(w, v, rng.standard_normal((6, 5)), 0.1)


def test_analyze_exits_3_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "leaky.cfg"
    cfg.write_text(CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == f"numeric error: {MESSAGE}\n"
