"""Outputs under two OpenBLAS kernels agree to rounding, not byte for byte.

One OpenBLAS build picks its compute kernel by CPU, and OPENBLAS_CORETYPE
overrides the choice for one process. Kernels round differently, so the
last digits of kappa and the bounds move between them (by up to 2.9e-13
relative in kappa and 1.4e-12 in kappa_sigma on the benchmark's workloads),
while exit codes, stderr and every non-numeric column stay the same."""

import csv
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import gn_lens

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gn_lens.__file__)))

CONFIG = """
data = synthetic
d = 10
n = 80
cov_spectrum = logspace:1,-1
kind = residual
beta = 0.5
k = 3
m = 12
L = 3
seeds = 0
"""

REL_TOL = 1e-11


def _openblas_on_x86_64() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and platform.machine().lower() in ("x86_64", "amd64"))


pytestmark = pytest.mark.skipif(not _openblas_on_x86_64(),
                                reason="numpy's BLAS is not OpenBLAS on x86-64")


def run_analyze(tmp_path, name, coretype):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / name
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run(
        [sys.executable, "-m", "gn_lens.cli", "analyze", "--config",
         str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    tables = {p.name: list(csv.reader(p.open())) for p in sorted(out.iterdir())}
    return proc.returncode, proc.stderr, tables


def assert_close(a: str, b: str):
    """Equal text, or numbers within REL_TOL of each other."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        assert a == b
        return
    if x == y or (math.isnan(x) and math.isnan(y)):
        return
    assert math.isfinite(x) and math.isfinite(y), (a, b)
    assert abs(x - y) <= REL_TOL * max(abs(x), abs(y)), (a, b)


def test_default_and_nehalem_kernels_agree_to_rounding(tmp_path):
    code, err, tables = run_analyze(tmp_path, "default", None)
    other_code, other_err, other_tables = run_analyze(tmp_path, "nehalem",
                                                      "Nehalem")
    assert code == other_code == 0
    assert err == other_err == ""
    assert sorted(tables) == sorted(other_tables) == ["analysis.csv",
                                                      "terms.csv"]
    for name, rows in tables.items():
        other_rows = other_tables[name]
        assert rows[0] == other_rows[0]
        assert len(rows) == len(other_rows)
        for row, other_row in zip(rows[1:], other_rows[1:]):
            assert len(row) == len(other_row)
            for a, b in zip(row, other_row):
                assert_close(a, b)
