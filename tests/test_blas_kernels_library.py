"""The library dump of `tools/compare_outputs.py` under two OpenBLAS kernels:
every GN builder's matrix and spectrum and every bound agree to rounding.

Each file is compared relative to its largest magnitude, since eigenvalues
at rounding level carry no relative accuracy. Numbers agree within 1e-11,
with two stated exceptions:
- the finite-difference Jacobians divide rounding by their step of 1e-6,
  so their GNs agree within 1e-9 (measured: 4.0e-11);
- the dump's Sigma has rank 12 of 20, and `psd_sqrt` keeps the positive
  rounding-level eigenvalues of its null space, whose square roots (~1e-8
  of the largest) enter the kd x kd GN matrices to first order, so those
  agree within 1e-7 (measured: 3.7e-9). Their spectra see only
  Sigma^(1/2) Sigma^(1/2) and agree within 1e-11 (measured: 2.6e-15).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_blas_kernels import SRC, _openblas_on_x86_64

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from compare_outputs import LIBRARY_SCRIPT  # noqa: E402

pytestmark = pytest.mark.skipif(not _openblas_on_x86_64(),
                                reason="numpy's BLAS is not OpenBLAS on x86-64")

REL_TOL = 1e-11
FD_TOL = 1e-9
SQRT_NULL_SPACE_TOL = 1e-7
KD_GNS = ("gn_linear.f64", "gn_residual.f64", "gn_conv.f64")


def tolerance(name: str) -> float:
    if name.startswith("gn_from_jacobian_fd"):
        return FD_TOL
    return SQRT_NULL_SPACE_TOL if name in KD_GNS else REL_TOL


def dump(tmp_path, coretype):
    out = tmp_path / (coretype or "default")
    out.mkdir()
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", LIBRARY_SCRIPT, str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return {p.name: np.fromfile(p) for p in sorted(out.iterdir())}


def test_default_and_nehalem_library_dumps_agree_to_rounding(tmp_path):
    files = dump(tmp_path, None)
    other = dump(tmp_path, "Nehalem")
    assert sorted(files) == sorted(other)
    assert len(files) == 25
    for name, a in files.items():
        b = other[name]
        assert a.shape == b.shape, name
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        scale = np.abs(a).max(initial=0.0)
        assert np.abs(a - b).max(initial=0.0) <= tolerance(name) * scale, name
