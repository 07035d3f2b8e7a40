"""An eigensolver or SVD that does not converge is a NumericError wherever
the package calls one, so the CLI exits 3 with a message, not a traceback."""

import numpy as np
import pytest

from gn_lens import (
    TeacherSpec,
    functional_hessian_spectrum,
    psd_sqrt,
)
from gn_lens.cli import main
from gn_lens.errors import NumericError
from gn_lens.linalg import svdvals


def no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def test_analyze_exits_3_when_the_eigensolver_fails(tmp_path, monkeypatch,
                                                    capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = synthetic\nd = 6\nn = 64\nkind = linear_deep\n"
                   "k = 2\nm = 8\nL = 3\nseeds = 0\n")
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "did not converge" in err
    assert "Traceback" not in err


def test_psd_sqrt(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericError, match="eigensolver failed to converge"):
        psd_sqrt(np.eye(3))


def test_singular_values(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError, match="singular value decomposition"):
        svdvals(np.ones((2, 3)))


def test_functional_hessian_spectrum(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    teacher = TeacherSpec(Z=np.ones((2, 3)))
    with pytest.raises(NumericError, match="singular value decomposition"):
        functional_hessian_spectrum(np.ones((2, 4)), np.ones((4, 3)), np.eye(3),
                                    teacher)
