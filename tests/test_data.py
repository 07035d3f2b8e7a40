"""Tests for dataset loading, covariance and whitening."""

import struct

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    empirical_covariance,
    load_csv,
    load_idx,
    synthesize_gaussian,
    whiten,
    write_csv,
)
from gn_lens.errors import FormatError, ValidationError


def naive_covariance(x):
    d, n = x.shape
    cov = np.zeros((d, d))
    for j in range(n):
        cov += np.outer(x[:, j], x[:, j])
    return cov / n


class TestEmpiricalCovariance:
    def test_two_scalar_samples(self):
        ds = Dataset(X=np.array([[1.0, -1.0]]))
        assert np.array_equal(empirical_covariance(ds), [[1.0]])

    def test_identity_input(self):
        d = 5
        ds = Dataset(X=np.eye(d))
        assert np.allclose(empirical_covariance(ds), np.eye(d) / d)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 17))
        cov = empirical_covariance(Dataset(X=x))
        assert np.allclose(cov, naive_covariance(x), atol=1e-12)


class TestWhiten:
    def test_white_data_unchanged(self):
        rng = np.random.default_rng(1)
        d, n = 4, 2000
        x = rng.standard_normal((d, n))
        # Exactly whiten first so the covariance is I by construction.
        white, _ = whiten(Dataset(X=x))
        again, report = whiten(white)
        assert report.kappa_before < 1 + 1e-6
        assert np.allclose(again.X, white.X, atol=1e-8)

    def test_diagonal_case(self):
        x = np.diag([2.0, 1.0]) @ np.array([[1.0, 1.0, -1.0, -1.0],
                                            [1.0, -1.0, 1.0, -1.0]])
        white, _ = whiten(Dataset(X=x))
        cov = empirical_covariance(white)
        assert np.allclose(cov, np.eye(2), atol=1e-10)

    def test_kappa_after_near_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 100)) * np.logspace(0, -3, 8)[:, None]
        _, report = whiten(Dataset(X=x))
        assert report.kappa_before > 100
        assert report.kappa_after <= 1 + 1e-6

    def test_rank_deficient_data(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.standard_normal((3, 50)), np.zeros((2, 50))])
        white, report = whiten(Dataset(X=x))
        assert report.kappa_after <= 1 + 1e-6
        assert np.allclose(white.X[3:], 0.0)


def _write_idx_images(path, images):
    """images: n x h x w uint8 array."""
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, h, w))
        fh.write(images.tobytes())


class TestLoadIdx:
    def test_hand_built_fixture(self, tmp_path):
        images = np.arange(16, dtype=np.uint8).reshape(4, 2, 2)
        path = tmp_path / "imgs.idx"
        _write_idx_images(path, images)
        ds = load_idx(path)
        assert ds.X.shape == (4, 4)
        # Column j is image j flattened row-major and scaled to [0, 1].
        assert np.allclose(ds.X[:, 0], np.array([0, 1, 2, 3]) / 255.0)
        assert np.allclose(ds.X[:, 3], np.array([12, 13, 14, 15]) / 255.0)

    def test_labels_file(self, tmp_path):
        path = tmp_path / "labels.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", 0x801, 3))
            fh.write(bytes([7, 0, 2]))
        ds = load_idx(path)
        assert np.array_equal(ds.X, [[7.0, 0.0, 2.0]])

    def test_limit_equal_total_preserves_order(self, tmp_path):
        images = np.arange(16, dtype=np.uint8).reshape(4, 2, 2)
        path = tmp_path / "imgs.idx"
        _write_idx_images(path, images)
        full = load_idx(path)
        limited = load_idx(path, limit=4)
        assert np.array_equal(full.X, limited.X)

    def test_subsample_deterministic(self, tmp_path):
        images = np.arange(40, dtype=np.uint8).reshape(10, 2, 2)
        path = tmp_path / "imgs.idx"
        _write_idx_images(path, images)
        a = load_idx(path, limit=4, seed=9)
        b = load_idx(path, limit=4, seed=9)
        assert np.array_equal(a.X, b.X)
        assert a.X.shape == (4, 4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">I", 0xdead) + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_idx(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + b"\x00" * 3)
        with pytest.raises(FormatError):
            load_idx(path)


class TestCsv:
    def test_plain_load(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(path)
        assert ds.X.shape == (3, 2)
        assert np.array_equal(ds.X[:, 1], [4.0, 5.0, 6.0])

    def test_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,9\n3,4,8\n")
        ds = load_csv(path, label_column=True)
        assert ds.X.shape == (2, 2)
        assert np.array_equal(ds.Y, [[9.0, 8.0]])

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(X=rng.standard_normal((5, 9)),
                     Y=rng.standard_normal((1, 9)))
        path = tmp_path / "round.csv"
        write_csv(path, ds)
        back = load_csv(path, label_column=True)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(FormatError, match="2"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(FormatError, match="2"):
            load_csv(path)


class TestSynthesizeGaussian:
    def test_white_spectrum_kappa(self):
        d = 6
        ds = synthesize_gaussian(d=d, n=50 * d, covariance_spectrum=np.ones(d),
                                 seed=0)
        cov = empirical_covariance(ds)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs[-1] / eigs[0] <= 2.0

    def test_scalar_variance(self):
        ds = synthesize_gaussian(d=1, n=4000, covariance_spectrum=[4.0], seed=1)
        var = float(np.var(ds.X))
        stderr = 4.0 * np.sqrt(2.0 / 4000)
        assert abs(var - 4.0) <= 3 * stderr

    def test_deterministic(self):
        a = synthesize_gaussian(d=3, n=7, covariance_spectrum=[1, 2, 3], seed=5)
        b = synthesize_gaussian(d=3, n=7, covariance_spectrum=[1, 2, 3], seed=5)
        assert np.array_equal(a.X, b.X)

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValidationError):
            synthesize_gaussian(d=3, n=5, covariance_spectrum=[1.0, -1.0, 2.0])

