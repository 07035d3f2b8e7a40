"""Dataset ingestion (IDX, CSV), synthetic generation, covariance and whitening.

Datasets hold inputs column-wise: X is d x n, one sample per column.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionError,
    FormatError,
    ValidationError,
)
from .linalg import as_matrix, pseudo_condition_number, sym_eigendecompose

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray  # d x n
    Y: np.ndarray | None = None  # k x n

    def __post_init__(self):
        x = as_matrix(self.X, "X")
        object.__setattr__(self, "X", x)
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValidationError("dataset must have d >= 1 and n >= 1")
        if self.Y is not None:
            y = as_matrix(self.Y, "Y")
            if y.shape[1] != x.shape[1]:
                raise DimensionError(
                    f"X has {x.shape[1]} samples but Y has {y.shape[1]}"
                )
            object.__setattr__(self, "Y", y)

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class WhitenReport:
    kappa_before: float
    kappa_after: float


def empirical_covariance(ds: Dataset) -> np.ndarray:
    """(1/n) X X^T, symmetrized against roundoff."""
    x = ds.X
    cov = (x @ x.T) / x.shape[1]
    return 0.5 * (cov + cov.T)


def whiten(ds: Dataset, eigen_floor: float = 1e-10) -> tuple[Dataset, WhitenReport]:
    """ZCA-whiten the dataset: X' = Sigma_f^{-1/2} X.

    Eigenvalues of the covariance below eigen_floor * lambda_max are dropped
    (pseudo-inverse square root), so rank-deficient image covariances work.
    """
    cov = empirical_covariance(ds)
    spec, q = sym_eigendecompose(cov, want_vectors=True)
    lam = spec.values
    lam_max = lam[0]
    if lam_max <= 0:
        raise DegenerateDataError("covariance has rank zero; cannot whiten")
    keep = lam > eigen_floor * lam_max
    if not keep.any():
        raise DegenerateDataError(
            "no covariance eigenvalue above eigen_floor * lambda_max; "
            "cannot whiten")
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
    transform = (q * inv_sqrt) @ q.T
    white = Dataset(X=transform @ ds.X, Y=ds.Y)
    after = sym_eigendecompose(empirical_covariance(white)).values
    return white, WhitenReport(
        kappa_before=pseudo_condition_number(spec),
        kappa_after=float(after[0] / after[int(keep.sum()) - 1]))


def _read_exact(fh, count: int) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError("truncated IDX file")
    return buf


def load_idx(path, limit: int = 0, seed: int = 0) -> Dataset:
    """Load an uncompressed IDX file (big-endian, MNIST-style).

    Image files (magic 0x803) become a (h*w) x n matrix with pixels in [0,1],
    images flattened row-major. Label files (magic 0x801) become 1 x n raw
    values. If 0 < limit < n, a seeded uniform subsample without replacement
    is taken (indices sorted, so limit == n preserves order).
    """
    with open(path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4))
        if magic == IDX_MAGIC_IMAGES:
            n, h, w = struct.unpack(">III", _read_exact(fh, 12))
            raw = np.frombuffer(_read_exact(fh, n * h * w), dtype=np.uint8)
            x = raw.reshape(n, h * w).T.astype(np.float64) / 255.0
        elif magic == IDX_MAGIC_LABELS:
            (n,) = struct.unpack(">I", _read_exact(fh, 4))
            raw = np.frombuffer(_read_exact(fh, n), dtype=np.uint8)
            x = raw.astype(np.float64).reshape(1, n)
        else:
            raise FormatError(f"bad IDX magic 0x{magic:08x}")
    if 0 < limit < x.shape[1]:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(x.shape[1], size=limit, replace=False))
        x = x[:, idx]
    return Dataset(X=x)


def load_csv(path, label_column: bool = False) -> Dataset:
    """Load a numeric CSV, one sample per row, into d x n column layout.

    With label_column, the last column becomes a 1 x n target matrix Y.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise FormatError(f"non-numeric cell in row {lineno}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise FormatError(f"ragged row {lineno}")
    if not rows:
        raise FormatError("empty CSV file")
    mat = np.array(rows, dtype=np.float64).T  # d x n
    if label_column:
        if mat.shape[0] < 2:
            raise FormatError("label column requested but only one column")
        return Dataset(X=mat[:-1, :], Y=mat[-1:, :])
    return Dataset(X=mat)


def write_csv(path, ds: Dataset) -> None:
    """Write samples row-wise with round-trippable doubles (repr formatting)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = [ds.X]
        if ds.Y is not None:
            cols.append(ds.Y)
        stacked = np.vstack(cols)
        for j in range(stacked.shape[1]):
            fh.write(",".join(repr(float(v)) for v in stacked[:, j]))
            fh.write("\n")


def synthesize_gaussian(
    d: int, n: int, covariance_spectrum, seed: int = 0
) -> Dataset:
    """Columns i.i.d. N(0, Q diag(spectrum) Q^T) with a seeded orthogonal Q."""
    spectrum = np.asarray(covariance_spectrum, dtype=np.float64)
    if spectrum.shape != (d,):
        raise ValidationError(f"spectrum must have length d={d}")
    bad = np.flatnonzero(~(np.isfinite(spectrum) & (spectrum >= 0)))
    if bad.size:
        raise ValidationError(
            f"covariance_spectrum entries must be finite and >= 0, got "
            f"{spectrum[bad[0]]} at index {bad[0]}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    z = rng.standard_normal((d, n))
    x = q @ (np.sqrt(spectrum)[:, None] * z)
    return Dataset(X=x)
