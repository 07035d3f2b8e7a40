"""Dense spectral primitives: eigendecompositions, singular values, PSD
square roots and pseudo-condition numbers.

All matrices are plain 2-D float64 numpy arrays in row-major layout; the
row-major vectorization convention is fixed package-wide so that Kronecker
orderings agree everywhere (np.kron follows it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericError,
    PsdViolationError,
    RankZeroError,
    SizeError,
    ValidationError,
)

# Largest allowed dimension for a dense result (rows and cols each).
DEFAULT_DIM_CAP = 10_000

# PSD eigenvalues down to -_PSD_CLAMP * max(lambda_max, 1) count as roundoff.
_PSD_CLAMP = 1e-10

# The most bytes NumPy can index in one array.
_INDEXABLE_BYTES = np.iinfo(np.intp).max


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def check_indexable(shape: tuple[int, ...], what: str) -> None:
    """Raise SizeError, before anything is allocated, if a float64 array of
    `shape` would hold more bytes than NumPy can index."""
    if math.prod(shape) * 8 > _INDEXABLE_BYTES:
        raise SizeError(f"{what} of shape {shape} is too large for NumPy "
                        "to index")


@dataclass(frozen=True)
class Spectrum:
    """Eigen- or singular values, sorted descending. Which of them count as
    nonzero is for a `RankPolicy` to decide (`pseudo_condition_number`)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DimensionError("Spectrum values must be 1-D")
        if np.any(np.diff(v) > 0):
            raise ValidationError("Spectrum values must be non-increasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        return cls(values=np.sort(np.asarray(values, dtype=np.float64))[::-1])

    @property
    def max(self) -> float:
        return float(self.values[0])

    @property
    def min(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class RankPolicy:
    """Rule selecting the smallest retained eigenvalue for pseudo-kappa.

    mode is one of 'analytic' (keep `value` eigenvalues, an int),
    'relative' (cutoff = value * largest magnitude) or 'absolute'
    (cutoff = value).
    """

    mode: str
    value: float

    @classmethod
    def analytic(cls, rank: int) -> "RankPolicy":
        if rank < 1:
            raise ValidationError("analytic rank must be >= 1")
        return cls(mode="analytic", value=rank)

    @classmethod
    def relative(cls, factor: float) -> "RankPolicy":
        if not 0 <= factor < np.inf:
            raise ValidationError(
                "relative threshold factor must be finite and >= 0")
        return cls(mode="relative", value=factor)

    @classmethod
    def absolute(cls, cutoff: float) -> "RankPolicy":
        if not 0 <= cutoff < np.inf:
            raise ValidationError(
                "absolute threshold cutoff must be finite and >= 0")
        return cls(mode="absolute", value=cutoff)

    @classmethod
    def default_for(cls, rows: int, cols: int) -> "RankPolicy":
        """Standard numerical-rank practice: max(rows, cols) * machine eps."""
        return cls.relative(max(rows, cols) * np.finfo(np.float64).eps)

    def select_rank(self, values: np.ndarray) -> int:
        if self.mode == "analytic":
            if self.value > values.size:
                raise RankZeroError("analytic rank exceeds spectrum length")
            return self.value
        cut = self.value
        if self.mode == "relative":
            cut *= np.abs(values).max(initial=0.0)
        r = int(np.sum(values > cut))
        if r == 0:
            raise RankZeroError("all spectrum values at or below the cutoff")
        return r

    def describe(self) -> str:
        if self.mode == "analytic":
            return f"analytic({self.value})"
        return f"{self.mode}({self.value:.3e})"


# Side of the square tiles walked by `symmetrize_in_place` and the symmetry
# check, so that neither holds more than one tile-sized temporary.
_TILE = 256


def _tile_pairs(n: int):
    """(rows, cols) slices of the tiles of an n x n array on or above the
    diagonal; each off-diagonal tile stands for itself and its mirror."""
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def symmetrize_in_place(m: np.ndarray) -> np.ndarray:
    """Overwrite square `m` with 0.5 * (m + m.T) and return it.

    Bit for bit the out-of-place formula: IEEE addition is commutative, so
    entries (r, c) and (c, r) both get 0.5 * (m[r, c] + m[c, r]).
    """
    for rows, cols in _tile_pairs(m.shape[0]):
        s = 0.5 * (m[rows, cols] + m[cols, rows].T)
        m[rows, cols] = s
        m[cols, rows] = s.T
    return m


def _check_square_symmetric(m: np.ndarray) -> np.ndarray:
    """`m` symmetrized, after checking max|m - m.T| <= 1e-10 * max|m|.

    An exactly symmetric `m`, as every GN builder returns, is found so in
    one read of its tile pairs and returned itself (0.5 * (m + m) is m
    exactly); only a merely near-symmetric one is measured and copied.
    """
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got {m.shape}")
    if all((m[rows, cols] == m[cols, rows].T).all()
           for rows, cols in _tile_pairs(m.shape[0])):
        return m
    scale = max(m.max(initial=0.0), -m.min(initial=0.0))
    asym = 0.0
    for rows, cols in _tile_pairs(m.shape[0]):
        diff = m[rows, cols] - m[cols, rows].T
        asym = max(asym, np.abs(diff, out=diff).max())
    if scale > 0 and asym > 1e-10 * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    # Symmetrize to absorb roundoff from the caller's assembly.
    return symmetrize_in_place(m.copy())


def sym_eigendecompose(m, want_vectors: bool = False):
    """Eigendecompose a (near-)symmetric matrix.

    Returns a Spectrum with eigenvalues descending; with want_vectors, also
    the column-major matrix whose columns are the matching orthonormal
    eigenvectors.
    """
    # `a` is exactly symmetric, so its transpose holds the same values; for a
    # C-ordered `a` that view is Fortran-ordered, and NumPy fills LAPACK's
    # column-major buffer from contiguous rows instead of strided columns.
    a = _check_square_symmetric(as_matrix(m)).T
    try:
        if not want_vectors:
            return Spectrum.from_values(np.linalg.eigvalsh(a))
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    # LAPACK's eigenvalues ascend, so reversing its columns pairs them.
    # Column-major, because a product with q (whiten's) rounds by its layout.
    return Spectrum.from_values(w), np.asfortranarray(q[:, ::-1])


def svdvals(m: np.ndarray) -> np.ndarray:
    """Singular values of a 2-D array, descending, as a plain array; of an
    (n, rows, cols) stack, one such row per matrix."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value decomposition failed: {exc}") from exc


def psd_sqrt(m) -> np.ndarray:
    """Unique PSD square root; eigenvalues mildly below 0 are clamped."""
    spec, q = sym_eigendecompose(m, want_vectors=True)
    # Back in LAPACK's ascending order and C-contiguous layout: reordering the
    # eigenpairs changes how the product below rounds.
    w, q = spec.values[::-1], q[:, ::-1].copy()
    clamp = -_PSD_CLAMP * max(w.max(initial=0.0), 1.0)
    if w.min(initial=0.0) < clamp:
        raise PsdViolationError(
            f"eigenvalue {w.min():.3e} below PSD clamp threshold {clamp:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ q.T


def pseudo_condition_number(spec: Spectrum, policy: RankPolicy | None = None) -> float:
    """lambda_max over the smallest eigenvalue retained by the rank policy."""
    if policy is None:
        n = spec.values.size
        policy = RankPolicy.default_for(n, n)
    r = policy.select_rank(spec.values)
    denom = spec.values[r - 1]
    if denom <= 0:
        raise RankZeroError("retained smallest eigenvalue is non-positive")
    return float(spec.values[0] / denom)


def rank_sensitivity_sweep(spec: Spectrum) -> list[tuple[int, float]]:
    """kappa as a function of the assumed rank, for all positive values."""
    v = spec.values
    out = []
    for r in range(1, v.size + 1):
        if v[r - 1] <= 0:
            break
        out.append((r, float(v[0] / v[r - 1])))
    return out
