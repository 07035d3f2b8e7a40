"""`sym_eigendecompose` hands LAPACK an exactly symmetric matrix as its
Fortran-ordered transpose view, which holds the same values, so its spectra
and eigenvectors are bit for bit NumPy's on the matrix itself; a merely
near-symmetric matrix is still solved through its symmetrized copy."""

import numpy as np
import pytest

from gn_lens.linalg import sym_eigendecompose

# Around the 256 x 256 tiles that the symmetry check reads.
SIZES = [1, 7, 255, 256, 257, 520]


def _symmetric(n, order):
    b = np.random.default_rng(n).standard_normal((n, n))
    return np.asarray(b + b.T, order=order)  # b + b.T is exactly symmetric


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", SIZES)
def test_exactly_symmetric_spectra_are_numpys_bit_for_bit(n, order):
    m = _symmetric(n, order)
    assert _same(sym_eigendecompose(m).values,
                 np.linalg.eigvalsh(m)[::-1])
    spec, q = sym_eigendecompose(m, want_vectors=True)
    w, v = np.linalg.eigh(m)
    assert _same(spec.values, w[::-1])
    assert _same(q, np.asfortranarray(v[:, ::-1]))


@pytest.mark.parametrize("name", ["eigvalsh", "eigh"])
def test_lapack_reads_a_c_ordered_matrix_as_its_fortran_view(monkeypatch,
                                                              name):
    seen = []
    solve = getattr(np.linalg, name)

    def recorded(a):
        seen.append(a)
        return solve(a)

    monkeypatch.setattr(np.linalg, name, recorded)
    m = _symmetric(300, "C")
    sym_eigendecompose(m, want_vectors=name == "eigh")
    [a] = seen
    assert a.flags.f_contiguous and np.shares_memory(a, m)


@pytest.mark.parametrize("n", [5, 257])
def test_a_near_symmetric_matrix_is_solved_through_its_symmetrized_copy(n):
    m = _symmetric(n, "C")
    m[0, n - 1] *= 1 + 1e-13
    before = m.copy()
    sym = 0.5 * (m + m.T)
    assert _same(sym_eigendecompose(m).values, np.linalg.eigvalsh(sym)[::-1])
    spec, q = sym_eigendecompose(m, want_vectors=True)
    w, v = np.linalg.eigh(sym)
    assert _same(spec.values, w[::-1])
    assert _same(q, np.asfortranarray(v[:, ::-1]))
    assert _same(m, before)
    # Neither triangle of `m` alone gives that spectrum.
    assert not _same(np.linalg.eigvalsh(m), np.linalg.eigvalsh(sym))
    assert not _same(np.linalg.eigvalsh(m.T), np.linalg.eigvalsh(sym))
