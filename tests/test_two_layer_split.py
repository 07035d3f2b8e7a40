"""An L = 2 oracle for the GN spectrum that builds no kd x kd matrix.

At L = 2 the GN has two terms, G = A kron Sigma + I_k kron M, with A the
k x k Gram of the (shifted) top layer and M = Sigma^(1/2) W1^T W1 Sigma^(1/2)
from the (shifted) bottom layer. With A = U diag(lambda) U^T,
(U kron I)^T G (U kron I) is block diagonal with blocks lambda_i Sigma + M,
so the spectrum is that of k eigenproblems of size d x d. Each block is
positive definite where lambda_i > 0 and has rank min(m, d) where
lambda_i = 0, which gives the rank min(k, m) d + (k - min(k, m)) min(m, d).

The split and the dense `gn_linear`/`gn_residual` path round differently:
each eigenvalue agrees to a few ulps of lambda_max (worst 5.2e-15 relative
to lambda_max over these shapes, under the SkylakeX, Haswell and Nehalem
OpenBLAS kernels), so kappa = lambda_max / lambda_r moves by up to
1.2 * kappa * eps. kappa is compared at 1e-12 relative, or at
KAPPA_EPS * kappa * eps where that is larger (kappa above about 280).
"""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    RankPolicy,
    Spectrum,
    gn_linear,
    gn_residual,
    init,
    pseudo_condition_number,
)
from gn_lens.network import shift_layer

EPS = np.finfo(np.float64).eps
# Eigenvalue agreement relative to lambda_max, and kappa's in units of
# kappa * eps: about 20x and 14x the worst measured.
SPECTRUM_TOL = 1e-13
KAPPA_EPS = 16


def split_blocks(w1, w2, beta, sigma):
    """The eigenvalues of each block lambda_i Sigma + M, one array a block."""
    top = shift_layer(w2, beta) if beta else w2
    bottom = shift_layer(w1, beta) if beta else w1
    values, vectors = np.linalg.eigh(sigma)
    s_half = (vectors * np.sqrt(values)) @ vectors.T
    b = bottom @ s_half
    m_block = b.T @ b
    return [np.linalg.eigvalsh(lam * sigma + m_block)
            for lam in np.linalg.eigvalsh(top @ top.T)]


def _instances(beta, count=16):
    rng = np.random.default_rng(int(beta * 10) + 301)
    for _ in range(count):
        k, d, m = (int(v) for v in rng.integers(2, 20, 3))
        a = rng.standard_normal((d, d))
        sigma = a @ a.T / d + 0.1 * np.eye(d)  # positive definite, not I
        kind = "residual" if beta else "linear_deep"
        spec = NetworkSpec(kind=kind, dims=(d, m, k), beta=beta)
        yield spec, init(spec, seed=int(rng.integers(1000))), sigma


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
def test_the_split_gives_the_dense_spectrum_kappa_and_rank(beta):
    for spec, params, sigma in _instances(beta):
        d, m, k = spec.dims
        gn = (gn_residual(params, beta, sigma) if beta
              else gn_linear(params, sigma))
        dense = gn.spectrum()
        blocks = split_blocks(*params.layers, beta, sigma)
        split = Spectrum.from_values(np.concatenate(blocks))
        lam_max = dense.values[0]
        assert np.max(np.abs(split.values - dense.values)) <= (
            SPECTRUM_TOL * lam_max), spec

        kappa = pseudo_condition_number(dense)
        assert pseudo_condition_number(split) == pytest.approx(
            kappa, rel=max(1e-12, KAPPA_EPS * kappa * EPS)), spec

        policy = RankPolicy.default_for(k * d, k * d)
        cut = policy.value * lam_max
        block_ranks = sum(int(np.sum(v > cut)) for v in blocks)
        full = min(k, m)
        assert policy.select_rank(dense.values) == block_ranks == (
            full * d + (k - full) * min(m, d)), spec

