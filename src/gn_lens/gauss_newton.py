"""Exact Gauss-Newton matrices for every supported architecture, a brute-force
Jacobian oracle, and the functional (residual-driven) Hessian.

The builders return the GN in one of three forms:
  * kd x kd (gn_linear, gn_residual, gn_conv): sum over layers of Kronecker
    terms built from partial weight products and the PSD square root of the
    input covariance; includes the covariance's 1/n.
  * kn x kn (gn_leaky): one GEMM over the hidden units, masked by the raw
    data Gram matrix X^T X (no 1/n), used for the piecewise-linear
    one-hidden case.
  * p x p (gn_conv_shared): J^T J in the network's own parameters, used for
    the shared-weight conv chain; includes the covariance's 1/n.
gn_from_jacobian returns p x p or kn x kn, with 1/n unless told otherwise.
All share their nonzero spectrum with the full parameter-space GN matrix
(up to the 1/n scale); condition numbers are scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NumericError, SizeError, SpecError
from .linalg import (
    DEFAULT_DIM_CAP,
    Spectrum,
    as_matrix,
    psd_sqrt,
    svdvals,
    sym_eigendecompose,
    symmetrize_in_place,
)
from .network import (
    LINEAR_CONV,
    LINEAR_DEEP,
    RESIDUAL,
    NetworkSpec,
    Params,
    TeacherSpec,
    flatten_layers,
    forward,
    layer_products,
    layer_views,
    lift_conv,
    partial_product,
)

# Larger than sqrt(machine eps), to cut cancellation noise. The forwards of
# the piecewise-linear kinds are linear in each parameter away from
# activation kinks, where the central difference is exact; batch norm is
# not, so for linear_bn_one_hidden it is an O(h^2) approximation.
_FD_STEP = 1e-6

# Entries (256 KB) of one chunk of the kd x kd GN while it is assembled, and
# of each temporary that the chunk needs; also the most entries of Kronecker
# factors held at once, unless one layer's factors alone are larger.
_SLAB_ENTRIES = 1 << 15


@dataclass(frozen=True)
class GnMatrix:
    matrix: np.ndarray

    def spectrum(self) -> Spectrum:
        return sym_eigendecompose(self.matrix)


def gn_linear(params: Params, sigma) -> GnMatrix:
    """kd x kd reduced GN of a deep linear network for input covariance sigma."""
    return gn_residual(params, 0.0, sigma)


def gn_residual(params: Params, beta: float, sigma) -> GnMatrix:
    """gn_linear's GN with beta-shifted products, built before Sigma^(1/2)."""
    products = gn_layer_products(params, beta)
    s_half = psd_sqrt(as_matrix(sigma, "sigma"))
    return gn_from_products(params, products, s_half)


def gn_layer_products(params: Params, beta: float):
    """`layer_products` for a GN, refused past the dimension cap before
    anything is built; overflow is left to `gn_from_products` to report."""
    k = params.layers[-1].shape[0]
    d = params.layers[0].shape[1]
    if k * d > DEFAULT_DIM_CAP:
        raise SizeError(f"the GN would be {k * d}x{k * d} (k*d with k={k}, "
                        f"d={d}), which exceeds the cap {DEFAULT_DIM_CAP}")
    with np.errstate(over="ignore", invalid="ignore"):
        return layer_products(params, beta)


def gn_from_products(params: Params, products, s_half,
                     alloc=np.empty) -> GnMatrix:
    """The GN from `products = layer_products(params, beta)` and the PSD
    square root `s_half` of the input covariance, all it reads of the data,
    built into `alloc(shape)`. Every entry is written, so the storage may
    hold anything, as a held GN's does.

    The GN is sum_l kron(left_l, right_l), with left_l = a a^T (k x k) and
    right_l = S^(1/2) b^T b S^(1/2) (d x d), symmetrized as 0.5 * (G + G^T).
    Its d x d block (i, j) is G_ij = sum_l left_l[i, j] * right_l. Each
    left_l is one symmetric rank update, so exactly symmetric, and
    G_ji == G_ij bit for bit: both blocks of the symmetrized GN equal
    0.5 * (G_ij + G_ij^T). So only the block pairs i <= j are summed, a
    chunk of about _SLAB_ENTRIES entries at a time over all layers, and
    each chunk is symmetrized and mirrored while it is still in cache.
    Every entry is 0.0 plus the layers' terms in order, then halved as in
    the out-of-place formulas, so the bytes are theirs.

    Weights too large for float64 overflow in the products or in their
    Gram factors; say so rather than assemble a non-finite GN.
    """
    k = params.layers[-1].shape[0]
    d = params.layers[0].shape[1]
    if s_half.shape[0] != d:
        raise DimensionError(
            f"sigma is {s_half.shape[0]}x{s_half.shape[0]} but input width is {d}"
        )
    g = alloc((k * d, k * d))
    g4 = g.reshape(k, d, k, d)
    layers = list(zip(*products))
    # Layers whose factors are held at once: one when a layer's factors
    # fill _SLAB_ENTRIES, as with k = 1 and a wide input, where each d x d
    # right factor is as large as the GN.
    group = max(1, _SLAB_ENTRIES // (k * k + d * d))
    whole_blocks = d * d <= _SLAB_ENTRIES
    for start in range(0, len(layers), group):
        with np.errstate(over="ignore", invalid="ignore"):
            factors = [(a @ a.T, s_half @ (b.T @ b) @ s_half)
                       for a, b in layers[start:start + group]]
        if not all(np.isfinite(f).all() for pair in factors for f in pair):
            raise NumericError("the products of the weight matrices overflow "
                               "float64; the weights are too large")
        last = start + group >= len(layers)
        for rows, cols, ps in _pair_chunks(k, d):
            # acc[i, j, p, q] sums left[i, j] * right[p, q] over the layers,
            # contiguous so that each product runs over whole blocks; g holds
            # the sums between groups of layers.
            held = g4[rows, ps, cols].transpose(0, 2, 1, 3)
            acc = held.copy() if start else np.zeros(held.shape)
            for left, right in factors:
                # The outer product left[i, j] * right[p, q]: einsum runs it
                # about twice as fast as a broadcast multiply. It may give
                # +0.0 where the multiply gives -0.0, which changes no sum
                # here: one that starts at +0.0 is never -0.0, and adding
                # either zero to it leaves it as it is.
                acc += np.einsum("ij,pq->ijpq", left[rows, cols], right[ps])
            if last and whole_blocks:
                s = acc + acc.transpose(0, 1, 3, 2)
                s *= 0.5
                # Each folded block is symmetric: its mirror is the same.
                g4[rows, :, cols] = s.transpose(0, 2, 1, 3)
                g4[cols, :, rows] = s.transpose(1, 2, 0, 3)
            else:
                held[...] = acc
    if not whole_blocks:
        # Blocks larger than a chunk were summed in slabs of rows; fold
        # each one in tiles.
        for i in range(k):
            for j in range(i, k):
                symmetrize_in_place(g4[i, :, j])
                if j > i:
                    g4[j, :, i] = g4[i, :, j]
    return GnMatrix(matrix=g)


def _pair_chunks(k: int, d: int):
    """(rows, cols, ps) slices of G.reshape(k, d, k, d) that together hold
    every d x d block (i, j) with i <= j, each of about _SLAB_ENTRIES
    entries: whole block rows i0 <= i < i1 with columns i0 <= j < k (the
    blocks below the diagonal in it are wasted work), else segments of one
    block row, else, for blocks larger than that, slabs of rows p of one
    block."""
    blocks = _SLAB_ENTRIES // (d * d)
    if blocks == 0:
        step = _SLAB_ENTRIES // d
        for i in range(k):
            for j in range(i, k):
                for p in range(0, d, step):
                    yield (slice(i, i + 1), slice(j, j + 1),
                           slice(p, min(p + step, d)))
        return
    whole = slice(0, d)
    i = 0
    while i < k:
        rows = min(blocks // (k - i), k - i)
        if rows:
            yield slice(i, i + rows), slice(i, k), whole
            i += rows
        else:
            for j in range(i, k, blocks):
                yield slice(i, i + 1), slice(j, min(j + blocks, k)), whole
            i += 1


# Overflow (weights or data too large) is reported, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def gn_leaky(W, V, X, alpha: float,
             alloc=np.empty) -> tuple[GnMatrix, np.ndarray]:
    """kn x kn reduced GN of a one-hidden piecewise-linear network, built
    into `alloc(shape)`, which is asked for it after the size check.

    Uses the raw data Gram X^T X without a 1/n factor. Also returns the
    n x n second-term matrix (sum of per-unit input-weight Grams) needed by
    the Leaky-ReLU condition-number bound.
    """
    w = as_matrix(W, "W")
    v = as_matrix(V, "V")
    x = as_matrix(X, "X")
    k, m = w.shape
    if v.shape[0] != m or v.shape[1] != x.shape[0]:
        raise DimensionError("W, V, X shapes are inconsistent")
    n = x.shape[1]
    if k * n > DEFAULT_DIM_CAP:
        raise SizeError(f"kn={k * n} exceeds dimension cap {DEFAULT_DIM_CAP}")
    # Slopes lam: 1 where u = v @ x > 0, alpha elsewhere (u == 0 too).
    u = v @ x
    lam = np.where(u > 0, 1.0, alpha)
    u *= lam
    gamma = u.T @ u
    if not np.isfinite(gamma).all():
        raise NumericError("the hidden units overflow float64; the weights "
                           "or data are too large")
    # p[(j, c), i] = lam[i, j] * w[c, i]; the V-part of the GN is
    # (X^T X kron 1 1^T) o (p p^T), the W-part is gamma kron I_k.
    p = (lam.T[:, None, :] * w[None, :, :]).reshape(n * k, m)
    # p @ p.T runs as one symmetric rank-m update, so g is exactly symmetric.
    g = np.matmul(p, p.T, out=alloc((n * k, n * k)))
    g.reshape(n, k, n, k)[...] *= (x.T @ x)[:, None, :, None]
    for c in range(k):
        g[c::k, c::k] += gamma
    return GnMatrix(matrix=g), gamma


def _stacked_jacobian_fd(spec: NetworkSpec, params: Params,
                         X: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the stacked outputs, (k*n) x p."""
    layers = params.layers
    theta = flatten_layers(layers)
    base = forward(spec, params, X)
    if not np.all(np.isfinite(base)):
        raise NumericError("forward pass produced non-finite outputs")
    out_size = base.size
    jac = np.zeros((out_size, theta.size))
    for j in range(theta.size):
        h = _FD_STEP * (1.0 + abs(theta[j]))
        plus = theta.copy()
        plus[j] += h
        minus = theta.copy()
        minus[j] -= h
        f_plus = forward(spec, Params(layers=layer_views(plus, layers)), X)
        f_minus = forward(spec, Params(layers=layer_views(minus, layers)), X)
        # Columns of X index samples; stack sample-major, output-minor.
        jac[:, j] = ((f_plus - f_minus) / (2 * h)).T.ravel()
    if not np.all(np.isfinite(jac)):
        raise NumericError("finite-difference Jacobian is non-finite")
    return jac


def _stacked_jacobian_linear(spec: NetworkSpec, params: Params,
                             X: np.ndarray) -> np.ndarray:
    """Exact stacked Jacobian for linear/residual products, (k*n) x p."""
    beta = spec.skip
    L = len(params.layers)
    k = params.layers[-1].shape[0]
    n = X.shape[1]
    blocks = []
    for ell in range(1, L + 1):
        above = partial_product(params, L, ell + 1, beta)  # k x a_ell
        below_x = partial_product(params, ell - 1, 1, beta) @ X  # a_{ell-1} x n
        a_ell, a_prev = above.shape[1], below_x.shape[0]
        # d F_c(x_j) / d W^ell_{ab} = above[c, a] * below_x[b, j]
        block = np.einsum("ca,bj->jcab", above, below_x)
        blocks.append(block.reshape(k * n, a_ell * a_prev))
    return np.hstack(blocks)


def gn_from_jacobian(spec: NetworkSpec, params: Params, X,
                     mode: str = "finite_difference",
                     include_n_factor: bool = True) -> GnMatrix:
    """Brute-force GN via the network Jacobian.

    mode 'analytic_linear' differentiates the product form exactly (linear
    and residual kinds only); 'finite_difference' works for every kind,
    including batch-coupled ones, via central differences on the stacked
    k*n outputs. Returns the Gram form on the smaller of the two sides
    (p x p or kn x kn); the nonzero spectra agree. A side past the dimension
    cap is refused with SizeError before any forward pass.
    """
    spec.check_layers(params.layers)
    x = as_matrix(X, "X")
    kn = spec.widths[-1] * x.shape[1]
    p = sum(w.size for w in params.layers)
    if min(p, kn) > DEFAULT_DIM_CAP:
        raise SizeError(f"min(p, kn)={min(p, kn)} (p={p}, kn={kn}) exceeds "
                        f"dimension cap {DEFAULT_DIM_CAP}")
    if mode == "analytic_linear":
        if spec.kind not in (LINEAR_DEEP, RESIDUAL):
            raise SpecError("analytic_linear mode needs a linear/residual kind")
        jac = _stacked_jacobian_linear(spec, params, x)
    elif mode == "finite_difference":
        jac = _stacked_jacobian_fd(spec, params, x)
    else:
        raise SpecError(f"unknown jacobian mode {mode!r}")
    n = x.shape[1]
    scale = 1.0 / n if include_n_factor else 1.0
    if jac.shape[1] <= jac.shape[0]:
        g = jac.T @ jac  # p x p; one SYRK, so exactly symmetric
    else:
        g = jac @ jac.T  # kn x kn; likewise
    g *= scale
    return GnMatrix(matrix=g)


def gn_conv(lifted_layers, sigma) -> GnMatrix:
    """GN of the Toeplitz-lifted linear network (dense-layer analysis).

    The lifted matrices are treated as independent dense layers, so this
    measures the conditioning of the lifted linear network, not of the
    shared-weight conv parameterization.
    """
    params = Params(layers=tuple(as_matrix(t) for t in lifted_layers))
    return gn_linear(params, sigma)


def gn_conv_shared(spec: NetworkSpec, params: Params, sigma) -> GnMatrix:
    """p x p GN of a linear conv chain in its shared filter taps.

    The tap Jacobian is J_lifted @ S, where S scatters each tap into every
    Toeplitz entry that holds it. Layer l's lifted block is
    A_l kron (B_l Sigma^(1/2))^T, with A_l and B_l the lifted partial
    products above and below the layer; summing it along each Toeplitz band
    contracts A_l with a sliding window of B_l Sigma^(1/2). Unlike gn_conv
    this is the GN of the conv network itself, of rank at most the number
    of end-to-end filter taps.
    """
    if spec.kind != LINEAR_CONV:
        raise SpecError("gn_conv_shared needs the linear_conv kind")
    p = sum(w.size for w in params.layers)
    if p > DEFAULT_DIM_CAP:
        raise SizeError(f"p={p} exceeds dimension cap {DEFAULT_DIM_CAP}")
    s_half = psd_sqrt(as_matrix(sigma, "sigma"))
    if s_half.shape[0] != spec.widths[0]:
        raise DimensionError(f"sigma is {s_half.shape[0]}x{s_half.shape[0]} "
                             f"but the input has {spec.widths[0]} entries")
    lifted = Params(layers=tuple(lift_conv(spec, params)))
    lengths = spec.conv_lengths()
    blocks = []
    for ell, ((mo, mi, kf), above, below) in enumerate(
            zip(spec.layer_shapes(), *layer_products(lifted)), start=1):
        above = above.reshape(-1, mo, lengths[ell])
        below = below @ s_half
        # window[b, i, j, t] = below[b * d_prev + i + t, j]
        window = sliding_window_view(
            below.reshape(mi, lengths[ell - 1], -1), kf, axis=1)
        # d F_c(Sigma^(1/2) e_j) / d w^l_{abt}
        block = np.einsum("cai,bijt->cjabt", above, window)
        blocks.append(block.reshape(-1, mo * mi * kf))
    jac = np.hstack(blocks)
    return GnMatrix(matrix=jac.T @ jac)  # one SYRK: exactly symmetric


def functional_hessian_spectrum(W, V, sigma, teacher: TeacherSpec):
    """Spectrum of the functional Hessian of a one-hidden linear network.

    Returns (Spectrum, H_F): the eigenvalues are +/- the singular values of
    the residual-input covariance (W V - Z) Sigma, each with multiplicity m,
    padded with zeros to the full (k + d) * m dimension, plus the assembled
    block matrix for oracle use. A dimension past the cap is refused with
    SizeError before anything is computed.
    """
    w = as_matrix(W, "W")
    v = as_matrix(V, "V")
    sig = as_matrix(sigma, "sigma")
    z = teacher.Z
    k, m = w.shape
    d = v.shape[1]
    if v.shape[0] != m or z.shape != (k, d) or sig.shape != (d, d):
        raise DimensionError("W, V, Z, sigma shapes are inconsistent")
    total = (k + d) * m
    if total > DEFAULT_DIM_CAP:
        raise SizeError(f"(k+d)m={total} exceeds dimension cap "
                        f"{DEFAULT_DIM_CAP}")
    omega = (w @ v - z) @ sig
    svals = svdvals(omega)
    values = np.concatenate([
        np.repeat(svals, m),
        np.zeros(total - 2 * m * svals.size),
        np.repeat(-svals[::-1], m),
    ])
    spec = Spectrum.from_values(values)
    top = np.hstack([np.zeros((k * m, k * m)), np.kron(omega, np.eye(m))])
    bot = np.hstack([np.kron(omega.T, np.eye(m)), np.zeros((d * m, d * m))])
    h_f = np.vstack([top, bot])
    return spec, h_f
