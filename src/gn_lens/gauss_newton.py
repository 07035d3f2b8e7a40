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
    forward,
    layer_products,
    lift_conv,
    partial_product,
)

# Larger than sqrt(machine eps): the forwards are piecewise linear in
# each parameter, so the central difference has no truncation error away
# from activation kinks and a wider step only reduces cancellation noise.
_FD_STEP = 1e-6

# Entries of one temporary term while the kd x kd GN is assembled (512 KB).
_SLAB_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GnMatrix:
    matrix: np.ndarray

    def spectrum(self) -> Spectrum:
        return sym_eigendecompose(self.matrix)


@dataclass(frozen=True)
class UnitActivationPattern:
    """Per-unit diagonal activation derivatives, entries in {1, alpha}."""

    diagonals: np.ndarray  # m x n
    alpha: float


def gn_linear(params: Params, sigma) -> GnMatrix:
    """kd x kd reduced GN of a deep linear network for input covariance sigma."""
    return gn_from_products(params, sigma, gn_layer_products(params, 0.0))


def gn_residual(params: Params, beta: float, sigma) -> GnMatrix:
    """Same assembly as gn_linear with beta-shifted partial products."""
    return gn_from_products(params, sigma, gn_layer_products(params, beta))


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


def gn_from_products(params: Params, sigma, products) -> GnMatrix:
    """The GN from `products = layer_products(params, beta)`.

    Weights too large for float64 overflow in the products or in their
    Gram factors; say so rather than assemble a non-finite GN.
    """
    k = params.layers[-1].shape[0]
    d = params.layers[0].shape[1]
    s_half = psd_sqrt(as_matrix(sigma, "sigma"))
    if s_half.shape[0] != d:
        raise DimensionError(
            f"sigma is {s_half.shape[0]}x{s_half.shape[0]} but input width is {d}"
        )
    g = np.zeros((k * d, k * d))
    g4 = g.reshape(k, d, k, d)
    for a, b in zip(*products):
        # One layer's factors at a time: with k = 1 each d x d `right` is
        # as large as the GN.
        with np.errstate(over="ignore", invalid="ignore"):
            left, right = a @ a.T, s_half @ (b.T @ b) @ s_half
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise NumericError("the products of the weight matrices overflow "
                               "float64; the weights are too large")
        # Sum kron(left, right) into g through its (k, d, k, d) view,
        # g4[i, p, j, q] += left[i, j] * right[p, q]: the same products and
        # sums as np.kron, but in slabs along the longer of k and d, each of
        # about _SLAB_ENTRIES entries (or one index), not a kd x kd term.
        if k >= d:
            step = max(1, _SLAB_ENTRIES // (d * k * d))
            for i in range(0, k, step):
                g4[i:i + step] += (left[i:i + step, None, :, None]
                                   * right[:, None, :])
        else:
            step = max(1, _SLAB_ENTRIES // (k * k * d))
            for p in range(0, d, step):
                g4[:, p:p + step] += (left[:, None, :, None]
                                      * right[p:p + step, None, :])
    return GnMatrix(matrix=symmetrize_in_place(g))


def unit_patterns(V, X, alpha: float) -> UnitActivationPattern:
    """Activation derivative pattern per hidden unit; z == 0 maps to alpha."""
    v = as_matrix(V, "V")
    x = as_matrix(X, "X")
    z = v @ x
    diags = np.where(z > 0, 1.0, alpha)
    return UnitActivationPattern(diagonals=diags, alpha=alpha)


def gn_leaky(W, V, X, alpha: float) -> tuple[GnMatrix, np.ndarray]:
    """kn x kn reduced GN of a one-hidden piecewise-linear network.

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
        raise DimensionError(
            f"kn={k * n} exceeds dimension cap {DEFAULT_DIM_CAP}")
    lam = unit_patterns(v, x, alpha).diagonals
    # p[(j, c), i] = lam[i, j] * w[c, i]; the V-part of the GN is
    # (X^T X kron 1 1^T) o (p p^T), the W-part is gamma kron I_k.
    p = (lam.T[:, None, :] * w[None, :, :]).reshape(n * k, m)
    u = lam * (v @ x)
    gamma = u.T @ u
    # a @ a.T runs as one symmetric rank-m update, so g is exactly symmetric.
    g = p @ p.T
    g.reshape(n, k, n, k)[...] *= (x.T @ x)[:, None, :, None]
    for c in range(k):
        g[c::k, c::k] += gamma
    return GnMatrix(matrix=g), gamma


def _flatten_params(params: Params) -> np.ndarray:
    return np.concatenate([w.ravel() for w in params.layers])


def _unflatten_params(theta: np.ndarray, params: Params) -> Params:
    layers = []
    offset = 0
    for w in params.layers:
        size = w.size
        layers.append(theta[offset : offset + size].reshape(w.shape))
        offset += size
    return Params(layers=tuple(layers))


def _stacked_jacobian_fd(spec: NetworkSpec, params: Params,
                         X: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the stacked outputs, (k*n) x p."""
    theta = _flatten_params(params)
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
        f_plus = forward(spec, _unflatten_params(plus, params), X)
        f_minus = forward(spec, _unflatten_params(minus, params), X)
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
    (p x p or kn x kn); the nonzero spectra agree.
    """
    x = as_matrix(X, "X")
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
        g = jac.T @ jac  # p x p
    else:
        g = jac @ jac.T  # kn x kn
    g *= scale
    return GnMatrix(matrix=symmetrize_in_place(g))


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
    shapes = spec.layer_shapes()
    if [w.shape for w in params.layers] != shapes:
        raise DimensionError(f"filter shapes must be {shapes}")
    p = sum(w.size for w in params.layers)
    if p > DEFAULT_DIM_CAP:
        raise DimensionError(f"p={p} exceeds dimension cap {DEFAULT_DIM_CAP}")
    s_half = psd_sqrt(as_matrix(sigma, "sigma"))
    lifted = Params(layers=tuple(lift_conv(spec, params)))
    if s_half.shape[0] != lifted.layers[0].shape[1]:
        raise DimensionError(
            f"sigma is {s_half.shape[0]}x{s_half.shape[0]} but the input has "
            f"{lifted.layers[0].shape[1]} entries"
        )
    lengths = spec.conv_lengths()
    blocks = []
    for ell, ((mo, mi, kf), above, below) in enumerate(
            zip(shapes, *layer_products(lifted)), start=1):
        above = above.reshape(-1, mo, lengths[ell])
        below = below @ s_half
        # window[b, i, j, t] = below[b * d_prev + i + t, j]
        window = sliding_window_view(
            below.reshape(mi, lengths[ell - 1], -1), kf, axis=1)
        # d F_c(Sigma^(1/2) e_j) / d w^l_{abt}
        block = np.einsum("cai,bijt->cjabt", above, window)
        blocks.append(block.reshape(-1, mo * mi * kf))
    jac = np.hstack(blocks)
    return GnMatrix(matrix=symmetrize_in_place(jac.T @ jac))


def functional_hessian_spectrum(W, V, sigma, teacher: TeacherSpec):
    """Spectrum of the functional Hessian of a one-hidden linear network.

    Returns (Spectrum, H_F): the eigenvalues are +/- the singular values of
    the residual-input covariance (W V - Z) Sigma, each with multiplicity m,
    padded with zeros to the full (k + d) * m dimension, plus the assembled
    block matrix for oracle use.
    """
    w = as_matrix(W, "W")
    v = as_matrix(V, "V")
    sig = as_matrix(sigma, "sigma")
    z = teacher.Z
    k, m = w.shape
    d = v.shape[1]
    if v.shape[0] != m or z.shape != (k, d) or sig.shape != (d, d):
        raise DimensionError("W, V, Z, sigma shapes are inconsistent")
    omega = (w @ v - z) @ sig
    svals = svdvals(omega)
    total = (k + d) * m
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
