"""Architecture specs, parameter containers, initializers, forward passes,
partial weight products (one range, or all of them via `layer_products`),
Toeplitz lifting of 1-D convolutions, and pruning.

Layer ell (1-based, as in the product F(x) = W^L ... W^1 x) has shape
a_ell x a_{ell-1}. Convolutional layers store their weights as a 3-D fibre
array (out_channels, in_channels, kernel) instead of a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionError,
    FormatError,
    SpecError,
    ValidationError,
)
from .linalg import as_matrix

LINEAR_DEEP = "linear_deep"
RESIDUAL = "residual"
LEAKY_ONE_HIDDEN = "leaky_one_hidden"
LINEAR_CONV = "linear_conv"
LINEAR_BN_ONE_HIDDEN = "linear_bn_one_hidden"

KINDS = (LINEAR_DEEP, RESIDUAL, LEAKY_ONE_HIDDEN, LINEAR_CONV, LINEAR_BN_ONE_HIDDEN)

BN_EPS = 1e-5

INIT_SCHEMES = ("kaiming_normal", "xavier_normal", "gaussian", "aligned_svd")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description.

    dims are the layer widths [a_0 = d, a_1, ..., a_L = k]. For the conv
    kind, dims is (input_length,) and conv_layers lists
    (out_channels, in_channels, kernel) per layer.
    """

    kind: str
    dims: tuple[int, ...]
    beta: float = 0.0
    alpha: float = 0.01
    conv_layers: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown network kind {self.kind!r}")
        dims = tuple(int(v) for v in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(v < 1 for v in dims):
            raise SpecError("all widths must be >= 1")
        if self.kind == LINEAR_CONV:
            if len(dims) != 1 or not self.conv_layers:
                raise SpecError("conv kind needs dims=(input_length,) and conv_layers")
            convs = tuple(tuple(int(v) for v in c) for c in self.conv_layers)
            object.__setattr__(self, "conv_layers", convs)
            prev_ch = convs[0][1]
            length = dims[0]
            for mo, mi, kf in convs:
                if mi != prev_ch:
                    raise SpecError("conv in_channels must chain")
                if kf > length:
                    raise SpecError(f"kernel {kf} exceeds signal length {length}")
                length = length - kf + 1
                prev_ch = mo
        else:
            if len(dims) < 2:
                raise SpecError("dims must list at least input and output width")
            if self.kind in (LEAKY_ONE_HIDDEN, LINEAR_BN_ONE_HIDDEN) and len(dims) != 3:
                raise SpecError("one-hidden kinds need dims = [d, m, k]")
        if self.kind == RESIDUAL and not 0 <= self.beta < np.inf:
            raise SpecError(f"beta must be finite and >= 0, got {self.beta}")
        if self.kind == LEAKY_ONE_HIDDEN and not 0 <= self.alpha <= 1:
            raise SpecError("alpha must lie in [0, 1]")

    @property
    def skip(self) -> float:
        """The shift beta of each residual layer; 0 for every other kind."""
        return self.beta if self.kind == RESIDUAL else 0.0

    @property
    def depth(self) -> int:
        if self.kind == LINEAR_CONV:
            return len(self.conv_layers)
        return len(self.dims) - 1

    def layer_shapes(self) -> list[tuple[int, ...]]:
        if self.kind == LINEAR_CONV:
            return [(mo, mi, kf) for mo, mi, kf in self.conv_layers]
        return [
            (self.dims[i + 1], self.dims[i]) for i in range(len(self.dims) - 1)
        ]

    def conv_lengths(self) -> list[int]:
        """Signal length after each conv layer (index 0 = input length)."""
        if self.kind != LINEAR_CONV:
            raise SpecError("conv_lengths only defined for conv kind")
        lengths = [self.dims[0]]
        for _, _, kf in self.conv_layers:
            lengths.append(lengths[-1] - kf + 1)
        return lengths


@dataclass(frozen=True)
class Params:
    """Per-layer weights, optionally with persistent 0/1 pruning masks."""

    layers: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        layers = tuple(np.asarray(w, dtype=np.float64) for w in self.layers)
        object.__setattr__(self, "layers", layers)
        for w in layers:
            if not np.isfinite(w).all():
                raise ValidationError("layer weights contain non-finite entries")
        if self.masks is not None:
            masks = tuple(np.asarray(m, dtype=np.float64) for m in self.masks)
            if len(masks) != len(layers):
                raise DimensionError("mask count must match layer count")
            for w, m in zip(layers, masks):
                if m.shape != w.shape:
                    raise DimensionError("mask shape must match layer shape")
                if np.any((m != 0) & (m != 1)):
                    raise ValidationError("masks must be 0/1")
                if np.any(w[m == 0] != 0):
                    raise ValidationError("masked entries must be exactly zero")
            object.__setattr__(self, "masks", masks)


@dataclass(frozen=True)
class TeacherSpec:
    """Teacher weights for the y = Z x setting."""

    Z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Z", as_matrix(self.Z, "Z"))


def _layer_sigma(spec: NetworkSpec, idx: int, scheme, sigma: float) -> float:
    shape = spec.layer_shapes()[idx]
    if spec.kind == LINEAR_CONV:
        fan_in = shape[1] * shape[2]
        fan_out = shape[0] * shape[2]
    else:
        fan_out, fan_in = shape
    if scheme == "kaiming_normal":
        return (1.0 / fan_in) ** 0.5
    if scheme == "xavier_normal":
        return (2.0 / (fan_in + fan_out)) ** 0.5
    if scheme == "gaussian":
        return float(sigma)
    raise SpecError(f"unknown init scheme {scheme!r}")


def init(spec: NetworkSpec, scheme: str = "kaiming_normal", seed: int = 0,
         sigma: float = 1.0) -> Params:
    """I.i.d. Gaussian init, or `init_aligned_svd` for scheme='aligned_svd'.

    sigma is only used for scheme='gaussian'.
    """
    if scheme == "aligned_svd":
        return init_aligned_svd(spec, seed=seed)
    rng = np.random.default_rng(seed)
    layers = []
    for idx, shape in enumerate(spec.layer_shapes()):
        s = _layer_sigma(spec, idx, scheme, sigma)
        layers.append(s * rng.standard_normal(shape))
    return Params(layers=tuple(layers))


def init_aligned_svd(spec: NetworkSpec, singular_value_law="abs_gaussian",
                     explicit=None, seed: int = 0) -> Params:
    """Initializer with coinciding singular bases across layers.

    All hidden layers share one seeded orthogonal basis Q and are symmetric
    PSD, W^ell = Q diag(s) Q^T, so adding beta*I shifts every singular value
    by exactly beta and consecutive layers' singular bases align. Rectangular
    end layers use truncated columns of Q.
    """
    if spec.kind not in (LINEAR_DEEP, RESIDUAL):
        raise SpecError("aligned init is defined for linear/residual kinds")
    dims = spec.dims
    hidden = dims[1:-1]
    if hidden and any(h != hidden[0] for h in hidden):
        raise SpecError("aligned init requires equal (square) hidden widths")
    m = hidden[0] if hidden else max(dims[0], dims[-1])
    d, k = dims[0], dims[-1]
    if d > m or k > m:
        raise SpecError("aligned init requires hidden width >= end widths")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    L = spec.depth

    def draw(count, idx):
        if singular_value_law == "abs_gaussian":
            return np.abs(rng.standard_normal(count))
        if singular_value_law == "explicit":
            vals = np.asarray(explicit[idx], dtype=np.float64)
            if vals.size != count:
                raise SpecError(
                    f"layer {idx + 1} needs {count} singular values, got {vals.size}"
                )
            return vals
        raise SpecError(f"unknown singular value law {singular_value_law!r}")

    layers = []
    for idx in range(L):
        rows, cols = dims[idx + 1], dims[idx]
        s = draw(min(rows, cols), idx)
        if rows == m and cols == m:
            w = (q * s) @ q.T
        elif idx == 0:  # m x d, left basis from Q
            w = q[:, :cols] * s
        else:  # k x m last layer, right basis from Q
            w = (np.eye(rows) * s) @ q[:, :rows].T
        layers.append(w)
    return Params(layers=tuple(layers))


def rect_identity(rows: int, cols: int) -> np.ndarray:
    """Rectangular identity: top-left identity block, zeros elsewhere."""
    return np.eye(rows, cols)


def _shift(w: np.ndarray, beta: float) -> np.ndarray:
    """w + beta * rect_identity(*w.shape), without building the identity.

    Adding 0.0 turns -0.0 into +0.0 as the identity's zeros do, and the
    copy is C-ordered as that sum is, so products of the shifted layer
    round the same way.
    """
    out = np.add(w, 0.0, order="C")
    # The first min(rows, cols) entries of the diagonal, by flat stride.
    out.reshape(-1)[::w.shape[1] + 1][:min(w.shape)] += beta
    return out


def leaky_relu(z: np.ndarray, alpha: float) -> np.ndarray:
    return np.where(z > 0, z, alpha * z)


def batch_norm(h: np.ndarray) -> np.ndarray:
    """Normalize each hidden coordinate across the batch; no learnable affine."""
    mean = h.mean(axis=1, keepdims=True)
    var = h.var(axis=1, keepdims=True)
    return (h - mean) / np.sqrt(var + BN_EPS)


def conv_forward(spec: NetworkSpec, params: Params, X: np.ndarray) -> np.ndarray:
    """Direct stride-1 valid correlation through the conv chain.

    X is (in_channels * input_length) x n; output is (m_L * d_L) x n with
    channel-major row-wise vectorization, matching the Toeplitz lifting.
    """
    n = X.shape[1]
    h = X.T.reshape(n, spec.conv_layers[0][1], spec.dims[0])
    for fib in params.layers:
        # h[j, a, i] <- sum over b, t of h[j, b, i + t] * fib[a, b, t]
        window = sliding_window_view(h, fib.shape[2], axis=2)
        h = np.einsum("jbit,abt->jai", window, fib)
    return h.reshape(n, -1).T


def forward(spec: NetworkSpec, params: Params, X) -> np.ndarray:
    """Network outputs, k x n (conv: (m_L * d_L) x n)."""
    x = as_matrix(X, "X")
    if spec.kind == LINEAR_CONV:
        expected = spec.conv_layers[0][1] * spec.dims[0]
        if x.shape[0] != expected:
            raise DimensionError(f"X must have {expected} rows, got {x.shape[0]}")
        return conv_forward(spec, params, x)
    if x.shape[0] != spec.dims[0]:
        raise DimensionError(
            f"X must have {spec.dims[0]} rows, got {x.shape[0]}"
        )
    if spec.kind == LINEAR_DEEP:
        h = x
        for w in params.layers:
            h = w @ h
        return h
    if spec.kind == RESIDUAL:
        h = x
        for w in params.layers:
            h = _shift(w, spec.beta) @ h
        return h
    if spec.kind == LEAKY_ONE_HIDDEN:
        v, w = params.layers
        return w @ leaky_relu(v @ x, spec.alpha)
    if spec.kind == LINEAR_BN_ONE_HIDDEN:
        v, w = params.layers
        return w @ batch_norm(v @ x)
    raise SpecError(f"forward not implemented for {spec.kind}")


def partial_product(params: Params, hi: int, lo: int, beta: float = 0.0) -> np.ndarray:
    """Ordered product of (W^i + beta*I) for i = hi down to lo (1-based).

    An empty range (hi < lo) returns the identity of width a_{lo-1}.
    """
    layers = params.layers
    L = len(layers)
    if not (1 <= lo <= L + 1) or not (0 <= hi <= L):
        raise IndexError(f"layer range {hi}:{lo} out of bounds for L={L}")
    if hi < lo:
        size = layers[lo - 1].shape[1] if lo <= L else layers[L - 1].shape[0]
        return np.eye(size)
    out = None
    for i in range(hi, lo - 1, -1):
        w = layers[i - 1]
        wb = _shift(w, beta) if beta != 0.0 else w
        out = wb if out is None else out @ wb
    return out


def layer_products(params: Params, beta: float = 0.0):
    """The partial products above and below every layer, in O(L) matmuls.

    Returns two lists indexed by ell - 1 for ell = 1..L:
    above[ell - 1] = partial_product(params, L, ell + 1, beta), k x a_ell, and
    below[ell - 1] = partial_product(params, ell - 1, 1, beta), a_{ell-1} x d.
    The above products are built in partial_product's own order, so they
    agree with it bit for bit. Each below product multiplies one shifted
    layer into the last one (a_{ell-1} x a_{ell-2} by a_{ell-2} x d), which
    reassociates partial_product's chain. Layers are shifted one at a time,
    so only the thin products are kept.
    """
    layers = params.layers
    L = len(layers)
    above = [np.eye(layers[-1].shape[0])]
    for ell in range(L - 1, 0, -1):
        shifted = partial_product(params, ell + 1, ell + 1, beta)
        above.append(shifted if ell == L - 1 else above[-1] @ shifted)
    below = [np.eye(layers[0].shape[1])]
    for ell in range(2, L + 1):
        shifted = partial_product(params, ell - 1, ell - 1, beta)
        below.append(shifted if ell == 2 else shifted @ below[-1])
    return above[::-1], below


def toeplitz_from_filter(w, d: int) -> np.ndarray:
    """Banded (d-k+1) x d matrix whose product computes a valid correlation."""
    w = np.asarray(w, dtype=np.float64).ravel()
    kf = w.size
    if kf > d:
        raise DimensionError(f"filter length {kf} exceeds signal length {d}")
    t = np.zeros((d - kf + 1, d))
    for i in range(d - kf + 1):
        t[i, i : i + kf] = w
    return t


def toeplitz_layer(fibres, d_prev: int) -> np.ndarray:
    """Block Toeplitz matrix for one conv layer.

    fibres has shape (out_channels, in_channels, kernel); the result is
    (out_channels * d_out) x (in_channels * d_prev) with row blocks indexed
    by output channel.
    """
    fib = np.asarray(fibres, dtype=np.float64)
    if fib.ndim != 3:
        raise DimensionError("fibres must be (out_channels, in_channels, kernel)")
    mo, mi, kf = fib.shape
    d_out = d_prev - kf + 1
    if d_out < 1:
        raise DimensionError(f"kernel {kf} exceeds signal length {d_prev}")
    blocks = [
        [toeplitz_from_filter(fib[a, b], d_prev) for b in range(mi)]
        for a in range(mo)
    ]
    return np.block(blocks)


def lift_conv(spec: NetworkSpec, params: Params) -> list[np.ndarray]:
    """Dense Toeplitz matrices T^(1)..T^(L) of the conv chain."""
    lengths = spec.conv_lengths()
    return [
        toeplitz_layer(params.layers[idx], lengths[idx])
        for idx in range(spec.depth)
    ]


def prune_by_magnitude(params: Params, fraction: float) -> Params:
    """Zero and mask the floor(fraction * count) smallest-|w| weights per layer.

    Ties break by first occurrence (stable order). Existing masks are kept.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError("fraction must lie in [0, 1]")
    new_layers, new_masks = [], []
    for idx, w in enumerate(params.layers):
        flat = w.ravel()
        count = int(np.floor(fraction * flat.size))
        order = np.argsort(np.abs(flat), kind="stable")
        mask = np.ones(flat.size)
        mask[order[:count]] = 0.0
        if params.masks is not None:
            mask *= params.masks[idx].ravel()
        new_layers.append((flat * mask).reshape(w.shape))
        new_masks.append(mask.reshape(w.shape))
    return Params(layers=tuple(new_layers), masks=tuple(new_masks))


def save_params(path, params: Params) -> None:
    """Textual checkpoint: `layers=L`, then per layer `rows cols` + doubles."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"layers={len(params.layers)}\n")
        for w in params.layers:
            shape = " ".join(str(s) for s in w.shape)
            fh.write(shape + "\n")
            fh.write(" ".join(repr(float(v)) for v in w.ravel()) + "\n")


def load_params(path) -> Params:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("layers="):
            raise FormatError("missing layers= header")
        count = int(header.split("=", 1)[1])
        layers = []
        for _ in range(count):
            shape = tuple(int(v) for v in fh.readline().split())
            vals = np.array([float(t) for t in fh.readline().split()])
            if vals.size != int(np.prod(shape)):
                raise FormatError("entry count does not match declared shape")
            layers.append(vals.reshape(shape))
    return Params(layers=tuple(layers))
