"""Architecture specs, parameter containers and their flat C-order layout,
initializers, forward passes, partial weight products (one range, or all of
them via `layer_products`), Toeplitz lifting of 1-D convolutions, and
pruning.

Layer ell (1-based, as in the product F(x) = W^L ... W^1 x) has shape
a_ell x a_{ell-1}. Convolutional layers store their weights as a 3-D fibre
array (out_channels, in_channels, kernel) instead of a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionError,
    NumericError,
    SpecError,
    ValidationError,
)
from .linalg import as_matrix, check_indexable

LINEAR_DEEP = "linear_deep"
RESIDUAL = "residual"
LEAKY_ONE_HIDDEN = "leaky_one_hidden"
LINEAR_CONV = "linear_conv"
LINEAR_BN_ONE_HIDDEN = "linear_bn_one_hidden"

# Each kind -> the network keys its config may set (a kind with dims but no L
# has one hidden layer); the kinds `trainer` trains and evaluates, and aligned
# init draws.
_DENSE = ("k", "m", "dims")
KINDS = {
    LINEAR_DEEP: (*_DENSE, "L"),
    RESIDUAL: (*_DENSE, "L", "beta"),
    LEAKY_ONE_HIDDEN: (*_DENSE, "alpha"),
    LINEAR_CONV: ("kernel", "filters"),
    LINEAR_BN_ONE_HIDDEN: _DENSE,
}
TRAINABLE_KINDS = (LINEAR_DEEP, RESIDUAL, LEAKY_ONE_HIDDEN)
EVALUATED_KINDS = (*TRAINABLE_KINDS, LINEAR_CONV)
ALIGNED_KINDS = (LINEAR_DEEP, RESIDUAL)

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
            if any(len(c) != 3 or min(c) < 1 for c in convs):
                raise SpecError("each conv layer needs three integers >= 1")
            object.__setattr__(self, "conv_layers", convs)
            channels = [convs[0][1], *(c[0] for c in convs)]
            for (_, mi, kf), prev, length in zip(convs, channels,
                                                 self.conv_lengths()):
                if mi != prev:
                    raise SpecError("conv in_channels must chain")
                if kf > length:
                    raise SpecError(f"kernel {kf} exceeds signal length {length}")
        else:
            if len(dims) < 2:
                raise SpecError("dims must list at least input and output width")
            if "L" not in KINDS[self.kind] and len(dims) != 3:
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
    def widths(self) -> tuple[int, ...]:
        """The rows of the input and of each layer's output: dims, or for
        the conv kind channels x signal length, the widths of the Toeplitz
        lifting."""
        if self.kind != LINEAR_CONV:
            return self.dims
        channels = [self.conv_layers[0][1], *(c[0] for c in self.conv_layers)]
        return tuple(c * n for c, n in zip(channels, self.conv_lengths()))

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    def layer_shapes(self) -> list[tuple[int, ...]]:
        if self.kind == LINEAR_CONV:
            return list(self.conv_layers)
        return list(zip(self.dims[1:], self.dims[:-1]))

    def check_layers(self, layers) -> None:
        """Raise DimensionError unless `layers` have `layer_shapes()`."""
        shapes, given = self.layer_shapes(), [w.shape for w in layers]
        if given != shapes:
            raise DimensionError(f"layer shapes must be {shapes}, got {given}")

    def conv_lengths(self) -> list[int]:
        """Signal length after each conv layer (index 0 = input length)."""
        if self.kind != LINEAR_CONV:
            raise SpecError("conv_lengths only defined for conv kind")
        lengths = [self.dims[0]]
        for _, _, kf in self.conv_layers:
            lengths.append(lengths[-1] - kf + 1)
        return lengths


@dataclass(frozen=True, eq=False)
class Params:
    """Per-layer weights, optionally with persistent 0/1 pruning masks.

    draw is the `Draw` record that `init` drew the layers into, if it was
    given one; `layer_products` reuses the record's products over the
    leading layers that are still its arrays, and `checkpoint_metrics`
    builds the GN into the record's storage. Those layers were checked
    finite when drawn and are not checked again; every other layer is.

    Two Params are equal when their layers, and their masks if any, have
    the same shapes and values; draw is not compared. The arrays can be
    written to, so a Params has no hash.
    """

    layers: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...] | None = None
    draw: Draw | None = field(default=None, repr=False)

    def __post_init__(self):
        layers = tuple(np.asarray(w, dtype=np.float64) for w in self.layers)
        object.__setattr__(self, "layers", layers)
        for w in layers[_drawn_prefix(layers, self.draw):]:
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

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Params):
            return NotImplemented
        return (_equal_arrays(self.layers, other.layers)
                and _equal_arrays(self.masks, other.masks))


def _equal_arrays(xs, ys) -> bool:
    """Whether two tuples of arrays match in shapes and values, or are both
    None."""
    if xs is None or ys is None:
        return xs is ys
    return len(xs) == len(ys) and all(map(np.array_equal, xs, ys))


def flatten_layers(arrays) -> np.ndarray | None:
    """The arrays' entries in C order, one after another; None for None."""
    if arrays is None:
        return None
    return np.concatenate([a.ravel() for a in arrays])


def layer_views(buf: np.ndarray, layers) -> list[np.ndarray]:
    """C-ordered views of the flat `buf`, one shaped like each layer."""
    ends = np.cumsum([w.size for w in layers])
    return [part.reshape(w.shape)
            for part, w in zip(np.split(buf, ends[:-1]), layers)]


@dataclass(frozen=True)
class TeacherSpec:
    """Teacher weights for the y = Z x setting."""

    Z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Z", as_matrix(self.Z, "Z"))


def _layer_sigma(shape: tuple[int, ...], scheme, sigma: float) -> float:
    """The init std of a (rows, cols) layer or an (out, in, kernel) fibre."""
    taps = shape[2] if len(shape) == 3 else 1
    fan_out, fan_in = shape[0] * taps, shape[1] * taps
    if scheme == "kaiming_normal":
        return (1.0 / fan_in) ** 0.5
    if scheme == "xavier_normal":
        return (2.0 / (fan_in + fan_out)) ** 0.5
    if scheme == "gaussian":
        return float(sigma)
    raise SpecError(f"unknown init scheme {scheme!r}")


@dataclass
class Draw:
    """The i.i.d. Gaussian layers the last `init` given this record drew.

    keys[i] is the (shape, scale) of layers[i], and states[i] the state of
    the seed's bit generator after drawing it. below[i] is the read-only
    product of layers[:i + 1], each shifted by beta at beta != 0, as
    `layer_products` built it for a net of these layers; every one was
    built from the record's current layers. Draw() holds no layers.

    Beside below[i], extremes[i] is the (sigma_max, sigma_min or 0) pair
    the depth bounds derived from it, None until derived. It goes with its
    product.

    gn is the storage of the last GN built through `gn_storage`, which the
    next GN of its shape overwrites; None until one is built.
    """

    seed: int | None = None
    layers: list[np.ndarray] = field(default_factory=list)
    keys: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    states: list[dict] = field(default_factory=list)
    beta: float | None = None
    below: list[np.ndarray] = field(default_factory=list)
    extremes: list[tuple[float, float] | None] = field(default_factory=list)
    gn: np.ndarray | None = field(default=None, repr=False, compare=False)

    def keep_below(self, count: int) -> None:
        """Drop the below products past the first `count`, and their pairs."""
        del self.below[count:], self.extremes[count:]

    def gn_storage(self, shape: tuple[int, int]) -> np.ndarray:
        """A GN allocator: the held storage, as the last GN left it, or new
        uninitialized storage if `shape` differs. Reusing one block saves
        faulting in pages that the heap handed back to the OS when the last
        GN was freed."""
        if self.gn is None or self.gn.shape != shape:
            self.gn = None  # freed before the new block is allocated
            self.gn = np.empty(shape)
        return self.gn


def _drawn_prefix(layers, draw: Draw | None) -> int:
    """How many leading layers are the read-only arrays of `draw`."""
    count = 0
    for w, own in zip(layers, draw.layers if draw is not None else ()):
        if w is not own or w.flags.writeable:
            break
        count += 1
    return count


def init(spec: NetworkSpec, scheme: str = "kaiming_normal", seed: int = 0,
         sigma: float = 1.0, draw: Draw | None = None) -> Params:
    """I.i.d. Gaussian init, or `init_aligned_svd` for scheme='aligned_svd'.

    sigma is only used for scheme='gaussian'. Given the `draw` record of an
    earlier init of the same seed, reuses, as the same arrays, the longest
    prefix of its layers whose (shape, scale) sequence matches this net's,
    draws the layers after it from the generator state saved after that
    prefix, and leaves this draw in the record; the record's other layers,
    another seed's included, are dropped before drawing, and so are its
    below products past the kept prefix. Drawing a normals and then b
    equals drawing a + b and splitting, so the layers are those of a fresh
    init bit for bit. They are read-only, since later draws may share them.
    The returned Params holds the record, if one was given.
    """
    if scheme == "aligned_svd":
        return init_aligned_svd(spec, seed=seed)
    record, draw = draw, Draw() if draw is None else draw
    keys = [(shape, _layer_sigma(shape, scheme, sigma))
            for shape in spec.layer_shapes()]
    kept = 0
    if draw.seed == seed:
        while (kept < min(len(keys), len(draw.keys))
               and keys[kept] == draw.keys[kept]):
            kept += 1
    draw.seed = seed
    del draw.layers[kept:], draw.keys[kept:], draw.states[kept:]
    draw.keep_below(kept)
    rng = np.random.default_rng(seed)
    if kept:
        rng.bit_generator.state = draw.states[-1]
    for shape, scale in keys[kept:]:
        check_indexable(shape, "a layer")
        with np.errstate(over="ignore"):
            layer = scale * rng.standard_normal(shape)
        if not np.isfinite(layer).all():
            raise NumericError(f"init_sigma {sigma!r} is too large: the drawn "
                               "weights contain non-finite entries")
        layer.flags.writeable = False
        draw.layers.append(layer)
        draw.keys.append((shape, scale))
        draw.states.append(rng.bit_generator.state)
    return Params(layers=tuple(draw.layers), draw=record)


def init_aligned_svd(spec: NetworkSpec, explicit=None,
                     seed: int = 0) -> Params:
    """Initializer with coinciding singular bases across layers.

    All hidden layers share one seeded orthogonal basis Q and are symmetric
    PSD, W^ell = Q diag(s) Q^T, so adding beta*I shifts every singular value
    by exactly beta and consecutive layers' singular bases align. Rectangular
    end layers use truncated columns of Q. Layer idx's singular values are
    `explicit[idx]`, or |Gaussian| draws where `explicit` is None.
    """
    if spec.kind not in ALIGNED_KINDS:
        raise SpecError("aligned init is defined for linear/residual kinds")
    if explicit is not None and len(explicit) != spec.depth:
        raise SpecError(f"explicit lists singular values for {len(explicit)} "
                        f"layers, but the net has {spec.depth}")
    d, k = spec.dims[0], spec.dims[-1]
    hidden = spec.dims[1:-1]
    if hidden and any(h != hidden[0] for h in hidden):
        raise SpecError("aligned init requires equal (square) hidden widths")
    m = hidden[0] if hidden else max(d, k)
    if d > m or k > m:
        raise SpecError("aligned init requires hidden width >= end widths")
    check_indexable((m, m), "the shared basis")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    layers = []
    for idx, (rows, cols) in enumerate(spec.layer_shapes()):
        count = min(rows, cols)
        if explicit is None:
            s = np.abs(rng.standard_normal(count))
        else:
            s = np.asarray(explicit[idx], dtype=np.float64)
            if s.size != count:
                raise SpecError(f"layer {idx + 1} needs {count} singular "
                                f"values, got {s.size}")
        if rows == m and cols == m:
            w = (q * s) @ q.T
        elif rows == m:  # m x d first layer (or lone, k > d): left basis
            w = q[:, :cols] * s
        else:  # k x m last layer (or lone, k < d): right basis from Q
            w = (np.eye(rows) * s) @ q[:, :rows].T
        layers.append(w)
    return Params(layers=tuple(layers))


def shift_layer(w: np.ndarray, beta: float) -> np.ndarray:
    """w + beta * np.eye(*w.shape), without building the identity.

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


def check_batch(spec: NetworkSpec, X) -> np.ndarray:
    """X as a finite float64 matrix with the rows the network reads."""
    x = as_matrix(X, "X")
    expected = spec.widths[0]
    if x.shape[0] != expected:
        raise DimensionError(f"X must have {expected} rows, got {x.shape[0]}")
    return x


def forward(spec: NetworkSpec, params: Params, X) -> np.ndarray:
    """Network outputs, spec.widths[-1] x n."""
    spec.check_layers(params.layers)
    x = check_batch(spec, X)
    if spec.kind == LINEAR_CONV:
        return conv_forward(spec, params, x)
    if spec.kind == LEAKY_ONE_HIDDEN:
        v, w = params.layers
        return w @ leaky_relu(v @ x, spec.alpha)
    if spec.kind == LINEAR_BN_ONE_HIDDEN:
        v, w = params.layers
        return w @ batch_norm(v @ x)
    # linear_deep or residual; a residual layer is shifted even at beta = 0.
    residual = spec.kind == RESIDUAL
    h = x
    for w in params.layers:
        h = (shift_layer(w, spec.beta) if residual else w) @ h
    return h


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
        wb = shift_layer(w, beta) if beta != 0.0 else w
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
    by one `partial_product(params, ell, ell, beta)` call each per pass.

    When params comes from `init` with a `Draw` record, the below products
    over its leading layers that are still the record's arrays are taken
    from the record at the same beta, and only the rest are built: the
    same products of the same arrays, so the same bytes. When all layers
    are the record's, the products built here are left in it, read-only,
    with no terms derived yet.
    """
    layers = params.layers
    L = len(layers)
    draw = params.draw
    shared = _drawn_prefix(layers, draw)
    held = (draw.below[:min(shared, L - 1)]
            if shared and draw.beta == beta else [])
    above, below = chain_products(
        (partial_product(params, ell, ell, beta) for ell in range(L, 1, -1)),
        (partial_product(params, ell, ell, beta)
         for ell in range(len(held) + 1, L)),
        np.eye(layers[-1].shape[0]), np.eye(layers[0].shape[1]), held)
    if shared == L == len(draw.layers):
        if draw.beta != beta:
            draw.beta = beta
            draw.keep_below(0)
        for product in below[len(draw.below) + 1:]:
            product.flags.writeable = False
            draw.below.append(product)
            draw.extremes.append(None)
    return above, below


def chain_products(upper, lower, eye_out: np.ndarray, eye_in: np.ndarray,
                   held=()):
    """`layer_products` from the layers each pass multiplies, in the order
    it takes them: upper yields layers L down to 2 and lower layers
    len(held) + 1 up to L - 1, each shifted for a residual net at
    beta != 0; held are the below products already built, of layers 1 up
    to 1, 2, ..., len(held). eye_out and eye_in are the identities of
    widths k and d: the products above layer L and below layer 1. Only the
    thin products are kept, and each layer but a pass's first (its first
    product) is dropped before the next is asked for, so layers yielded one
    at a time are freed one at a time.
    """
    above = [eye_out]
    for w in upper:
        above.append(above[-1] @ w if len(above) > 1 else w)
        # Freed before the pass builds the next layer, so that one shifted
        # layer is alive at a time and the heap reuses its block.
        del w
    below = [eye_in, *held]
    for w in lower:
        below.append(w @ below[-1] if len(below) > 1 else w)
        del w
    return above[::-1], below


def toeplitz_from_filter(w, d: int) -> np.ndarray:
    """Banded (d-k+1) x d matrix whose product computes a valid correlation."""
    w = np.asarray(w, dtype=np.float64).reshape(1, 1, -1)
    if w.size > d:
        raise DimensionError(
            f"filter length {w.size} exceeds signal length {d}")
    return toeplitz_layer(w, d)


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
    # t[a, i, b, i + s] = fib[a, b, s] for each tap s of each output i.
    t = np.zeros((mo, d_out, mi, d_prev))
    for i in range(d_out):
        t[:, i, :, i:i + kf] = fib
    return t.reshape(mo * d_out, mi * d_prev)


def lift_conv(spec: NetworkSpec, params: Params) -> list[np.ndarray]:
    """Dense Toeplitz matrices T^(1)..T^(L) of the conv chain."""
    spec.check_layers(params.layers)
    return [toeplitz_layer(fib, length)
            for fib, length in zip(params.layers, spec.conv_lengths())]


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
