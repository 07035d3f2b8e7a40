"""Full-batch GD / mini-batch SGD with analytic gradients under MSE, plus
condition-number tracing and the desk-scale pruning experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import LayerTerm, bound_leaky, depth_bounds
from .data import Dataset, empirical_covariance
from .errors import (
    AssumptionError,
    DegenerateDataError,
    DimensionError,
    GnLensError,
    SpecError,
    ValidationError,
)
from .gauss_newton import gn_from_products, gn_layer_products, gn_leaky
from .linalg import (
    RankPolicy,
    Spectrum,
    psd_sqrt,
    pseudo_condition_number,
    svdvals,
    sym_eigendecompose,
)
from .network import (
    EVALUATED_KINDS,
    LEAKY_ONE_HIDDEN,
    LINEAR_CONV,
    RESIDUAL,
    TRAINABLE_KINDS,
    NetworkSpec,
    Params,
    chain_products,
    check_batch,
    flatten_layers,
    forward,
    init,
    layer_views,
    leaky_relu,
    lift_conv,
    prune_by_magnitude,
    shift_layer,
)

DIVERGENCE_LOSS = 1e12


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 0  # 0 = full batch
    seed: int = 0
    trace_every: int = 1

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.batch_size < 0:
            raise ValidationError("batch_size must be >= 0")
        if self.trace_every < 1:
            raise ValidationError("trace_every must be >= 1")


@dataclass(frozen=True)
class Checkpoint:
    epoch: int
    loss: float
    kappa: float
    bound_convex: float
    bound_max: float
    bound_other: float
    ratio: float  # bound_convex / kappa


@dataclass
class TrainTrace:
    checkpoints: list[Checkpoint] = field(default_factory=list)
    diverged: bool = False
    # Checkpoint 0's metrics; None when the initial loss diverged.
    at_init: Metrics | None = field(default=None, repr=False, compare=False)


def mse_loss(spec: NetworkSpec, params: Params, X, Y) -> float:
    r = forward(spec, params, X) - Y
    return 0.5 * float(np.sum(r * r)) / X.shape[1]


def mse_gradient(spec: NetworkSpec, params: Params, X, Y) -> list[np.ndarray]:
    """Per-layer gradients of (1/n) sum_i 0.5 ||F(x_i) - y_i||^2.

    Masked coordinates (pruned weights) get exactly zero gradient. The
    gradients are C-ordered views of one flat buffer.
    """
    if X.shape[1] == 0:
        raise DimensionError("batch must be nonempty")
    if spec.kind not in TRAINABLE_KINDS:
        raise SpecError(f"no analytic gradient for kind {spec.kind!r}")
    spec.check_layers(params.layers)
    x = check_batch(spec, X)
    _check_targets(spec, Y, x.shape[1])
    layers = params.layers
    grad = np.empty(sum(w.size for w in layers))
    grads = layer_views(grad, layers)
    _gradient(spec, layers, flatten_layers(params.masks), x, Y,
              _identities(layers), grad, grads)
    return grads


def _check_targets(spec: NetworkSpec, Y, n: int) -> None:
    """Y must hold one row per network output and one column per sample."""
    expected = (spec.dims[-1], n)
    if np.shape(Y) != expected:
        raise DimensionError(f"Y must be {expected[0]} x {expected[1]} "
                             f"(outputs x samples), got shape {np.shape(Y)}")


def _check_training(spec: NetworkSpec, ds: Dataset) -> None:
    """A trainable kind and targets with one row per network output."""
    if spec.kind not in TRAINABLE_KINDS:
        raise SpecError(f"kind {spec.kind!r} is not trainable")
    if ds.Y is None:
        raise DimensionError("training requires targets Y")
    _check_targets(spec, ds.Y, ds.n)


def _identities(layers) -> tuple[np.ndarray, np.ndarray]:
    """The identities of the output and input widths (`chain_products`)."""
    return np.eye(layers[-1].shape[0]), np.eye(layers[0].shape[1])


def _gradient(spec: NetworkSpec, layers, mask, X, Y, eyes, grad,
              grads) -> None:
    """`mse_gradient` of a checked batch into the flat buffer `grad`, whose
    per-layer views are `grads`; `mask` is the masks as one flat array.

    A residual layer is shifted once: the forward pass multiplies the
    shifted layers even at beta = 0, which turns -0.0 into +0.0, and the
    partial products multiply them only at beta != 0, as `forward` and
    `layer_products` do.
    """
    if spec.kind == LEAKY_ONE_HIDDEN:
        v, w = layers
        z = v @ X
        h = leaky_relu(z, spec.alpha)
        resid = w @ h - Y
        np.matmul(resid, h.T, out=grads[1])
        slope = np.where(z > 0, 1.0, spec.alpha)
        np.matmul((w.T @ resid) * slope, X.T, out=grads[0])
    else:
        shifted = ([shift_layer(w, spec.beta) for w in layers]
                   if spec.kind == RESIDUAL else layers)
        h = first = shifted[0] @ X
        for w in shifted[1:]:
            h = w @ h
        resid = h - Y  # k x n, C-ordered
        chain = shifted if spec.skip != 0.0 else layers
        above, below = chain_products(reversed(chain[1:]), chain[:-1], *eyes)
        # Above the top layer is I_k, and I_k.T @ resid is resid exactly.
        # The I_d @ X below the bottom layer stays: for a Fortran-ordered
        # batch, X.T and (I_d @ X).T take different GEMM paths. Below layer 2
        # is layer 1 itself: where the forward pass multiplied that same
        # array (all but a residual net at beta = 0), its product is reused.
        lefts = [a.T @ resid for a in above[:-1]] + [resid]
        for i, (g, left, b) in enumerate(zip(grads, lefts, below)):
            bx = first if i == 1 and b is shifted[0] else b @ X
            np.matmul(left, bx.T, out=g)
    grad /= X.shape[1]
    if mask is not None:
        grad *= mask


@dataclass(frozen=True)
class Metrics:
    """kappa of one instance's GN and the bounds that apply to its kind.

    A bound that does not apply, or whose assumptions fail, is NaN:
    the depth bounds (convex, max) cover linear, residual and (lifted)
    conv networks, bound_other holds the Leaky-ReLU bound.
    """

    kappa: float
    spectrum: Spectrum
    kappa_sigma: float
    bound_convex: float = math.nan
    bound_max: float = math.nan
    bound_other: float = math.nan
    terms: tuple[LayerTerm, ...] = ()  # per-layer terms of the convex bound


@dataclass(frozen=True)
class DataTerms:
    """kappa(Sigma), and Sigma^(1/2) or for `leaky_one_hidden` the singular
    values of X: all that evaluations read of the data, shared read-only."""

    kappa_sigma: float
    sigma_half: np.ndarray | None = None
    x_singular: np.ndarray | None = None


def data_terms(ds: Dataset, kind: str) -> DataTerms:
    """Bit for bit what one evaluation computes: Sigma^(1/2) from an `eigh`
    and kappa(Sigma) from an `eigvalsh`, whose eigenvalues differ in the
    last bits."""
    sigma = empirical_covariance(ds)
    extra = ({"x_singular": svdvals(ds.X)} if kind == LEAKY_ONE_HIDDEN
             else {"sigma_half": psd_sqrt(sigma)})
    for a in extra.values():
        a.flags.writeable = False
    return DataTerms(pseudo_condition_number(sym_eigendecompose(sigma)),
                     **extra)


def checkpoint_metrics(spec: NetworkSpec, params: Params, ds: Dataset,
                       policy: RankPolicy | None = None,
                       terms: DataTerms | None = None) -> Metrics:
    """kappa and every applicable bound via the analytic GN builders.

    `terms`: `data_terms(ds, spec.kind)`, built after the size check if absent.
    A conv chain is evaluated as its Toeplitz-lifted deep linear network,
    the `gn_conv` proxy, not as the shared-weight GN.
    """
    if spec.kind not in EVALUATED_KINDS:
        raise SpecError(f"kind {spec.kind!r} has no analytic GN builder")
    spec.check_layers(params.layers)
    # A sweep's cells build their GN into the storage their draw record holds.
    alloc = np.empty if params.draw is None else params.draw.gn_storage
    if spec.kind == LEAKY_ONE_HIDDEN:
        v, w = params.layers
        gn, gamma = gn_leaky(w, v, ds.X, spec.alpha, alloc)
        terms = terms or data_terms(ds, spec.kind)

        def bounds():
            return {"bound_other": bound_leaky(w, ds.X, spec.alpha, gamma,
                                               terms.x_singular).value}
    else:
        if spec.kind == LINEAR_CONV:
            params = Params(layers=tuple(lift_conv(spec, params)))
        # The partial products of every layer, built once and shared by the
        # GN and the depth bounds.
        products = gn_layer_products(params, spec.skip)
        terms = terms or data_terms(ds, spec.kind)
        gn = gn_from_products(params, products, terms.sigma_half, alloc)

        def bounds():
            convex, maximum = depth_bounds(products, terms.kappa_sigma,
                                           params.draw)
            return dict(bound_convex=convex.value, bound_max=maximum.value,
                        terms=convex.terms)
    spectrum = gn.spectrum()
    kappa = pseudo_condition_number(spectrum, policy)
    try:
        applied = bounds()
    except (AssumptionError, DegenerateDataError):
        # A rank-deficient partial product (depth bounds) or a singular Gram
        # (Leaky-ReLU bound) leaves the bound blank; kappa is still defined.
        applied = {}
    return Metrics(kappa=kappa, spectrum=spectrum,
                   kappa_sigma=terms.kappa_sigma, **applied)


def train(spec: NetworkSpec, params: Params, ds: Dataset, cfg: TrainConfig,
          policy: RankPolicy | None = None,
          terms: DataTerms | None = None) -> tuple[Params, TrainTrace]:
    """(S)GD under MSE with kappa-and-bound checkpoints.

    Deterministic given cfg.seed (one seeded permutation per epoch,
    drop-last partial batches). Divergence truncates the trace with a flag
    instead of raising. Every checkpoint reads one `terms`, built if absent.
    """
    _check_training(spec, ds)
    terms = terms or data_terms(ds, spec.kind)
    rng = np.random.default_rng(cfg.seed)
    x_all, y_all = ds.X, ds.Y
    n = ds.n
    trace = TrainTrace()

    def record(epoch: int) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            loss = mse_loss(spec, params, x_all, y_all)
        if not np.isfinite(loss) or loss > DIVERGENCE_LOSS:
            trace.diverged = True
            return False
        m = checkpoint_metrics(spec, params, ds, policy, terms)
        if epoch == 0:
            trace.at_init = m
        trace.checkpoints.append(
            Checkpoint(epoch=epoch, loss=loss, kappa=m.kappa,
                       bound_convex=m.bound_convex, bound_max=m.bound_max,
                       bound_other=m.bound_other,
                       ratio=m.bound_convex / m.kappa)
        )
        return True

    if not record(0):
        return params, trace
    # Between checkpoints the weights are one flat buffer, `theta`. Each step
    # writes its gradient into the spare buffer and turns it into the new
    # weights there; then the two swap. The first step reads the caller's
    # layers in their own memory order, which GEMM rounds by.
    layers, masks = params.layers, params.masks
    theta = flatten_layers(layers)
    grad = np.empty_like(theta)
    theta_layers, grads = layer_views(theta, layers), layer_views(grad, layers)
    mask, eyes = flatten_layers(masks), _identities(layers)

    def snapshot() -> Params:
        # A copy: the buffers are written again by later steps.
        return Params(layers=tuple(w.copy() for w in theta_layers), masks=masks)

    for epoch in range(1, cfg.epochs + 1):
        if cfg.batch_size == 0 or cfg.batch_size >= n:
            batches = [(x_all, y_all)]
        else:
            # One gather per epoch; each batch is a column slice of it, laid
            # out as x_all[:, idx] would be.
            perm = rng.permutation(n)
            xp, yp = x_all[:, perm], y_all[:, perm]
            batches = [(xp[:, s : s + cfg.batch_size],
                        yp[:, s : s + cfg.batch_size])
                       for s in range(0, n - cfg.batch_size + 1,
                                      cfg.batch_size)]
        # A diverging step overflows; its non-finite weights end the run. A
        # masked weight stays zero, as its gradient is masked: multiplying
        # it by its mask again would not change even the sign of that zero.
        with np.errstate(over="ignore", invalid="ignore"):
            for xb, yb in batches:
                _gradient(spec, layers, mask, xb, yb, eyes, grad, grads)
                grad *= cfg.learning_rate
                np.subtract(theta, grad, out=grad)  # the new weights
                if not np.isfinite(grad).all():
                    # inf * 0 is NaN under a mask too.
                    trace.diverged = True
                    return snapshot(), trace
                theta, grad = grad, theta
                theta_layers, grads = grads, theta_layers
                layers = theta_layers
        if epoch % cfg.trace_every == 0 or epoch == cfg.epochs:
            params = snapshot()
            if not record(epoch):
                return params, trace
    return params, trace


@dataclass(frozen=True)
class PruneCell:
    fraction: float
    seed: int
    at_init: Metrics  # the pruned network before training
    trace: TrainTrace

    @property
    def kappa_init(self) -> float:
        return self.at_init.kappa

    @property
    def diverged(self) -> bool:
        return self.trace.diverged

    @property
    def kappa_end(self) -> float:
        """The last checkpoint's kappa; NaN if training diverged."""
        if self.trace.diverged or not self.trace.checkpoints:
            return math.nan
        return self.trace.checkpoints[-1].kappa


def pruning_experiment(spec: NetworkSpec, ds: Dataset, fractions, seeds,
                       cfg: TrainConfig, scheme: str = "kaiming_normal",
                       policy: RankPolicy | None = None, init_sigma=1.0,
                       terms: DataTerms | None = None,
                       ) -> list[PruneCell | GnLensError]:
    """Magnitude-pruning-at-init grid, seed-major; per-cell divergence is
    recorded, and a cell whose evaluation fails (kappa is undefined at a
    fraction of 1) is the error that failed it, not raised.

    Each cell trains with cfg under its own seed, and `at_init` is its
    checkpoint 0; init_sigma is the `sigma` of `network.init`; `terms` as
    in `train`, built once for every cell.
    """
    _check_training(spec, ds)
    terms = terms or data_terms(ds, spec.kind)
    cells = []
    for seed in seeds:
        base = init(spec, scheme=scheme, seed=seed, sigma=init_sigma)
        for fraction in fractions:
            pruned = prune_by_magnitude(base, fraction)
            try:
                _, trace = train(spec, pruned, ds, replace(cfg, seed=seed),
                                 policy, terms)
                # Checkpoint 0 evaluated the pruned net, unless its loss
                # diverged; the same call raises the same error either way.
                at_init = trace.at_init or checkpoint_metrics(
                    spec, pruned, ds, policy, terms)
                cells.append(PruneCell(fraction=float(fraction),
                                       seed=int(seed), at_init=at_init,
                                       trace=trace))
            except GnLensError as exc:
                cells.append(exc)
    return cells
