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
    SpecError,
    ValidationError,
)
from .gauss_newton import gn_from_products, gn_layer_products, gn_leaky
from .linalg import (
    RankPolicy,
    Spectrum,
    pseudo_condition_number,
    sym_eigendecompose,
)
from .network import (
    LEAKY_ONE_HIDDEN,
    LINEAR_CONV,
    LINEAR_DEEP,
    RESIDUAL,
    NetworkSpec,
    Params,
    forward,
    init,
    layer_products,
    leaky_relu,
    lift_conv,
    prune_by_magnitude,
)

DIVERGENCE_LOSS = 1e12

TRAINABLE_KINDS = (LINEAR_DEEP, RESIDUAL, LEAKY_ONE_HIDDEN)
# The kinds `checkpoint_metrics` evaluates.
EVALUATED_KINDS = (*TRAINABLE_KINDS, LINEAR_CONV)


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


def mse_loss(spec: NetworkSpec, params: Params, X, Y) -> float:
    r = forward(spec, params, X) - Y
    return 0.5 * float(np.sum(r * r)) / X.shape[1]


def mse_gradient(spec: NetworkSpec, params: Params, X, Y) -> list[np.ndarray]:
    """Per-layer gradients of (1/n) sum_i 0.5 ||F(x_i) - y_i||^2.

    Masked coordinates (pruned weights) get exactly zero gradient.
    """
    if X.shape[1] == 0:
        raise DimensionError("batch must be nonempty")
    n = X.shape[1]
    if spec.kind in (LINEAR_DEEP, RESIDUAL):
        resid = forward(spec, params, X) - Y  # k x n
        grads = [(above.T @ resid @ (below @ X).T) / n
                 for above, below in zip(*layer_products(params, spec.skip))]
    elif spec.kind == LEAKY_ONE_HIDDEN:
        v, w = params.layers
        z = v @ X
        h = leaky_relu(z, spec.alpha)
        resid = w @ h - Y
        grad_w = (resid @ h.T) / n
        slope = np.where(z > 0, 1.0, spec.alpha)
        grad_v = (((w.T @ resid) * slope) @ X.T) / n
        grads = [grad_v, grad_w]
    else:
        raise SpecError(f"no analytic gradient for kind {spec.kind!r}")
    if params.masks is not None:
        grads = [g * m for g, m in zip(grads, params.masks)]
    return grads


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


def checkpoint_metrics(spec: NetworkSpec, params: Params, ds: Dataset,
                       policy: RankPolicy | None = None) -> Metrics:
    """kappa and every applicable bound via the analytic GN builders.

    A conv chain is evaluated as its Toeplitz-lifted deep linear network,
    the `gn_conv` proxy, not as the shared-weight GN.
    """
    if spec.kind not in EVALUATED_KINDS:
        raise SpecError(f"kind {spec.kind!r} has no analytic GN builder")
    sigma = empirical_covariance(ds)
    bounds = {}
    if spec.kind == LEAKY_ONE_HIDDEN:
        v, w = params.layers
        gn, gamma = gn_leaky(w, v, ds.X, spec.alpha)
        try:
            bounds["bound_other"] = bound_leaky(w, v, ds.X, spec.alpha, gamma).value
        except DegenerateDataError:
            # Valid only when the data Gram and unit-weight Gram are both
            # nondegenerate; kappa itself is still well defined.
            pass
        spectrum = gn.spectrum()
        kappa = pseudo_condition_number(spectrum, policy)
    else:
        if spec.kind == LINEAR_CONV:
            params = Params(layers=tuple(lift_conv(spec, params)))
        # The partial products of every layer, built once and shared by the
        # GN and the depth bounds.
        products = gn_layer_products(params, spec.skip)
        spectrum = gn_from_products(params, sigma, products).spectrum()
        kappa = pseudo_condition_number(spectrum, policy)
        try:
            convex, maximum = depth_bounds(sigma, products)
            bounds = dict(kappa_sigma=convex.kappa_sigma, bound_convex=convex.value,
                          bound_max=maximum.value, terms=convex.terms)
        except AssumptionError:
            # A rank-deficient partial product leaves the depth bounds
            # undefined; kappa itself is still well defined.
            pass
    if "kappa_sigma" not in bounds:
        bounds["kappa_sigma"] = pseudo_condition_number(sym_eigendecompose(sigma))
    return Metrics(kappa=kappa, spectrum=spectrum, **bounds)


def train(spec: NetworkSpec, params: Params, ds: Dataset, cfg: TrainConfig,
          policy: RankPolicy | None = None) -> tuple[Params, TrainTrace]:
    """(S)GD under MSE with kappa-and-bound checkpoints.

    Deterministic given cfg.seed (one seeded permutation per epoch,
    drop-last partial batches). Divergence truncates the trace with a flag
    instead of raising.
    """
    if ds.Y is None:
        raise DimensionError("training requires targets Y")
    if spec.kind not in TRAINABLE_KINDS:
        raise SpecError(f"kind {spec.kind!r} is not trainable")
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
        m = checkpoint_metrics(spec, params, ds, policy)
        trace.checkpoints.append(
            Checkpoint(epoch=epoch, loss=loss, kappa=m.kappa,
                       bound_convex=m.bound_convex, bound_max=m.bound_max,
                       bound_other=m.bound_other,
                       ratio=m.bound_convex / m.kappa)
        )
        return True

    if not record(0):
        return params, trace
    for epoch in range(1, cfg.epochs + 1):
        if cfg.batch_size <= 0 or cfg.batch_size >= n:
            batches = [(x_all, y_all)]
        else:
            perm = rng.permutation(n)
            batches = []
            for s in range(0, n - cfg.batch_size + 1, cfg.batch_size):
                idx = perm[s : s + cfg.batch_size]
                batches.append((x_all[:, idx], y_all[:, idx]))
        for xb, yb in batches:
            # A diverging step overflows; `Params` below reports it. A masked
            # weight stays zero, as its gradient is masked: multiplying it by
            # its mask again would not change even the sign of that zero.
            with np.errstate(over="ignore", invalid="ignore"):
                grads = mse_gradient(spec, params, xb, yb)
                layers = [w - cfg.learning_rate * g
                          for w, g in zip(params.layers, grads)]
            try:
                params = Params(layers=tuple(layers), masks=params.masks)
            except ValidationError:
                # A non-finite step (inf * 0 is NaN under a mask too).
                trace.diverged = True
                return params, trace
        if epoch % cfg.trace_every == 0 or epoch == cfg.epochs:
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
                       policy: RankPolicy | None = None,
                       init_sigma=1.0) -> list[PruneCell]:
    """Magnitude-pruning-at-init grid; per-cell divergence is recorded, not raised.

    Each cell trains with cfg under its own seed; init_sigma is the `sigma`
    of `network.init`.
    """
    if spec.kind not in TRAINABLE_KINDS:
        raise SpecError(f"kind {spec.kind!r} is not trainable")
    cells = []
    for seed in seeds:
        base = init(spec, scheme=scheme, seed=seed, sigma=init_sigma)
        for fraction in fractions:
            pruned = prune_by_magnitude(base, fraction)
            at_init = checkpoint_metrics(spec, pruned, ds, policy)
            _, trace = train(spec, pruned, ds, replace(cfg, seed=seed), policy)
            cells.append(PruneCell(fraction=float(fraction), seed=int(seed),
                                   at_init=at_init, trace=trace))
    return cells
