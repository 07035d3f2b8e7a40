"""`train` gives, bit for bit, what a loop built from the public API gives:
one `mse_gradient` and one `Params` per SGD step, with `train`'s seeded
batches and its checkpoint rule. The weights at every checkpoint, the
checkpoints themselves, the final weights, the divergence flag and the
weights returned on divergence are compared byte for byte; so is
`mse_gradient` against its formula written out from `forward` and
`layer_products`."""

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    Params,
    TrainConfig,
    checkpoint_metrics,
    forward,
    init,
    mse_gradient,
    mse_loss,
    prune_by_magnitude,
    synthesize_gaussian,
    train,
    trainer,
)
from gn_lens.errors import ValidationError
from gn_lens.network import LEAKY_ONE_HIDDEN, layer_products, leaky_relu

# Hidden widths of 32, where BLAS rounds X.T and (I @ X).T differently for
# a Fortran-ordered mini-batch X; smaller widths hide that.
SPECS = {
    "linear_deep": NetworkSpec(kind="linear_deep", dims=(5, 32, 32, 32, 3)),
    "residual_beta0": NetworkSpec(kind="residual", dims=(5, 32, 32, 3),
                                  beta=0.0),
    "residual_beta05": NetworkSpec(kind="residual", dims=(5, 32, 32, 3),
                                   beta=0.5),
    "leaky_one_hidden": NetworkSpec(kind="leaky_one_hidden", dims=(5, 32, 3),
                                    alpha=0.1),
}


def dataset(seed=3, n=40):
    raw = synthesize_gaussian(5, n, np.logspace(1, -1, 5), seed=seed)
    teacher = np.random.default_rng(seed + 1).standard_normal((3, 5))
    return Dataset(X=raw.X, Y=teacher @ raw.X)


def formula_gradient(spec, params, X, Y):
    """The per-layer MSE gradients as one expression each, masked last."""
    n = X.shape[1]
    if spec.kind == LEAKY_ONE_HIDDEN:
        v, w = params.layers
        z = v @ X
        h = leaky_relu(z, spec.alpha)
        resid = w @ h - Y
        slope = np.where(z > 0, 1.0, spec.alpha)
        grads = [(((w.T @ resid) * slope) @ X.T) / n, (resid @ h.T) / n]
    else:
        resid = forward(spec, params, X) - Y
        grads = [(above.T @ resid @ (below @ X).T) / n
                 for above, below in zip(*layer_products(params, spec.skip))]
    if params.masks is not None:
        grads = [g * m for g, m in zip(grads, params.masks)]
    return grads


def reference_train(spec, params, ds, cfg):
    """`train` from the public API: (final params, checkpoints, the layers
    at each checkpoint, diverged)."""
    rng = np.random.default_rng(cfg.seed)
    n = ds.n
    checkpoints, snapshots = [], []

    def record(epoch):
        with np.errstate(over="ignore", invalid="ignore"):
            loss = mse_loss(spec, params, ds.X, ds.Y)
        if not np.isfinite(loss) or loss > trainer.DIVERGENCE_LOSS:
            return False
        snapshots.append([w.tobytes() for w in params.layers])
        m = checkpoint_metrics(spec, params, ds)
        checkpoints.append(trainer.Checkpoint(
            epoch=epoch, loss=loss, kappa=m.kappa,
            bound_convex=m.bound_convex, bound_max=m.bound_max,
            bound_other=m.bound_other, ratio=m.bound_convex / m.kappa))
        return True

    if not record(0):
        return params, checkpoints, snapshots, True
    for epoch in range(1, cfg.epochs + 1):
        if cfg.batch_size == 0 or cfg.batch_size >= n:
            batches = [(ds.X, ds.Y)]
        else:
            perm = rng.permutation(n)
            batches = [(ds.X[:, perm[s:s + cfg.batch_size]],
                        ds.Y[:, perm[s:s + cfg.batch_size]])
                       for s in range(0, n - cfg.batch_size + 1,
                                      cfg.batch_size)]
        for xb, yb in batches:
            with np.errstate(over="ignore", invalid="ignore"):
                grads = mse_gradient(spec, params, xb, yb)
                layers = [w - cfg.learning_rate * g
                          for w, g in zip(params.layers, grads)]
            try:
                params = Params(layers=tuple(layers), masks=params.masks)
            except ValidationError:
                return params, checkpoints, snapshots, True
        if epoch % cfg.trace_every == 0 or epoch == cfg.epochs:
            if not record(epoch):
                return params, checkpoints, snapshots, True
    return params, checkpoints, snapshots, False


def checkpoint_bytes(checkpoints):
    return [(c.epoch, np.array([c.loss, c.kappa, c.bound_convex, c.bound_max,
                                c.bound_other, c.ratio]).tobytes())
            for c in checkpoints]


def assert_train_matches_reference(monkeypatch, spec, params, ds, cfg):
    seen = []
    metrics = trainer.checkpoint_metrics

    def spy(spec, params, *args):
        seen.append([w.tobytes() for w in params.layers])
        return metrics(spec, params, *args)

    monkeypatch.setattr(trainer, "checkpoint_metrics", spy)
    trained, trace = train(spec, params, ds, cfg)
    monkeypatch.undo()
    expected, checkpoints, snapshots, diverged = reference_train(
        spec, params, ds, cfg)
    assert trace.diverged == diverged
    assert seen == snapshots
    assert checkpoint_bytes(trace.checkpoints) == checkpoint_bytes(checkpoints)
    assert [w.tobytes() for w in trained.layers] == [
        w.tobytes() for w in expected.layers]
    if params.masks is None:
        assert trained.masks is None
    else:
        assert [m.tobytes() for m in trained.masks] == [
            m.tobytes() for m in params.masks]
    return trace


def with_order(params, order):
    """params with every layer and mask copied into the given memory order."""
    layers = tuple(np.array(w, order=order) for w in params.layers)
    masks = (None if params.masks is None
             else tuple(np.array(m, order=order) for m in params.masks))
    return Params(layers=layers, masks=masks)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("batch_size", [0, 8], ids=["full", "minibatch"])
@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_train_equals_the_public_api_loop(monkeypatch, name, pruned,
                                          batch_size, order):
    spec = SPECS[name]
    params = init(spec, seed=5)
    if pruned:
        params = prune_by_magnitude(params, 0.5)
        # Negative pruned weights are zeros with the sign bit set.
        assert any(np.signbit(w[m == 0]).any()
                   for w, m in zip(params.layers, params.masks))
    cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=batch_size,
                      seed=6, trace_every=2)
    trace = assert_train_matches_reference(
        monkeypatch, spec, with_order(params, order), dataset(), cfg)
    assert not trace.diverged
    assert [c.epoch for c in trace.checkpoints] == [0, 2, 4, 5]


@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_divergence_between_thinned_checkpoints(monkeypatch, name, pruned):
    spec = SPECS[name]
    params = init(spec, seed=0)
    if pruned:
        params = prune_by_magnitude(params, 0.3)
    cfg = TrainConfig(learning_rate=5.0, epochs=300, batch_size=8, seed=1,
                      trace_every=100)
    trace = assert_train_matches_reference(monkeypatch, spec, params,
                                           dataset(n=16), cfg)
    # The weights overflowed between checkpoints 0 and 100.
    assert trace.diverged
    assert [c.epoch for c in trace.checkpoints] == [0]


@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_mse_gradient_equals_its_formula(name, pruned):
    spec = SPECS[name]
    params = init(spec, seed=7)
    if pruned:
        params = prune_by_magnitude(params, 0.5)
    ds = dataset()
    # A mini-batch is a column selection, laid out in Fortran order.
    for X, Y in ((ds.X, ds.Y), (ds.X[:, [3, 1, 4, 9]], ds.Y[:, [3, 1, 4, 9]])):
        got = mse_gradient(spec, params, X, Y)
        want = formula_gradient(spec, params, X, Y)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert all(g.flags.c_contiguous for g in got)
