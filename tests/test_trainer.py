"""Tests for gradient descent training: analytic gradients against finite
differences, exact contraction on the 1-D quadratic, determinism, mask
preservation, divergence handling, and the pruning grid."""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    TrainConfig,
    init,
    mse_gradient,
    mse_loss,
    pruning_experiment,
    prune_by_magnitude,
    train,
)
from gn_lens.data import Dataset
from gn_lens.errors import DimensionError, SpecError, ValidationError


def fd_gradient(spec, params, x, y, eps=1e-6):
    grads = []
    for idx, w in enumerate(params.layers):
        g = np.zeros_like(w)
        for pos in np.ndindex(*w.shape):
            for sign in (+1, -1):
                bumped = [layer.copy() for layer in params.layers]
                bumped[idx][pos] += sign * eps
                p = Params(layers=tuple(bumped), masks=params.masks)
                g[pos] += sign * mse_loss(spec, p, x, y)
        grads.append(g / (2 * eps))
    return grads


def make_dataset(spec, seed, n=12):
    d = spec.dims[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    k = spec.dims[-1]
    z = rng.standard_normal((k, d))
    return Dataset(X=x, Y=z @ x)


class TestMseGradient:
    @pytest.mark.parametrize("spec", [
        NetworkSpec(kind="linear_deep", dims=(4, 6, 2)),
        NetworkSpec(kind="residual", dims=(3, 3, 3), beta=0.6),
        NetworkSpec(kind="leaky_one_hidden", dims=(4, 5, 2), alpha=0.05),
    ], ids=["linear", "residual", "leaky"])
    def test_matches_finite_differences(self, spec):
        params = init(spec, seed=0)
        ds = make_dataset(spec, seed=1)
        analytic = mse_gradient(spec, params, ds.X, ds.Y)
        numeric = fd_gradient(spec, params, ds.X, ds.Y)
        for a, b in zip(analytic, numeric):
            assert np.max(np.abs(a - b)) < 1e-6

    def test_masked_coordinates_get_zero_gradient(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 4, 2))
        params = prune_by_magnitude(init(spec, seed=2), 0.5)
        ds = make_dataset(spec, seed=3)
        grads = mse_gradient(spec, params, ds.X, ds.Y)
        for g, m in zip(grads, params.masks):
            assert np.all(g[m == 0] == 0)

    def test_empty_batch_raises(self):
        spec = NetworkSpec(kind="linear_deep", dims=(2, 2))
        params = init(spec, seed=0)
        with pytest.raises(DimensionError):
            mse_gradient(spec, params, np.zeros((2, 0)), np.zeros((2, 0)))


class TestTrain:
    def test_zero_learning_rate_leaves_params_unchanged(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 5, 2))
        params = init(spec, seed=4)
        ds = make_dataset(spec, seed=5)
        cfg = TrainConfig(learning_rate=0.0, epochs=3)
        final, trace = train(spec, params, ds, cfg)
        assert all(np.array_equal(a, b)
                   for a, b in zip(final.layers, params.layers))
        losses = [c.loss for c in trace.checkpoints]
        assert losses == [losses[0]] * len(losses)

    def test_scalar_quadratic_contraction(self):
        # One scalar weight, data x with sample second moment s: GD on the
        # quadratic contracts the error by (1 - lr * s) per step exactly.
        spec = NetworkSpec(kind="linear_deep", dims=(1, 1))
        w0 = 3.0
        params = Params(layers=(np.array([[w0]]),))
        x = np.array([[1.0, -2.0, 0.5]])
        target_w = 1.25
        ds = Dataset(X=x, Y=target_w * x)
        s = float(np.mean(x**2))
        lr, epochs = 0.1, 7
        final, _ = train(spec, params, ds,
                         TrainConfig(learning_rate=lr, epochs=epochs))
        expect = target_w + (w0 - target_w) * (1 - lr * s) ** epochs
        assert abs(final.layers[0][0, 0] - expect) < 1e-12

    def test_full_batch_loss_monotone_at_small_lr(self):
        spec = NetworkSpec(kind="linear_deep", dims=(4, 6, 2))
        params = init(spec, seed=6)
        ds = make_dataset(spec, seed=7, n=20)
        _, trace = train(spec, params, ds,
                         TrainConfig(learning_rate=0.05, epochs=20))
        losses = [c.loss for c in trace.checkpoints]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic_sgd(self):
        spec = NetworkSpec(kind="leaky_one_hidden", dims=(4, 6, 2), alpha=0.1)
        params = init(spec, seed=8)
        ds = make_dataset(spec, seed=9, n=16)
        cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=4, seed=3)
        a, _ = train(spec, params, ds, cfg)
        b, _ = train(spec, params, ds, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    def test_masks_preserved_through_training(self):
        spec = NetworkSpec(kind="linear_deep", dims=(4, 6, 2))
        pruned = prune_by_magnitude(init(spec, seed=10), 0.4)
        ds = make_dataset(spec, seed=11)
        final, _ = train(spec, pruned, ds,
                         TrainConfig(learning_rate=0.05, epochs=10))
        for w, m in zip(final.layers, pruned.masks):
            assert np.all(w[m == 0] == 0)

    def test_divergence_flagged_not_raised(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 5, 2))
        params = init(spec, seed=12)
        ds = make_dataset(spec, seed=13)
        _, trace = train(spec, params, ds,
                         TrainConfig(learning_rate=1e4, epochs=50))
        assert trace.diverged

    def test_gradual_overflow_between_checkpoints_is_flagged(self):
        # Weights blow up between thinned checkpoints; the overflow must be
        # reported via the divergence flag, not an exception.
        spec = NetworkSpec(kind="linear_deep", dims=(3, 5, 2))
        params = init(spec, seed=20)
        ds = make_dataset(spec, seed=21)
        _, trace = train(spec, params, ds,
                         TrainConfig(learning_rate=5.0, epochs=500,
                                     trace_every=100))
        assert trace.diverged

    def test_checkpoint_bound_dominates_kappa(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 8, 2))
        params = init(spec, seed=14)
        ds = make_dataset(spec, seed=15, n=30)
        _, trace = train(spec, params, ds,
                         TrainConfig(learning_rate=0.05, epochs=10))
        for c in trace.checkpoints:
            assert c.bound_convex >= c.kappa * (1 - 1e-10)
            assert c.ratio >= 1 - 1e-10

    def test_trace_every_thins_checkpoints(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 4, 2))
        params = init(spec, seed=16)
        ds = make_dataset(spec, seed=17)
        _, trace = train(spec, params, ds,
                         TrainConfig(learning_rate=0.01, epochs=10,
                                     trace_every=4))
        assert [c.epoch for c in trace.checkpoints] == [0, 4, 8, 10]

    def test_requires_targets(self):
        spec = NetworkSpec(kind="linear_deep", dims=(2, 2))
        with pytest.raises(DimensionError):
            train(spec, init(spec, seed=0), Dataset(X=np.eye(2)),
                  TrainConfig(learning_rate=0.1, epochs=1))

    def test_untrainable_kind(self):
        spec = NetworkSpec(kind="linear_conv", dims=(4,),
                           conv_layers=((1, 1, 2),))
        params = init(spec, seed=0)
        ds = Dataset(X=np.eye(4), Y=np.eye(3, 4))
        with pytest.raises(SpecError):
            train(spec, params, ds, TrainConfig(learning_rate=0.1, epochs=1))

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1, epochs=1)


class TestPruningExperiment:
    def test_fraction_zero_matches_plain_training_bitwise(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 6, 2))
        ds = make_dataset(spec, seed=18, n=15)
        cfg = TrainConfig(learning_rate=0.05, epochs=5, seed=21)
        cells = pruning_experiment(spec, ds, fractions=[0.0], seeds=[21],
                                   cfg=cfg)
        plain_params = init(spec, scheme="kaiming_normal", seed=21)
        _, plain_trace = train(spec, plain_params, ds, cfg)
        cell = cells[0]
        got = [c.kappa for c in cell.trace.checkpoints]
        expect = [c.kappa for c in plain_trace.checkpoints]
        assert got == expect
        got_loss = [c.loss for c in cell.trace.checkpoints]
        expect_loss = [c.loss for c in plain_trace.checkpoints]
        assert got_loss == expect_loss

    def test_grid_shape_and_fields(self):
        spec = NetworkSpec(kind="linear_deep", dims=(3, 6, 2))
        ds = make_dataset(spec, seed=19, n=15)
        cfg = TrainConfig(learning_rate=0.05, epochs=2)
        cells = pruning_experiment(spec, ds, fractions=[0.0, 0.5],
                                   seeds=[0, 1], cfg=cfg)
        assert len(cells) == 4
        assert {(c.fraction, c.seed) for c in cells} == {
            (0.0, 0), (0.5, 0), (0.0, 1), (0.5, 1)}
        for c in cells:
            if not c.diverged:
                assert np.isfinite(c.kappa_init) and np.isfinite(c.kappa_end)
