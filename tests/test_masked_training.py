"""Training a pruned network keeps every masked weight at zero without
re-applying the masks: its gradient is masked, so each SGD step gives the
same bytes as a loop that multiplies the weights by their masks after every
step."""

import numpy as np
import pytest

from gn_lens import (
    Dataset,
    NetworkSpec,
    Params,
    TrainConfig,
    init,
    prune_by_magnitude,
    synthesize_gaussian,
    train,
)
from gn_lens.trainer import mse_gradient

SPECS = {
    "linear_deep": NetworkSpec(kind="linear_deep", dims=(5, 7, 6, 3)),
    "residual": NetworkSpec(kind="residual", dims=(5, 6, 6, 3), beta=0.5),
    "leaky_one_hidden": NetworkSpec(kind="leaky_one_hidden", dims=(5, 8, 3),
                                    alpha=0.1),
}


def remasked_sgd(spec, params, ds, cfg):
    """The training loop of `train` that re-applies the masks after each
    step, without its checkpoints."""
    rng = np.random.default_rng(cfg.seed)
    n = ds.n
    for _ in range(cfg.epochs):
        if cfg.batch_size <= 0 or cfg.batch_size >= n:
            batches = [(ds.X, ds.Y)]
        else:
            perm = rng.permutation(n)
            batches = [(ds.X[:, perm[s:s + cfg.batch_size]],
                        ds.Y[:, perm[s:s + cfg.batch_size]])
                       for s in range(0, n - cfg.batch_size + 1,
                                      cfg.batch_size)]
        for xb, yb in batches:
            grads = mse_gradient(spec, params, xb, yb)
            layers = [(w - cfg.learning_rate * g) * m
                      for w, g, m in zip(params.layers, grads, params.masks)]
            params = Params(layers=tuple(layers), masks=params.masks)
    return params


@pytest.mark.parametrize("batch_size", [0, 8], ids=["full", "minibatch"])
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_pruned_training_equals_the_remasked_loop(kind, batch_size):
    spec = SPECS[kind]
    raw = synthesize_gaussian(5, 40, np.logspace(1, -1, 5), seed=3)
    teacher = np.random.default_rng(4).standard_normal((3, 5))
    ds = Dataset(X=raw.X, Y=teacher @ raw.X)
    pruned = prune_by_magnitude(init(spec, seed=5), 0.5)
    # Negative pruned weights are zeros with the sign bit set.
    assert any(np.signbit(w[m == 0]).any()
               for w, m in zip(pruned.layers, pruned.masks))
    cfg = TrainConfig(learning_rate=0.02, epochs=4, batch_size=batch_size,
                      seed=6, trace_every=2)
    trained, trace = train(spec, pruned, ds, cfg)
    expected = remasked_sgd(spec, pruned, ds, cfg)
    assert not trace.diverged
    assert [c.epoch for c in trace.checkpoints] == [0, 2, 4]
    for w, want, m in zip(trained.layers, expected.layers, pruned.masks):
        assert w.tobytes() == want.tobytes()
        assert np.all(w[m == 0] == 0)
