"""Between checkpoints `train` keeps the weights in two flat buffers that
every SGD step writes again. Each `Params` it hands out, to
`checkpoint_metrics` or as its result, owns its memory: its bytes do not
change after it is handed out, also after a divergence, and it shares no
memory with another one or with any array that a later step is given. A
dataset whose X is a strided view of a Fortran-ordered array, as `load_csv`
returns, trains byte for byte as the public-API loop does."""

import itertools

import numpy as np
import pytest

from gn_lens import Dataset, TrainConfig, init, prune_by_magnitude, train
from gn_lens import trainer

from test_train_step import SPECS, assert_train_matches_reference, dataset


def layer_bytes(params):
    return [w.tobytes() for w in params.layers]


def watched_train(monkeypatch, spec, params, ds, cfg):
    """`train`'s result and what it handed out: per distinct `Params` seen
    by `checkpoint_metrics` or returned, its bytes when handed out and the
    arrays of every `_gradient` call after that."""
    handed, steps = [], []
    metrics, gradient = trainer.checkpoint_metrics, trainer._gradient

    def metrics_spy(spec, params, *args):
        handed.append((params, layer_bytes(params), len(steps)))
        return metrics(spec, params, *args)

    def gradient_spy(*args):
        steps.append([a for a in args if isinstance(a, np.ndarray)])
        return gradient(*args)

    monkeypatch.setattr(trainer, "checkpoint_metrics", metrics_spy)
    monkeypatch.setattr(trainer, "_gradient", gradient_spy)
    trained, trace = train(spec, params, ds, cfg)
    monkeypatch.undo()
    if all(trained is not p for p, _, _ in handed):
        handed.append((trained, layer_bytes(trained), len(steps)))
    assert steps
    return trained, trace, [
        (p, saved, [a for step in steps[after:] for a in step])
        for p, saved, after in handed]


def assert_owned(handed):
    for params, saved, later in handed:
        assert layer_bytes(params) == saved
        for w in params.layers:
            assert not any(np.shares_memory(w, a) for a in later)
    for (a, _, _), (b, _, _) in itertools.combinations(handed, 2):
        assert not any(np.shares_memory(w, v)
                       for w in a.layers for v in b.layers)


def start(name, pruned):
    params = init(SPECS[name], seed=5)
    return prune_by_magnitude(params, 0.5) if pruned else params


@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_params_handed_out_owns_its_memory(monkeypatch, name, pruned):
    cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=8, seed=6,
                      trace_every=2)
    trained, trace, handed = watched_train(
        monkeypatch, SPECS[name], start(name, pruned), dataset(), cfg)
    assert not trace.diverged
    assert [c.epoch for c in trace.checkpoints] == [0, 2, 4, 5]
    assert len(handed) == 4  # the result is the last checkpoint's Params
    assert_owned(handed)


@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_weights_returned_on_divergence_own_their_memory(monkeypatch,
                                                             name, pruned):
    cfg = TrainConfig(learning_rate=5.0, epochs=300, batch_size=8, seed=1,
                      trace_every=100)
    trained, trace, handed = watched_train(
        monkeypatch, SPECS[name], start(name, pruned), dataset(n=16), cfg)
    assert trace.diverged
    assert len(handed) == 2  # epoch 0 and the last finite weights
    assert_owned(handed)
    assert all(np.isfinite(w).all() for w in trained.layers)


def strided_dataset(seed=3, n=40):
    """`dataset` with X laid out as `load_csv` returns it: all but the last
    row of the transpose of a C-ordered samples-by-columns array."""
    ds = dataset(seed, n)
    rows = np.array(np.hstack([ds.X.T, np.ones((n, 1))]), order="C")
    x = rows.T[:-1, :]
    assert not (x.flags.c_contiguous or x.flags.f_contiguous)
    strided = Dataset(X=x, Y=ds.Y)
    assert np.shares_memory(strided.X, rows)
    return strided


@pytest.mark.parametrize("batch_size", [0, 8], ids=["full", "minibatch"])
@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_strided_x_trains_as_the_public_api_loop(monkeypatch, name, pruned,
                                                   batch_size):
    cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=batch_size,
                      seed=6, trace_every=2)
    trace = assert_train_matches_reference(
        monkeypatch, SPECS[name], start(name, pruned), strided_dataset(), cfg)
    assert not trace.diverged
