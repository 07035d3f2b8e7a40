"""A sweep's cells build their GN into the storage that the run's `Draw`
record holds, and `chain_products` keeps at most one shifted layer alive.

Held storage holds the last cell's GN, so each builder must write every
entry: storage filled with NaN gives the bytes of a fresh build. A GN of
another shape replaces the storage, and a cell past the cap is refused
before it asks for any.
"""

import weakref

import numpy as np
import pytest

from gn_lens import cli, network, synthesize_gaussian, trainer
from gn_lens.data import empirical_covariance
from gn_lens.errors import SizeError
from gn_lens.gauss_newton import gn_from_products, gn_layer_products, gn_leaky
from gn_lens.linalg import DEFAULT_DIM_CAP, psd_sqrt
from gn_lens.network import Draw, NetworkSpec, chain_products, init


def _nan_storage(shape):
    return np.full(shape, np.nan)


@pytest.mark.parametrize("dims, beta", [
    # kd = 768: whole d x d blocks, summed over all layers at once.
    ((48, 96, 96, 96, 16), 0.0),
    ((48, 96, 96, 96, 16), 0.5),
    # k = 1, d = 210: each block summed in slabs of rows, a layer at a time.
    ((210, 12, 12, 12, 1), 0.0),
    ((210, 12, 12, 12, 1), 0.5),
    # k = 2, d = 190: slabs too, and the block below the diagonal mirrored.
    ((190, 12, 12, 2), 0.5),
])
def test_storage_full_of_nan_gives_the_bytes_of_a_fresh_gn(dims, beta):
    params = init(NetworkSpec(kind="residual", dims=dims, beta=beta), seed=2)
    ds = synthesize_gaussian(d=dims[0], n=2 * dims[0],
                             covariance_spectrum=np.logspace(1, -1, dims[0]))
    s_half = psd_sqrt(empirical_covariance(ds))
    products = gn_layer_products(params, beta)
    fresh = gn_from_products(params, products, s_half).matrix
    held = gn_from_products(params, products, s_half, _nan_storage).matrix
    assert held.shape == (dims[0] * dims[-1],) * 2
    assert held.tobytes() == fresh.tobytes()


def test_leaky_storage_full_of_nan_gives_the_bytes_of_a_fresh_gn():
    rng = np.random.default_rng(4)
    v, w, x = (rng.standard_normal(s) for s in ((9, 12), (3, 9), (12, 10)))
    fresh, gamma = gn_leaky(w, v, x, 0.1)
    held, held_gamma = gn_leaky(w, v, x, 0.1, _nan_storage)
    assert held.matrix.tobytes() == fresh.matrix.tobytes()
    assert held_gamma.tobytes() == gamma.tobytes()


def _sweep(tmp_path, cfg, out):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / out)]) == 0
    return (tmp_path / out / "sweep.csv").read_bytes()


@pytest.mark.parametrize("builder, cfg", [
    ("gn_from_products",
     {"kind": "residual", "beta": "0.5", "d": "5", "n": "40", "k": "2",
      "m": "7", "axis": "L", "values": "6,3,6,2,8"}),
    ("gn_leaky",
     {"kind": "leaky_one_hidden", "d": "12", "n": "10", "k": "2", "m": "9",
      "axis": "alpha", "values": "0.05,0.1,0.3"}),
])
def test_every_sweep_cell_builds_into_one_array(tmp_path, monkeypatch,
                                                builder, cfg):
    cfg = {"data": "synthetic", "seeds": "0,1", **cfg}
    original = getattr(trainer, builder)
    built = []

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        gn = result[0] if isinstance(result, tuple) else result
        built.append(gn.matrix)
        return result

    monkeypatch.setattr(trainer, builder, spy)
    held = _sweep(tmp_path, cfg, "held")
    assert len(built) == 2 * len(cfg["values"].split(","))
    assert all(np.shares_memory(g, built[0]) for g in built)

    def fresh_init(spec, *, scheme, seed, sigma, draw):
        return init(spec, scheme, seed, sigma)

    monkeypatch.setattr(cli, "init", fresh_init)
    built.clear()
    assert _sweep(tmp_path, cfg, "fresh") == held
    assert not np.shares_memory(built[0], built[1])


def test_another_shape_replaces_the_storage(monkeypatch):
    draw = Draw()
    first = draw.gn_storage((6, 6))
    assert draw.gn_storage((6, 6)) is first and draw.gn is first
    old = weakref.ref(first)
    del first
    allocated = []

    class Numpy:
        """network's numpy, checking that the old storage is gone."""

        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape):
            assert old() is None, "the old storage is still held"
            allocated.append(shape)
            return np.empty(shape)

    monkeypatch.setattr(network, "np", Numpy())
    second = draw.gn_storage((8, 8))
    assert allocated == [(8, 8)] and draw.gn is second
    assert second.shape == (8, 8)


def test_a_cell_past_the_cap_asks_for_no_storage():
    draw = Draw()
    asked = []
    draw.gn_storage = asked.append
    k, n = 73, 137  # kn = 10,001
    assert k * n == DEFAULT_DIM_CAP + 1
    spec = NetworkSpec(kind="leaky_one_hidden", dims=(1, 2, k))
    params = init(spec, seed=0, draw=draw)
    ds = synthesize_gaussian(d=1, n=n, covariance_spectrum=[1.0])
    with pytest.raises(SizeError, match="kn=10001"):
        trainer.checkpoint_metrics(spec, params, ds)
    spec = NetworkSpec(kind="linear_deep", dims=(101, 2, 100))
    params = init(spec, seed=0, draw=draw)
    ds = synthesize_gaussian(d=101, n=4, covariance_spectrum=np.ones(101))
    with pytest.raises(SizeError, match="10100x10100"):
        trainer.checkpoint_metrics(spec, params, ds)
    assert asked == []


def _layer(shape, refs):
    w = np.ones(shape)
    refs.append(weakref.ref(w))
    return w


def _pass(shapes, refs):
    """Yields a fresh layer per shape; before each one after the first, every
    layer yielded before it but the first must be freed."""
    for shape in shapes:
        assert [r() is None for r in refs[1:]] == [True] * len(refs[1:])
        yield _layer(shape, refs)


def test_chain_products_frees_each_layer_before_taking_the_next():
    # A net of widths 3, 4, 5, 6, 2: the upper pass yields layers 4, 3, 2
    # and the lower pass layers 1, 2, 3.
    upper, lower = [], []
    above, below = chain_products(
        _pass([(2, 6), (6, 5), (5, 4)], upper),
        _pass([(4, 3), (5, 4), (6, 5)], lower),
        np.eye(2), np.eye(3))
    assert [a.shape for a in above] == [(2, 4), (2, 5), (2, 6), (2, 2)]
    assert [b.shape for b in below] == [(3, 3), (4, 3), (5, 3), (6, 3)]
    # The first layer of each pass is kept, as its first product.
    for refs, kept in ((upper, above[2]), (lower, below[1])):
        assert refs[0]() is kept
        assert [r() for r in refs[1:]] == [None, None]
