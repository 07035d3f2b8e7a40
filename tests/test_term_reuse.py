"""A `Draw` record keeps, beside each below product it holds, the
(sigma_max, sigma_min or 0) pair the depth bounds derived from it. A
depth-sweep cell derives pairs only for the products that are new to its
seed, and builds one GN right factor per layer; every row and every
evaluation stays byte-identical to a fresh init with no record."""

import numpy as np
import pytest

from gn_lens import bounds, checkpoint_metrics, cli, synthesize_gaussian
from gn_lens.network import Draw, NetworkSpec, Params, init, layer_products
from gn_lens.trainer import DataTerms, data_terms


def _spec(kind="residual", L=4, beta=0.5, d=5, m=7, k=2, dims=None):
    return NetworkSpec(kind=kind, dims=dims or (d, *([m] * (L - 1)), k),
                       beta=beta if kind == "residual" else 0.0)


def _dataset(d=5):
    return synthesize_gaussian(d=d, n=30,
                               covariance_spectrum=np.linspace(1, 2, d), seed=0)


class CountedHalf(np.ndarray):
    """A Sigma^(1/2) that counts the right factors built from it: each is
    s_half @ (b^T b) @ s_half, with s_half on the left once."""

    built = 0

    def __matmul__(self, other):
        CountedHalf.built += 1
        return np.asarray(self) @ other


def _counted(terms):
    half = np.array(terms.sigma_half).view(CountedHalf)
    half.flags.writeable = False
    return DataTerms(terms.kappa_sigma, sigma_half=half)


@pytest.fixture
def spy_svdvals(monkeypatch):
    """The number of matrices each `bounds.svdvals` call receives."""
    seen = []
    original = bounds.svdvals

    def spy(m):
        seen.append(1 if m.ndim == 2 else m.shape[0])
        return original(m)

    monkeypatch.setattr(bounds, "svdvals", spy)
    return seen


def _fingerprint(metrics):
    return (metrics.kappa, metrics.spectrum.values.tobytes(),
            metrics.bound_convex, metrics.bound_max, metrics.terms)


def _fresh(spec, params, ds, terms):
    return _fingerprint(checkpoint_metrics(
        spec, Params(layers=params.layers), ds, None, terms))


def _run(tmp_path, cfg, *flags, out):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / out), *flags]) == 0
    return (tmp_path / out / "sweep.csv").read_bytes()


SWEEPS = {
    "residual": {"kind": "residual", "beta": "0.5", "m": "7"},
    "linear_deep": {"kind": "linear_deep", "m": "7"},
    # m = 3 < d = 5: every held product is rank-deficient.
    "residual_bottleneck": {"kind": "residual", "beta": "0.5", "m": "3"},
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_depth_sweep_rows_equal_fresh_inits(tmp_path, monkeypatch,
                                            spy_svdvals, name, jobs):
    cfg = {"data": "synthetic", "d": "5", "n": "40", "k": "2",
           "seeds": "0,1", "axis": "L", "values": "6,3,6,2,8", **SWEEPS[name]}
    reused = _run(tmp_path, cfg, "--jobs", jobs, out="reused")
    held = sum(spy_svdvals)
    del spy_svdvals[:]

    def fresh_init(spec, *, scheme, seed, sigma, draw):
        return init(spec, scheme, seed, sigma)

    monkeypatch.setattr(cli, "init", fresh_init)
    fresh = _run(tmp_path, cfg, "--jobs", "1", out="fresh")
    assert reused == fresh
    # Without a record each cell takes the singular values of its L above
    # and L below products: 2 seeds x 2 x (6 + 3 + 6 + 2 + 8).
    assert sum(spy_svdvals) == 100
    if jobs == "1":
        # Per seed, the cells after the first derive pairs only for their
        # new below products: 12 + 4 + 10 + 3 + 15.
        assert held == 2 * 44
    else:
        assert held <= 100


def test_a_cell_derives_terms_only_for_its_new_products(spy_svdvals):
    ds = _dataset()
    terms = _counted(data_terms(ds, "residual"))
    draw = Draw()
    counts = []
    for L, seed in [(4, 1), (6, 1), (3, 1), (3, 1), (8, 1), (5, 2)]:
        spec = _spec(L=L)
        params = init(spec, seed=seed, draw=draw)
        del spy_svdvals[:]
        CountedHalf.built = 0
        got = _fingerprint(checkpoint_metrics(spec, params, ds, None, terms))
        counts.append((sum(spy_svdvals), CountedHalf.built))
        assert got == _fresh(spec, params, ds, terms)
        assert len(draw.extremes) == len(draw.below) == L - 1
        assert None not in draw.extremes
    # Each cell takes L + 1 singular-value sets (its above products and the
    # identity below layer 1) plus one per new below product: rising depths
    # add their new layers, falling and equal depths none, a new seed all.
    # It builds one right factor per layer.
    assert counts == [(4 + 1 + 3, 4), (6 + 1 + 2, 6), (3 + 1, 3),
                      (3 + 1, 3), (8 + 1 + 5, 8), (5 + 1 + 4, 5)]


def test_records_that_do_not_match_recompute(spy_svdvals):
    ds = _dataset()
    terms = _counted(data_terms(ds, "residual"))
    draw = Draw()

    def evaluate(spec, params, terms=terms):
        del spy_svdvals[:]
        CountedHalf.built = 0
        got = _fingerprint(checkpoint_metrics(spec, params, ds, None, terms))
        counts = sum(spy_svdvals), CountedHalf.built
        assert got == _fresh(spec, params, ds, terms)
        return counts

    deep = init(_spec(L=6), seed=3, draw=draw)
    assert evaluate(_spec(L=6), deep) == (12, 6)
    shallow = init(_spec(L=4), seed=3, draw=draw)
    kept = list(draw.extremes)
    assert len(kept) == 3
    # `deep` is stale: the record holds its 3 leading products and their
    # pairs; its other 2 are rebuilt, derived again and not stored.
    assert evaluate(_spec(L=6), deep) == (6 + 1 + 2, 6)
    assert evaluate(_spec(L=6), deep) == (6 + 1 + 2, 6)
    assert list(draw.extremes) == kept
    # A Params made outside init sharing only the record's first layer.
    mixed = Params(layers=(shallow.layers[0],
                           *(2 * w for w in shallow.layers[1:])), draw=draw)
    assert evaluate(_spec(L=4), mixed) == (4 + 1 + 2, 4)
    assert list(draw.extremes) == kept
    # Another beta replaces the products and their pairs; the old beta
    # after it derives them all again.
    assert evaluate(_spec(L=4, beta=2.0), shallow) == (4 + 1 + 3, 4)
    assert draw.beta == 2.0
    assert evaluate(_spec(L=4, beta=2.0), shallow) == (5, 4)
    assert evaluate(_spec(L=4, beta=0.5), shallow) == (8, 4)
    assert draw.beta == 0.5
    # A second Sigma^(1/2) array with equal values reuses the singular
    # values, which do not read it.
    twin = _counted(terms)
    assert np.array_equal(twin.sigma_half, terms.sigma_half)
    assert evaluate(_spec(L=4), shallow, twin) == (5, 4)
    assert evaluate(_spec(L=4), shallow) == (5, 4)
    assert evaluate(_spec(L=4), shallow) == (5, 4)
    # So does a writeable one.
    loose = DataTerms(terms.kappa_sigma,
                      sigma_half=np.array(terms.sigma_half).view(CountedHalf))
    assert evaluate(_spec(L=4), shallow, loose) == (5, 4)
    assert evaluate(_spec(L=4), shallow, loose) == (5, 4)
    # A new seed drops the pairs with the products.
    init(_spec(L=4), seed=4, draw=draw)
    assert draw.below == draw.extremes == []


def test_layer_products_alone_leaves_no_terms():
    draw = Draw()
    params = init(_spec(L=5), seed=0, draw=draw)
    layer_products(params, 0.5)
    assert len(draw.below) == 4
    assert draw.extremes == [None] * 4


@pytest.mark.parametrize("dims", [(10, 6, 6, 6, 3), (6, 8, 4, 8, 3),
                                  (30, 12, 12, 1)])
def test_held_pairs_and_their_reuse_on_bottlenecked_nets(dims):
    d = dims[0]
    ds = _dataset(d)
    terms = data_terms(ds, "residual")
    draw = Draw()
    spec = _spec(dims=dims)
    params = init(spec, seed=0, draw=draw)
    first = _fingerprint(checkpoint_metrics(spec, params, ds, None, terms))
    rows = [p.shape[0] for p in draw.below]
    for (smax, smin), r in zip(draw.extremes, rows):
        assert smax > 0
        # A product with fewer rows than d has a singular d x d Gram.
        if r < d:
            assert smin == 0.0
    again = _fingerprint(checkpoint_metrics(spec, params, ds, None, terms))
    assert again == first == _fresh(spec, params, ds, terms)
