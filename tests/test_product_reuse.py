"""`network.layer_products` given a `Params` that `init` drew into a `Draw`
record reuses the record's below products over the leading layers that are
still the record's arrays, and builds only the rest; the products, and every
sweep row, stay byte-identical to a fresh init with no record."""

import numpy as np
import pytest

from gn_lens import checkpoint_metrics, cli, network, synthesize_gaussian
from gn_lens.errors import ValidationError
from gn_lens.network import Draw, NetworkSpec, Params, init, layer_products


def _spec(kind, L, beta=0.5, d=5, m=7, k=2):
    return NetworkSpec(kind=kind, dims=(d, *([m] * (L - 1)), k),
                       beta=beta if kind == "residual" else 0.0)


def _bytes(products):
    above, below = products
    return [(a.shape, a.tobytes()) for a in above + below]


def _without_record(params, beta):
    return layer_products(Params(layers=params.layers), beta)


def _run(tmp_path, cfg, *flags, out):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / out), *flags]) == 0
    return (tmp_path / out / "sweep.csv").read_bytes()


@pytest.mark.parametrize("kind", ["residual", "linear_deep"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_depth_sweep_rows_equal_fresh_inits(tmp_path, monkeypatch, kind, jobs):
    cfg = {"data": "synthetic", "d": "5", "n": "40", "kind": kind, "k": "2",
           "m": "7", "seeds": "0,1", "axis": "L", "values": "6,3,6,2,8"}
    if kind == "residual":
        cfg["beta"] = "0.5"
    calls = []
    original = network.partial_product

    def spy(params, hi, lo, beta=0.0):
        calls.append(params.draw is not None)
        return original(params, hi, lo, beta)

    monkeypatch.setattr(network, "partial_product", spy)
    reused = _run(tmp_path, cfg, "--jobs", jobs, out="reused")
    shifts = len(calls)

    def fresh_init(spec, *, scheme, seed, sigma, draw):
        return init(spec, scheme, seed, sigma)

    monkeypatch.setattr(cli, "init", fresh_init)
    fresh = _run(tmp_path, cfg, "--jobs", "1", out="fresh")
    assert reused == fresh
    # The sweep did reuse products: 2 seeds x sum of 2(L - 1) shifts
    # without a record.
    assert len(calls) - shifts == 2 * 2 * (5 + 2 + 5 + 1 + 7)
    assert all(calls[:shifts]) and shifts < len(calls) - shifts


def test_stale_params_and_another_beta_give_the_products_of_no_record():
    draw = Draw()
    deep = init(_spec("residual", 6), seed=3, draw=draw)
    layer_products(deep, 0.5)
    held = list(draw.below)
    assert len(held) == 5 and not any(p.flags.writeable for p in held)
    shallow = init(_spec("residual", 4), seed=3, draw=draw)
    # init kept the 3 layers the nets share, and the products over them.
    assert draw.below == held[:3]
    kept = list(draw.below)
    # `deep` is stale: it shares 3 layers with the record, which it reuses
    # at beta = 0.5, and it stores nothing.
    for params, beta in [(deep, 0.5), (deep, 0.0), (deep, 0.5)]:
        assert (_bytes(layer_products(params, beta))
                == _bytes(_without_record(params, beta)))
        assert draw.beta == 0.5
        assert all(a is b for a, b in zip(draw.below, kept, strict=True))
    # Another beta replaces the record's products; the old beta after it
    # builds them again, bit for bit.
    for beta in (0.0, 0.5, 0.5, 2.0):
        assert (_bytes(layer_products(shallow, beta))
                == _bytes(_without_record(shallow, beta)))
        assert draw.beta == beta and len(draw.below) == 3
    # A Params made outside init shares only its first layer with the
    # record, which holds 3 products.
    mixed = Params(layers=(shallow.layers[0],
                           *(2 * w for w in shallow.layers[1:])), draw=draw)
    below = list(draw.below)
    for beta in (2.0, 0.5):
        assert (_bytes(layer_products(mixed, beta))
                == _bytes(_without_record(mixed, beta)))
        assert all(a is b for a, b in zip(draw.below, below, strict=True))
    # A new seed clears the products with the layers.
    init(_spec("residual", 4), seed=4, draw=draw)
    assert draw.below == []


def test_a_cell_after_a_cell_of_its_seed_shifts_only_the_layers_past_the_prefix(
        monkeypatch):
    ds = synthesize_gaussian(d=5, n=30, covariance_spectrum=np.linspace(1, 2, 5),
                             seed=0)
    draw = Draw()
    shifted = []
    original = network.partial_product

    def spy(params, hi, lo, beta=0.0):
        assert hi == lo
        shifted.append(hi)
        return original(params, hi, lo, beta)

    monkeypatch.setattr(network, "partial_product", spy)
    below = []
    for L, seed in [(4, 1), (6, 1), (3, 1), (3, 1), (8, 1), (5, 2)]:
        del shifted[:]
        params = init(_spec("residual", L), seed=seed, draw=draw)
        checkpoint_metrics(_spec("residual", L), params, ds)
        # The above pass still shifts layers L down to 2.
        assert shifted[:L - 1] == list(range(L, 1, -1))
        below.append(shifted[L - 1:])
    # Rising depths share all but the last layer of the shorter net, so
    # each adds the below products of its new layers; falling and equal
    # depths build none; another seed builds all.
    assert below == [[1, 2, 3], [4, 5], [], [], [3, 4, 5, 6, 7],
                     [1, 2, 3, 4]]


def test_only_the_records_own_read_only_layers_skip_the_finiteness_check(
        monkeypatch):
    draw = Draw()
    params = init(_spec("linear_deep", 4), seed=0, draw=draw)
    assert params.draw is draw and "draw" not in repr(params)
    assert params == Params(layers=params.layers)
    checked = []
    original = np.isfinite

    def spy(x, *args, **kwargs):
        checked.append(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(network.np, "isfinite", spy)
    Params(layers=params.layers, draw=draw)
    assert checked == []
    own = list(params.layers)
    own[1] = own[1].copy()
    Params(layers=tuple(own), draw=draw)
    assert len(checked) == 3 and checked[0] is own[1]
    monkeypatch.setattr(network.np, "isfinite", original)
    own[1][0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        Params(layers=tuple(own), draw=draw)
    # A record's layer made writeable is checked again.
    layer = draw.layers[2]
    layer.flags.writeable = True
    layer[0, 0] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        Params(layers=params.layers, draw=draw)
