"""`network.init` given the draw record of an earlier init of the seed
reuses the longest prefix of layers whose (shape, scale) sequence matches
and draws only the rest, bit for bit as a fresh init; a sweep therefore
draws each seed's shared layers once, and each worker keeps one draw."""

import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gn_lens import cli
from gn_lens.network import Draw, NetworkSpec, init


def _dense(kind, m, L):
    if kind == "leaky_one_hidden":
        return NetworkSpec(kind=kind, dims=(3, m, 2))
    return NetworkSpec(kind=kind, dims=(3, *([m] * (L - 1)), 2),
                       beta=0.5 if kind == "residual" else 0.0)


def _conv(filters, kernel, L):
    layers = ((filters, 1, kernel),) + ((filters, filters, kernel),) * (L - 1)
    return NetworkSpec(kind="linear_conv", dims=(12,), conv_layers=layers)


# A net of any depth: _dense or _conv with all but L fixed.
nets = st.one_of(
    st.builds(partial, st.just(_dense),
              st.sampled_from(["linear_deep", "residual", "leaky_one_hidden"]),
              st.sampled_from([2, 4])),
    st.builds(partial, st.just(_conv), st.sampled_from([1, 2]),
              st.sampled_from([1, 3])),
)
schemes = st.sampled_from([("kaiming_normal", 1.0), ("xavier_normal", 1.0),
                           ("gaussian", 0.3), ("gaussian", 1.7)])
seeds = st.sampled_from([0, 1])


@st.composite
def chains(data):
    """2-7 draws, each at a new depth and sometimes of another net, scheme
    or seed, so that most draws share layers with the one before."""
    net, scheme, seed = data(nets), data(schemes), data(seeds)
    chain = []
    for _ in range(data(st.integers(min_value=2, max_value=7))):
        change = data(st.sampled_from(["L", "L", "L", "net", "scheme", "seed"]))
        if change == "net":
            net = data(nets)
        elif change == "scheme":
            scheme = data(schemes)
        elif change == "seed":
            seed = data(seeds)
        chain.append((net(data(st.integers(min_value=1, max_value=5))),
                      *scheme, seed))
    return chain


def _fresh_state(spec, scheme, sigma, seed):
    """The generator state after a fresh init's draws."""
    rng = np.random.default_rng(seed)
    for shape in spec.layer_shapes():
        rng.standard_normal(shape)
    return rng.bit_generator.state


def _check_step(spec, scheme, sigma, seed, draw):
    """Draws into `draw`; returns how many of its layers were reused."""
    old_seed, old_layers, old_keys = draw.seed, list(draw.layers), list(draw.keys)
    params = init(spec, scheme, seed, sigma, draw=draw)
    fresh = init(spec, scheme, seed, sigma)
    assert [w.shape for w in params.layers] == spec.layer_shapes()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(params.layers, fresh.layers))
    assert draw.seed == seed and tuple(draw.layers) == params.layers
    assert [shape for shape, _ in draw.keys] == spec.layer_shapes()
    assert draw.states[-1] == _fresh_state(spec, scheme, sigma, seed)
    kept = 0
    if old_seed == seed:
        for new, old in zip(draw.keys, old_keys):
            if new != old:
                break
            kept += 1
    for i, w in enumerate(params.layers):
        assert (i < len(old_layers) and w is old_layers[i]) == (i < kept)
        assert not w.flags.writeable
    return kept


@given(chain=chains())
@settings(max_examples=80, deadline=None)
def test_every_draw_of_a_chain_is_a_fresh_init(chain):
    draw = Draw()
    for spec, scheme, sigma, seed in chain:
        _check_step(spec, scheme, sigma, seed, draw)


def test_depths_rising_and_falling_reuse_the_shared_prefix(count_normals):
    draw = Draw()
    reused, drawn = [], []
    for L in (3, 5, 2, 6, 6, 1):
        before = count_normals()
        reused.append(_check_step(_dense("residual", 4, L), "kaiming_normal",
                                  1.0, 5, draw))
        # _check_step's fresh init and fresh state draw the net twice more.
        net = sum(a * b for (a, b), _ in draw.keys)
        drawn.append(count_normals() - before - 2 * net)
    # Each net shares its first min(L, L') - 1 layers (the m x d and m x m
    # ones) with the one before; an equal net is reused whole.
    assert reused == [0, 2, 1, 1, 6, 0]
    # d = 3, m = 4, k = 2: every layer after the shared prefix is drawn
    # whole, the 2 x 4 last layer included.
    assert drawn == [36, 16 + 16 + 8, 8, 4 * 16 + 8, 0, 6]


def test_a_last_layer_of_another_shape_or_scale_is_redrawn():
    draw = Draw()
    _check_step(_dense("linear_deep", 4, 3), "xavier_normal", 1.0, 2, draw)
    short = list(draw.keys)
    kept = _check_step(_dense("linear_deep", 4, 4), "xavier_normal", 1.0, 2,
                       draw)
    # Under xavier_normal the k x m last layer of L = 3 is scaled unlike
    # the m x m layer that takes its place at L = 4.
    assert kept == 2 and short[2][1] != draw.keys[2][1]
    # Same shapes under another scale: nothing is reused.
    assert _check_step(_dense("linear_deep", 4, 4), "gaussian", 0.3, 2,
                       draw) == 0
    # A draw of another seed is dropped, not reused.
    assert _check_step(_dense("linear_deep", 4, 4), "gaussian", 0.3, 3,
                       draw) == 0


def test_aligned_init_leaves_the_draw_record_alone():
    spec = NetworkSpec(kind="residual", dims=(4, 4, 4), beta=0.5)
    draw = Draw()
    _check_step(spec, "kaiming_normal", 1.0, 1, draw)
    kept = list(draw.layers)
    params = init(spec, "aligned_svd", 1, draw=draw)
    fresh = init(spec, "aligned_svd", 1)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(params.layers, fresh.layers))
    assert draw.layers == kept


class CountingGenerator(np.random.Generator):
    normals = 0

    def standard_normal(self, size=None, *args, **kwargs):
        CountingGenerator.normals += int(np.prod(size, dtype=np.int64))
        return super().standard_normal(size, *args, **kwargs)


@pytest.fixture
def count_normals(monkeypatch):
    """Counts every normal drawn through `np.random.default_rng`."""
    monkeypatch.setattr(CountingGenerator, "normals", 0)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: CountingGenerator(np.random.PCG64(seed)))

    def count():
        return CountingGenerator.normals

    return count


SWEEP = {"data": "synthetic", "d": "5", "n": "40", "kind": "residual",
         "beta": "0.5", "k": "2", "m": "7", "seeds": "4", "axis": "L",
         "values": "2,3,4,5,6"}


def _run(tmp_path, command, cfg, *flags, out="out"):
    path = tmp_path / f"{out}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main([command, "--config", str(path), "--out",
                     str(tmp_path / out), *flags]) == 0
    return tmp_path / out


def test_a_one_seed_depth_sweep_draws_its_deepest_net_and_shallower_last_layers(
        tmp_path, count_normals):
    _run(tmp_path, "sweep", SWEEP, "--jobs", "1", out="sweep")
    swept = count_normals()
    deepest = {k: v for k, v in SWEEP.items() if k not in ("axis", "values")}
    _run(tmp_path, "analyze", {**deepest, "L": "6"}, out="analyze")
    d, n, k, m = 5, 40, 2, 7
    data = d * d + d * n
    assert count_normals() - swept == data + m * d + 4 * m * m + k * m
    # Each L = 2..5 cell adds its own k x m last layer, which the next
    # depth's m x m layer replaces.
    assert swept == data + m * d + 4 * m * m + k * m + 4 * k * m


def test_a_worker_keeps_its_own_draw_and_rows_stay_in_grid_order(
        tmp_path, monkeypatch):
    records = {}

    def checked_init(spec, *, scheme, seed, sigma, draw):
        records.setdefault(threading.get_ident(), set()).add(id(draw))
        return init(spec, scheme, seed, sigma, draw=draw)

    cfg = {**SWEEP, "values": "5,3,2,6,1", "seeds": "1,0,1",
           "init": "xavier_normal"}
    serial = _run(tmp_path, "sweep", cfg, "--jobs", "1", out="serial")
    monkeypatch.setattr(cli, "init", checked_init)
    pooled = _run(tmp_path, "sweep", cfg, "--jobs", "3", out="pooled")
    # One record per worker thread, none shared between threads.
    ids = [i for held in records.values() for i in held]
    assert all(len(held) == 1 for held in records.values())
    assert len(ids) == len(set(ids))
    rows = (serial / "sweep.csv").read_text().splitlines()[1:]
    assert [(r.split(",")[0], r.split(",")[1]) for r in rows] == [
        (f"sweep:L={L}", s) for L in (5, 3, 2, 6, 1) for s in "101"]
    assert (pooled / "sweep.csv").read_bytes() == (
        serial / "sweep.csv").read_bytes()
