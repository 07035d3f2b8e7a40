"""The kd x kd GN is summed one upper block pair at a time and symmetrized
in the same pass: its bytes must be those of the out-of-place formulas, its
peak memory must stay that of one layer's factors at a time, and every GN
builder must return an exactly symmetric matrix, which the symmetry check
accepts in one read."""

import tracemalloc

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    gn_conv,
    gn_conv_shared,
    gn_from_jacobian,
    gn_leaky,
    gn_linear,
    gn_residual,
    init,
    psd_sqrt,
)
from gn_lens.gauss_newton import _SLAB_ENTRIES, _pair_chunks
from gn_lens.linalg import _check_square_symmetric
from gn_lens.network import layer_products, lift_conv


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


def kron_sum_reference(params, beta, sigma):
    """A dense np.kron per layer summed into zeros, then 0.5 * (g + g.T)."""
    k = params.layers[-1].shape[0]
    d = params.layers[0].shape[1]
    s_half = psd_sqrt(sigma)
    g = np.zeros((k * d, k * d))
    for a, b in zip(*layer_products(params, beta)):
        g += np.kron(a @ a.T, s_half @ (b.T @ b) @ s_half)
    return 0.5 * (g + g.T)


def random_params(rng, dims):
    return Params(layers=tuple(
        rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
        for i in range(len(dims) - 1)))


def held_layers(k, d):
    """How many layers' factors the assembly holds at once."""
    return max(1, _SLAB_ENTRIES // (k * k + d * d))


# (k, d, hidden widths): the GN is kd x kd and the net has len(hidden) + 1
# layers.
SHAPES = {
    "k=1,d=1": (1, 1, (3, 2)),
    "k=1": (1, 9, (5,)),
    "d=1": (6, 1, (4, 3)),
    "k>d": (40, 7, (9, 5)),
    # Row 0 of the 20 x 20 block grid in chunks of 14 blocks and 6.
    "ragged pair chunk": (20, 48, (30, 30)),
    # d x d blocks too large for one chunk, summed in slabs of rows, one
    # layer's factors at a time.
    "slabs of one block": (2, 200, (7, 7)),
    # k x k factors so large that the five layers come in groups of three
    # and two.
    "groups of layers": (100, 2, (3, 5, 4, 3)),
}


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_pair_assembly_is_bitwise_the_kron_sum(shape, beta):
    k, d, hidden = shape
    rng = np.random.default_rng(k * 1000 + d)
    params = random_params(rng, (d, *hidden, k))
    sigma = random_spd(rng, d)
    gn = gn_residual(params, beta, sigma) if beta else gn_linear(params, sigma)
    assert gn.matrix.tobytes() == kron_sum_reference(
        params, beta, sigma).tobytes()


def test_the_shapes_reach_every_kind_of_chunk():
    def chunks(key):
        k, d, _ = SHAPES[key]
        return list(_pair_chunks(k, d))

    assert [cols for _, cols, _ in chunks("ragged pair chunk")][:2] == [
        slice(0, 14), slice(14, 20)]
    assert any(ps != slice(0, 200) for _, _, ps in chunks("slabs of one block"))
    for key in ("slabs of one block", "groups of layers"):
        k, d, hidden = SHAPES[key]
        assert held_layers(k, d) < len(hidden) + 1


@pytest.mark.parametrize("k, d", [(1, 1), (1, 300), (3, 190), (7, 40),
                                  (16, 48), (40, 7), (300, 1), (100, 30)])
def test_pair_chunks_cover_each_upper_block_once(k, d):
    covered = np.zeros((k, d, k, d), dtype=int)
    for rows, cols, ps in _pair_chunks(k, d):
        chunk = covered[rows, ps, cols]
        assert 0 < chunk.size <= _SLAB_ENTRIES
        chunk += 1
    upper = np.triu(np.ones((k, k), dtype=int))
    # Blocks below the diagonal may be summed too; they are overwritten.
    assert (covered.min(axis=(1, 3)) >= upper).all()
    assert (covered.max(axis=(1, 3)) == covered.min(axis=(1, 3))).all()
    assert (covered.max(axis=(1, 3))[upper == 1] == 1).all()


def test_gn_conv_is_bitwise_the_kron_sum():
    spec = NetworkSpec(kind="linear_conv", dims=(12,),
                       conv_layers=((3, 1, 3), (2, 3, 4)))
    lifted = lift_conv(spec, init(spec, seed=4))
    sigma = random_spd(np.random.default_rng(5), 12)
    gn = gn_conv(lifted, sigma)
    assert gn.matrix.tobytes() == kron_sum_reference(
        Params(layers=tuple(lifted)), 0.0, sigma).tobytes()


def gn_builders():
    rng = np.random.default_rng(11)
    deep = NetworkSpec(kind="linear_deep", dims=(6, 9, 4))
    deep_params = init(deep, seed=12)
    sigma = random_spd(rng, 6)
    x_wide = rng.standard_normal((6, 40))  # p = 90 < kn = 160: p x p
    x_narrow = rng.standard_normal((6, 10))  # kn = 40 < p: kn x kn
    conv = NetworkSpec(kind="linear_conv", dims=(10,),
                       conv_layers=((3, 1, 3), (2, 3, 3)))
    conv_params = init(conv, seed=13)
    conv_sigma = random_spd(rng, 10)
    w, v, x = (rng.standard_normal(shape) for shape in ((3, 7), (7, 12),
                                                          (12, 9)))
    return {
        "gn_linear": lambda: gn_linear(deep_params, sigma),
        "gn_residual": lambda: gn_residual(deep_params, 0.5, sigma),
        "gn_conv": lambda: gn_conv(lift_conv(conv, conv_params), conv_sigma),
        "gn_leaky": lambda: gn_leaky(w, v, x, 0.1)[0],
        "gn_from_jacobian p x p": lambda: gn_from_jacobian(
            deep, deep_params, x_wide, mode="analytic_linear"),
        "gn_from_jacobian kn x kn": lambda: gn_from_jacobian(
            deep, deep_params, x_narrow, mode="analytic_linear"),
        "gn_conv_shared": lambda: gn_conv_shared(conv, conv_params,
                                                 conv_sigma),
    }


BUILDERS = gn_builders()


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_every_gn_builder_returns_an_exactly_symmetric_matrix(build):
    g = build().matrix
    assert g.shape[0] == g.shape[1] > 1
    assert g.tobytes() == g.T.tobytes()
    assert _check_square_symmetric(g) is g


class NoScans(np.ndarray):
    """An array whose max and min must not be called."""

    def max(self, *args, **kwargs):
        raise AssertionError("max called")

    def min(self, *args, **kwargs):
        raise AssertionError("min called")


def test_the_check_accepts_an_exactly_symmetric_matrix_without_scans():
    a = np.random.default_rng(14).standard_normal((300, 300))
    m = (a + a.T).view(NoScans)
    assert _check_square_symmetric(m) is m
    # Signed zeros compare equal, as the 1e-10 tolerance would have it.
    m[0, 299], m[299, 0] = -0.0, 0.0
    assert _check_square_symmetric(m) is m
    m[0, 299] = 1e-300
    with pytest.raises(AssertionError, match="max called"):
        _check_square_symmetric(m)


@pytest.mark.parametrize("L", [4, 8])
def test_assembly_at_k1_holds_one_right_factor_at_a_time(L):
    # k = 1: every d x d right factor is as large as the GN. Summing all of
    # them at once would peak at about L more GN sizes; psd_sqrt and one
    # layer's factors take about 6.
    d = 1000
    spec = NetworkSpec(kind="linear_deep", dims=(d,) + (50,) * (L - 1) + (1,))
    params = init(spec, seed=15)
    sigma = random_spd(np.random.default_rng(16), d)
    assert held_layers(1, d) == 1
    tracemalloc.start()
    try:
        gn = gn_linear(params, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / gn.matrix.nbytes <= 6.5

