"""Every dense GN builder refuses a result past the dimension cap with
`SizeError`, a `DimensionError`, before it runs a forward pass or assembles
anything; within the cap each goes on to that work."""

import numpy as np
import pytest

from gn_lens import (
    NetworkSpec,
    Params,
    TeacherSpec,
    functional_hessian_spectrum,
    gauss_newton,
    gn_conv_shared,
    gn_from_jacobian,
    gn_leaky,
    init,
)
from gn_lens.errors import DimensionError, SizeError
from gn_lens.linalg import DEFAULT_DIM_CAP

CAP = DEFAULT_DIM_CAP


def _refuse(monkeypatch, *names):
    """Make each of gauss_newton's `names` fail the test when called."""
    def not_reached(*args, **kwargs):
        raise AssertionError("went past the dimension cap check")

    for name in names:
        monkeypatch.setattr(gauss_newton, name, not_reached)


def _refused_past_the_cap(build, size, match):
    """`build(size + 1)`, just past the cap, fails with SizeError, and
    `build(size)`, within it, reaches the refused work."""
    with pytest.raises(SizeError, match=match):
        build(size + 1)
    with pytest.raises(AssertionError, match="past the dimension cap"):
        build(size)


def test_size_error_is_a_dimension_error():
    assert issubclass(SizeError, DimensionError)


@pytest.mark.parametrize("mode", ["finite_difference", "analytic_linear"])
def test_jacobian_gram_side(monkeypatch, mode):
    # p = 101 * 100 + 100 = 10,200 and kn = n, so the Gram's side is n.
    spec = NetworkSpec(kind="linear_deep", dims=(101, 100, 1))
    params = init(spec, seed=0)
    _refuse(monkeypatch, "_stacked_jacobian_fd", "_stacked_jacobian_linear")
    _refused_past_the_cap(
        lambda n: gn_from_jacobian(spec, params, np.ones((101, n)), mode),
        CAP, r"min\(p, kn\)=10001 \(p=10200, kn=10001\)")


def test_jacobian_gram_side_counts_every_conv_output(monkeypatch):
    def build(channels):
        # Each channel has 2 taps and 3 - 2 + 1 = 2 outputs a sample, so
        # p = kn = 2 * channels on one sample.
        spec = NetworkSpec(kind="linear_conv", dims=(3,),
                           conv_layers=((channels, 1, 2),))
        params = Params(layers=(np.ones((channels, 1, 2)),))
        return gn_from_jacobian(spec, params, np.ones((3, 1)))

    _refuse(monkeypatch, "_stacked_jacobian_fd")
    _refused_past_the_cap(build, CAP // 2,
                          r"min\(p, kn\)=10002 \(p=10002, kn=10002\)")


def test_leaky_gn_side(monkeypatch):
    class Numpy:
        """gauss_newton's numpy, with the activation pattern refused."""

        def __getattr__(self, name):
            if name == "where":
                raise AssertionError("went past the dimension cap check")
            return getattr(np, name)

    monkeypatch.setattr(gauss_newton, "np", Numpy())
    k = 73  # kn = 73 * 137 = 10,001
    _refused_past_the_cap(
        lambda n: gn_leaky(np.ones((k, 1)), np.ones((1, 1)), np.ones((1, n)),
                           0.1),
        CAP // k, "kn=10001 exceeds dimension cap 10000")


def test_conv_shared_parameter_count(monkeypatch):
    def build(taps):
        spec = NetworkSpec(kind="linear_conv", dims=(taps,),
                           conv_layers=((1, 1, taps),))
        return gn_conv_shared(spec, Params(layers=(np.ones((1, 1, taps)),)),
                              np.eye(1))

    _refuse(monkeypatch, "psd_sqrt", "lift_conv")
    _refused_past_the_cap(build, CAP, "p=10001 exceeds dimension cap 10000")


def test_functional_hessian_side(monkeypatch):
    def build(d):
        # (k + d) m with k = 1, m = 137: 10,001 at d = 72.
        w, v = np.ones((1, 137)), np.ones((137, d))
        return functional_hessian_spectrum(
            w, v, np.eye(d), TeacherSpec(Z=np.zeros((1, d))))

    _refuse(monkeypatch, "svdvals")
    with pytest.raises(SizeError, match=r"\(k\+d\)m=10001 exceeds"):
        build(72)
    with pytest.raises(AssertionError, match="past the dimension cap"):
        build(71)
