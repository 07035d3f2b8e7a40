"""`synthesize_gaussian` refuses a covariance spectrum entry that is
negative, NaN or infinite with a ValidationError naming
`covariance_spectrum`, before it draws anything."""

import numpy as np
import pytest

from gn_lens import data, synthesize_gaussian
from gn_lens.errors import ValidationError


@pytest.mark.parametrize("bad, shown", [
    (np.nan, "nan at index 1"),
    (np.inf, "inf at index 1"),
    (-np.inf, "-inf at index 1"),
    (-1.0, "-1.0 at index 1"),
])
def test_refused_before_anything_is_drawn(monkeypatch, bad, shown):
    def no_draw(*args, **kwargs):
        raise AssertionError("synthesize_gaussian drew from a generator")

    monkeypatch.setattr(data.np.random, "default_rng", no_draw)
    with pytest.raises(ValidationError,
                       match=f"^covariance_spectrum entries must be finite "
                             f"and >= 0, got {shown}$"):
        synthesize_gaussian(d=3, n=5, covariance_spectrum=[1.0, bad, 2.0])


def test_a_zero_entry_is_accepted():
    ds = synthesize_gaussian(d=3, n=5, covariance_spectrum=[1.0, 0.0, 2.0])
    assert ds.X.shape == (3, 5) and np.isfinite(ds.X).all()
