import numpy as np
import pytest

from hopfwave.quadrature import cumulative_integral
from oracles import cumulative_integral_reference


def _spread(rng, shape):
    """Normal samples scaled by 10^k, k uniform in [-12, 13]: 25 decades."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-12.0, 13.0, shape)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape", [(257,), (9, 65)], ids=["257", "9x65"])
def test_cumulative_integral_bit_identical_to_reference(shape, kind):
    # the in-place rule with one shared 13 y, and its out= path, give the
    # same bytes as the rule that formed every term as a fresh array
    rng = np.random.default_rng(17)
    h = 1.0 / (shape[-1] - 1)
    for _ in range(200):
        y = _spread(rng, shape)
        if kind == "complex":
            y = y + 1j * _spread(rng, shape)
        want = cumulative_integral_reference(y, h).tobytes()
        assert cumulative_integral(y, h).tobytes() == want
        out = np.full(shape, np.nan, dtype=y.dtype)
        assert cumulative_integral(y, h, out=out) is out
        assert out.tobytes() == want


@pytest.mark.parametrize("value", [-0.0, complex(-0.0, -0.0)], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(257,), (9, 65)], ids=["257", "9x65"])
def test_cumulative_integral_signed_zeros(shape, value):
    # np.array_equal cannot tell -0.0 from +0.0, so compare bytes; with
    # real y[2] = +0.0 the first increment is -0.0, which a sum started
    # from a leading 0 would turn into +0.0
    y = np.full(shape, value)
    out = np.full(shape, np.nan, dtype=y.dtype)
    for _ in range(2):
        want = cumulative_integral_reference(y, 1.0 / 64).tobytes()
        assert cumulative_integral(y, 1.0 / 64).tobytes() == want
        assert cumulative_integral(y, 1.0 / 64, out=out).tobytes() == want
        y[..., 2] = 0.0
    if isinstance(value, float):
        assert np.signbit(out[..., 1]).all()


def test_cumulative_integral_of_integer_samples():
    # integer samples once gave integer increments, each truncated toward 0
    got = cumulative_integral(np.arange(8), 1.0)
    assert got.tobytes() == cumulative_integral(np.arange(8.0), 1.0).tobytes()
    assert got == pytest.approx(np.arange(8.0) ** 2 / 2, abs=1e-14)
