"""Uniform-grid quadrature: cumulative and definite integrals.

Everything here assumes a uniform grid with at least four nodes. The
cumulative rule integrates the piecewise cubic through the four nodes
nearest each interval, so it is exact for cubics and O(h^4) for smooth
integrands, one-sided only on the first and last interval.
"""
import numpy as np


def cumulative_integral(y, h):
    """Antiderivative samples of y on its own grid, starting at 0.

    y may be real or complex with shape (..., n); integration runs along
    the last axis.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n < 4:
        raise ValueError("cumulative_integral needs at least 4 nodes")
    inc = np.empty(y.shape[:-1] + (n - 1,), dtype=y.dtype)
    # first interval: one-sided cubic through nodes 0..3
    inc[..., 0] = (9 * y[..., 0] + 19 * y[..., 1] - 5 * y[..., 2] + y[..., 3]) * (h / 24.0)
    # interior intervals [j, j+1] with stencil j-1..j+2
    inc[..., 1:-1] = (
        -y[..., :-3] + 13 * y[..., 1:-2] + 13 * y[..., 2:-1] - y[..., 3:]
    ) * (h / 24.0)
    # last interval mirrored
    inc[..., -1] = (y[..., -4] - 5 * y[..., -3] + 19 * y[..., -2] + 9 * y[..., -1]) * (h / 24.0)
    out = np.zeros(y.shape, dtype=inc.dtype)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def integral(y, h):
    """Definite integral of y over its grid (same rule as cumulative_integral)."""
    y = np.asarray(y)
    n = y.shape[-1]
    if n < 4:
        raise ValueError("integral needs at least 4 nodes")
    first = (9 * y[..., 0] + 19 * y[..., 1] - 5 * y[..., 2] + y[..., 3]) * (h / 24.0)
    last = (y[..., -4] - 5 * y[..., -3] + 19 * y[..., -2] + 9 * y[..., -1]) * (h / 24.0)
    mid = (
        -y[..., :-3].sum(axis=-1)
        + 13 * y[..., 1:-2].sum(axis=-1)
        + 13 * y[..., 2:-1].sum(axis=-1)
        - y[..., 3:].sum(axis=-1)
    ) * (h / 24.0)
    return first + mid + last
