"""Uniform-grid quadrature: cumulative and definite integrals.

Everything here assumes a uniform grid with at least four nodes. The
cumulative rule integrates the piecewise cubic through the four nodes
nearest each interval, so it is exact for cubics and O(h^4) for smooth
integrands, one-sided only on the first and last interval.
"""
import numpy as np


def cumulative_rule(shape, h, dtype=np.float64):
    """cumulative_integral planned for arrays of one shape and dtype: returns
    rule(y, out=None), the same bytes, with the increments, 13 y and their
    views allocated once, so a caller of many rows pays only the arithmetic."""
    n = shape[-1]
    if n < 4:
        raise ValueError("cumulative_integral needs at least 4 nodes")
    c = h / 24.0
    inc, y13 = np.empty(shape[:-1] + (n - 1,), dtype), np.empty(shape, dtype)
    # interior intervals [j, j+1] with stencil j-1..j+2, summed in place in
    # the order 13 y_j - y_{j-1} + 13 y_{j+1} - y_{j+2}; one 13 y serves both
    mid, y13_lo, y13_hi = inc[..., 1:-1], y13[..., 1:-2], y13[..., 2:-1]
    # a 1-D float row has its two end intervals done in Python floats: the
    # same IEEE operations as the array expressions, without their overhead
    scalar_ends = len(shape) == 1 and np.dtype(dtype) == np.float64
    add, subtract, multiply, accumulate = np.add, np.subtract, np.multiply, np.add.accumulate

    def rule(y, out=None):
        multiply(y, 13, out=y13)
        subtract(y13_lo, y[..., :-3], out=mid)
        add(mid, y13_hi, out=mid)
        subtract(mid, y[..., 3:], out=mid)
        multiply(mid, c, out=mid)
        if scalar_ends:
            y0, y1, y2, y3 = y[:4].tolist()
            z3, z2, z1, z0 = y[-4:].tolist()
            inc[0] = (9 * y0 + 19 * y1 - 5 * y2 + y3) * c
            inc[-1] = (z3 - 5 * z2 + 19 * z1 + 9 * z0) * c
        else:
            # first interval: one-sided cubic through nodes 0..3
            inc[..., 0] = (9 * y[..., 0] + 19 * y[..., 1] - 5 * y[..., 2] + y[..., 3]) * c
            # last interval mirrored
            inc[..., -1] = (y[..., -4] - 5 * y[..., -3] + 19 * y[..., -2] + 9 * y[..., -1]) * c
        if out is None:
            out = np.empty(shape, dtype=dtype)
        out[..., 0] = 0
        # np.cumsum's own ufunc, called directly: its Python dispatch costs
        # more than the sum on one grid row. Summing inc itself, not a copy
        # with a leading 0, keeps a -0.0 first increment as -0.0.
        accumulate(inc, axis=-1, out=out[..., 1:])
        return out

    return rule


def cumulative_integral(y, h, out=None):
    """Antiderivative samples of y on its own grid, starting at 0.

    y may be real or complex with shape (..., n); integration runs along
    the last axis. out, if given, is an array of y's shape and dtype that
    receives the samples and is returned, as numpy's out= arguments do.
    Integer samples are integrated as floats.
    """
    y = np.asarray(y)
    if y.dtype.kind not in "fc":    # an integer increment array truncates
        y = y.astype(float)
    return cumulative_rule(y.shape, h, y.dtype)(y, out)


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
