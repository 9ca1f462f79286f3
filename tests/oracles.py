"""Reference helpers that only the tests use: the dense Newton matrix, the
time-averaged L2 pairing and the time shift of a Fourier field."""
import numpy as np

from hopfwave import periodic
from hopfwave.periodic import FourierField
from hopfwave.quadrature import integral


def jacobian(orbit, ctx, basis):
    """Exact derivative of `periodic.residual` at orbit, Fortran-ordered, and
    its 1-norm.

    The columns are `periodic._tangent` applied to unit inputs, one block of
    M+1 columns (one harmonic, real or imaginary part, and component) at a
    time, the (omega, tau) pair last; column norms are taken per block.
    """
    tangent = periodic._tangent(orbit, ctx, basis)
    n = len(periodic._pack(orbit))
    J = np.empty((n, n), order="F")
    col_norms = np.empty(n)
    for j0 in range(0, n, orbit.v.M + 1):
        cols = slice(j0, min(j0 + orbit.v.M + 1, n))
        J[:, cols] = tangent(np.eye(cols.stop - j0, n, j0)).T
        col_norms[cols] = np.abs(J[:, cols]).sum(axis=0)
    return J, float(np.max(col_norms))


def inner_product(v: FourierField, w: FourierField, h) -> float:
    """Time-averaged L2 pairing (1/2pi) int int sum_j v_j w_j dx dt."""
    total = integral(np.sum(v.coef[0].real * w.coef[0].real, axis=0), h)
    for k in range(1, v.N + 1):
        total += 2.0 * integral(
            np.sum(v.coef[k] * np.conj(w.coef[k]), axis=0), h).real
    return float(total)


def time_shifted(v: FourierField, phi) -> FourierField:
    """Field t -> v(t + phi, x) (harmonic k picks up e^{ik phi})."""
    ks = np.arange(v.N + 1)
    return FourierField(v.coef * np.exp(1j * phi * ks)[:, None, None])
