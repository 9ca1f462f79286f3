"""Reference helpers that only the tests use: the dense Newton matrix, the
time-averaged L2 pairing, the time shift of a Fourier field, the
closed-form curvature of the worked example, and the shooting kernel as it
was before its step matrices were built elementwise."""
import cmath

import numpy as np

from hopfwave import periodic
from hopfwave.direction import CubicCoeffs
from hopfwave.errors import NotSeparable
from hopfwave.model import LinearizedCoeffs
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


def worked_example_curvature(coeffs: LinearizedCoeffs, cubic: CubicCoeffs,
                             sigma, rho) -> float:
    """Closed-form curvature for the constant-speed benchmark family.

    Valid only when a is constant, b3 = b6 = 0, b4 = b5 = c(x), beta4 = 0
    and the eigenfunctions are taken as sin(pi x / 2) (so sigma, rho must
    come from that same convention). Uses the published +3/(8 rho)
    prefactor; it is the algebraic rearrangement of
    tau_curvature_literature for this family and the pair is cross-checked
    in the tests.
    """
    x, h = coeffs.x, coeffs.h
    b3n, b4n = coeffs.nodes("b3"), coeffs.nodes("b4")
    b5n, b6n = coeffs.nodes("b5"), coeffs.nodes("b6")
    if (np.max(np.abs(coeffs.nodes("ax"))) > 1e-12
            or np.max(np.abs(b3n)) > 1e-12 or np.max(np.abs(b6n)) > 1e-12
            or np.max(np.abs(b4n - b5n)) > 1e-12):
        raise NotSeparable("closed form needs constant a, b3 = b6 = 0, b4 = b5")
    if np.max(np.abs(cubic.beta4)) > 1e-12:
        raise NotSeparable("closed form needs beta4 = 0")
    s2 = np.sin(np.pi * x / 2.0) ** 2
    s4 = s2 * s2
    c = b4n
    S = integral(c * s2, h)
    W = integral((2.0 - np.pi / 2.0 * c) * s2, h)
    P1 = integral(cubic.beta1 * s4, h)
    P2 = integral(cubic.beta2 * s4, h)
    P3 = integral(cubic.beta3 * s4, h)
    return float(3.0 * (-S * P1 + W * (P3 - P2)) / (8.0 * rho * abs(sigma) ** 2))


def step_matrices_matmul(P, Q, M):
    """RK4 step matrices of u'' = P u + Q u' built as stacked 2x2 products
    of A = [[0, 1], [P, Q]], shape (..., M, 2, 2) for P of shape
    (..., 2M+1)."""
    h = 1.0 / M
    A = np.zeros(np.shape(P)[:-1] + (2 * M + 1, 2, 2), dtype=complex)
    A[..., 0, 1] = 1.0
    A[..., 1, 0] = P
    A[..., 1, 1] = Q
    A0, Ah, A1 = A[..., :-1:2, :, :], A[..., 1::2, :, :], A[..., 2::2, :, :]
    eye = np.eye(2)
    K1 = A0
    K2 = Ah @ (eye + 0.5 * h * K1)
    K3 = Ah @ (eye + 0.5 * h * K2)
    K4 = A1 @ (eye + h * K3)
    return eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def a2_scan_per_k(tau0, K_max, coeffs):
    """The resonance scan one scalar shot per k, both signs of k, each shot
    marched over the step_matrices_matmul build."""
    a2 = coeffs.a * coeffs.a
    scan = []
    for k in [0] + [s * k for k in range(2, K_max + 1) for s in (1, -1)]:
        mu = 1j * k
        q = mu * mu - coeffs.b5 * mu - coeffs.b4 * cmath.exp(-mu * tau0) - coeffs.b3
        u, up = 0j, 1 + 0j
        for (t00, t01), (t10, t11) in step_matrices_matmul(
                q / a2, -coeffs.b6 / a2, coeffs.M).tolist():
            u, up = t00 * u + t01 * up, t10 * u + t11 * up
        scan.append((k, abs(up)))
    return sorted(scan, key=lambda item: item[0])
