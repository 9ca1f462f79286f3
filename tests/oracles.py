"""Reference helpers that only the tests use: the dense Newton matrix, the
time-averaged L2 pairing, the time shift of a Fourier field, the
closed-form curvature of the worked example, the shooting kernel as it
was before its step matrices were built elementwise, the point-query
transport kernels, the linearized source, the reconstructed displacement
field, the direction evaluation from a serialized certificate, and the
time-stepper state seeded on a computed orbit."""
import cmath
from dataclasses import dataclass

import numpy as np

from hopfwave import direction as direction_mod
from hopfwave import periodic
from hopfwave.direction import CubicCoeffs
from hopfwave.errors import NotSeparable
from hopfwave.model import LinearizedCoeffs, ProblemSpec, antiderivative_tables
from hopfwave.periodic import (FourierField, OperatorContext, PeriodicOrbit,
                               _delay_phase, _displacement, displacement,
                               harmonic_synthesis)
from hopfwave.quadrature import integral
from hopfwave.timedomain import SimState, Simulator


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


def cubic_interp(table, x0, h, xq):
    """Piecewise-cubic (4-point Lagrange) interpolation of a uniform-grid table.

    table: (n,) samples at x0 + j*h.  xq: query points (scalar or array)
    inside the table range; endpoint stencils are clamped.
    """
    table = np.asarray(table)
    n = table.shape[-1]
    xq = np.asarray(xq, dtype=float)
    s = (xq - x0) / h
    j = np.clip(np.floor(s).astype(int), 1, n - 3)  # stencil j-1 .. j+2
    t = s - j
    ym1 = table[..., j - 1]
    y0 = table[..., j]
    y1 = table[..., j + 1]
    y2 = table[..., j + 2]
    # Lagrange basis on nodes -1, 0, 1, 2
    w_m1 = -t * (t - 1) * (t - 2) / 6.0
    w_0 = (t + 1) * (t - 1) * (t - 2) / 2.0
    w_1 = -(t + 1) * t * (t - 2) / 2.0
    w_2 = (t + 1) * t * (t - 1) / 6.0
    return w_m1 * ym1 + w_0 * y0 + w_1 * y1 + w_2 * y2


@dataclass(frozen=True)
class CharKernels:
    """Transport kernels backed by cumulative quadrature tables.

    F, logE1, logE2 are antiderivatives of 1/a, b1/a, b2/a on the refined
    grid; arbitrary-point queries interpolate them with cubics, so the
    kernel error is O(M^-4).
    """

    xx: np.ndarray
    F: np.ndarray
    logE1: np.ndarray
    logE2: np.ndarray

    @property
    def hh(self):
        return self.xx[1] - self.xx[0]

    def _at(self, table, x):
        return cubic_interp(table, 0.0, self.hh, x)

    def A(self, x, xi):
        return self._at(self.F, x) - self._at(self.F, xi)

    def c1(self, x, xi):
        return np.exp(self._at(self.logE1, xi) - self._at(self.logE1, x))

    def c2(self, x, xi):
        return np.exp(self._at(self.logE2, x) - self._at(self.logE2, xi))

    # node-grid tables for the harmonic operators
    @property
    def F_nodes(self):
        return self.F[::2]

    @property
    def logE1_nodes(self):
        return self.logE1[::2]

    @property
    def logE2_nodes(self):
        return self.logE2[::2]


def kernels(coeffs: LinearizedCoeffs) -> CharKernels:
    """Build the cumulative tables behind c1, c2, A at coeffs.lam."""
    F, logE1, logE2 = antiderivative_tables(coeffs)
    return CharKernels(xx=coeffs.xx, F=F, logE1=logE1, logE2=logE2)


def apply_JK(v: FourierField, omega: float, tau: float,
             ctx: OperatorContext) -> FourierField:
    """Linearization of B at v = 0: partial-integral part plus the
    off-diagonal pointwise part. Used for cross-checks and basin probes."""
    J = _displacement(v.coef, ctx)
    mix = (ctx.b3 + ctx.b4 * _delay_phase(v.N, omega, tau)) * J
    out = np.empty_like(v.coef)
    out[..., 0, :] = mix + ctx.b2 * v.coef[..., 1, :]
    out[..., 1, :] = mix + ctx.b1 * v.coef[..., 0, :]
    return FourierField(out).enforce_symmetry()


@dataclass
class ReconstructedField:
    times: np.ndarray
    x: np.ndarray
    u: np.ndarray        # (T, M+1)
    u_t: np.ndarray      # dt in scaled time
    u_x: np.ndarray
    u_hat: np.ndarray    # harmonics of u, (N+1, M+1)


def reconstruct_u(orbit: PeriodicOrbit, ctx: OperatorContext,
                  n_times: int = None) -> ReconstructedField:
    """Displacement field from the transported components.

    u is the characteristic integral of (v1 - v2) / (2a); its time and
    space derivatives come from the pointwise identities
    omega u_t = (v1 + v2)/2 and u_x = (v1 - v2)/(2a).
    """
    v = orbit.v
    T = n_times or (4 * v.N + 1)
    t = 2.0 * np.pi * np.arange(T) / T
    u_hat = _displacement(v.coef, ctx)
    u = harmonic_synthesis(u_hat, t)
    vals = v.synthesize(t)
    u_t = 0.5 * (vals[:, 0, :] + vals[:, 1, :]) / orbit.omega
    u_x = 0.5 * (vals[:, 0, :] - vals[:, 1, :]) / ctx.a
    return ReconstructedField(times=t, x=ctx.x, u=u, u_t=u_t, u_x=u_x,
                              u_hat=u_hat)


def _complex_array(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def direction_from_document(doc: dict, spec: ProblemSpec) -> dict:
    """Re-run the direction evaluation from a serialized certificate.

    Reproduces the in-memory values exactly (floats round-trip through
    JSON), which the round-trip test pins at 1e-12.
    """
    grid = np.asarray(doc["grid"], dtype=float)
    cubic = direction_mod.check_structure(spec, grid)
    u0 = _complex_array(doc["u0"])
    u0p = _complex_array(doc["u0_prime"])
    ustar = _complex_array(doc["u_star"])
    sigma = complex(*doc["sigma"])
    rho = float(doc["rho"])
    tau0 = float(doc["tau0"])
    h = grid[1] - grid[0]
    d2 = direction_mod.tau_curvature(u0, u0p, ustar, sigma, rho, tau0, cubic, h)
    d2_lit = direction_mod.tau_curvature_literature(
        u0, u0p, ustar, sigma, rho, tau0, cubic, h)
    return {"d2tau": d2, "d2tau_literature": d2_lit,
            "indicator": float(np.sign(rho * d2)),
            "supercritical": bool(rho * d2 > 0),
            "caveat": direction_mod.STABILITY_CAVEAT}


def seed_from_orbit(sim: Simulator, orbit, ctx) -> SimState:
    """SimState sitting exactly on a computed periodic orbit at t = 0.

    orbit/ctx come from the periodic module (possibly on a coarser grid);
    harmonics are interpolated onto the simulation grid and the delay
    history is synthesized from the orbit itself, u_phys(t) = u(omega t).
    """
    v_hat = cubic_interp(orbit.v.coef, 0.0, ctx.h, sim.x)    # (N+1, 2, M+1)
    v1_hat, v2_hat = v_hat[:, 0], v_hat[:, 1]
    u_hat = displacement(v1_hat, v2_hat, sim.a, sim.h)
    v1, v2 = harmonic_synthesis(np.stack([v1_hat, v2_hat]), [0.0])[:, 0]
    return sim.initial_state(
        v1=v1, v2=v2,
        history_fn=lambda t: harmonic_synthesis(u_hat, [orbit.omega * t])[0])
