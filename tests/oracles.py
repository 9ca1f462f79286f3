"""Reference helpers that only the tests use: the guarded transversality
pairing, the dense Newton matrix, the time-averaged L2 pairing, Fourier
synthesis, analysis and time shift of a field, random smooth fields, the
closed-form curvature of the worked example, the shooting kernel as it was
before its step matrices were built elementwise, the point-query transport
kernels, brute-force time-domain oracles of the transport operators, the
linearized source, the reconstructed displacement field, the direction
evaluation from a serialized certificate, and time-stepper states with a
given history, among them one seeded on a computed orbit, and the
cumulative quadrature and time step as they were before they were cut to
fewer numpy calls.

Fields are coefficient arrays of shape (..., N+1, 2, M+1), as in
`hopfwave.periodic`."""
import cmath
from dataclasses import dataclass

import numpy as np

from hopfwave import direction as direction_mod
from hopfwave import eigen, periodic
from hopfwave.errors import HopfwaveError, NotSeparable, RhoZero
from hopfwave.model import LinearizedCoeffs, ProblemSpec, antiderivative_tables, displacement
from hopfwave.periodic import (OperatorContext, PeriodicOrbit, _delay_phase,
                               _displacement, harmonic_analysis, harmonic_synthesis)
from hopfwave.quadrature import cumulative_integral, integral
from hopfwave.timedomain import SimState, Simulator


class SigmaZero(HopfwaveError):
    """Transversality pairing vanished."""


def compute_sigma_rho(tau0, u0, u_star, coeffs: LinearizedCoeffs):
    """`eigen._sigma_rho_values`, raising when sigma or rho is below the
    certificate's tolerance."""
    sigma, rho = eigen._sigma_rho_values(tau0, u0, u_star, coeffs)
    if abs(sigma) < eigen.TOL_SIGMA:
        raise SigmaZero(f"|sigma| = {abs(sigma):.3e} below {eigen.TOL_SIGMA:.1e}")
    if abs(rho) < eigen.TOL_RHO:
        raise RhoZero(f"|rho| = {abs(rho):.3e} below {eigen.TOL_RHO:.1e}")
    return sigma, rho


def jacobian(orbit, ctx, basis):
    """Exact derivative of `periodic.residual` at orbit, Fortran-ordered, and
    its 1-norm.

    The columns are `periodic._tangent` applied to unit inputs, one block of
    M+1 columns (one harmonic, real or imaginary part, and component) at a
    time, the (omega, tau) pair last; column norms are taken per block.
    """
    tangent, _ = periodic._tangent(orbit, ctx, basis)
    n = len(periodic._pack(orbit))
    J = np.empty((n, n), order="F")
    col_norms = np.empty(n)
    width = orbit.v.shape[-1]
    for j0 in range(0, n, width):
        cols = slice(j0, min(j0 + width, n))
        J[:, cols] = tangent(np.eye(cols.stop - j0, n, j0)).T
        col_norms[cols] = np.abs(J[:, cols]).sum(axis=0)
    return J, float(np.max(col_norms))


def inner_product(v, w, h) -> float:
    """Time-averaged L2 pairing (1/2pi) int int sum_j v_j w_j dx dt."""
    total = integral(np.sum(v[0].real * w[0].real, axis=0), h)
    for k in range(1, len(v)):
        total += 2.0 * integral(np.sum(v[k] * np.conj(w[k]), axis=0), h).real
    return float(total)


def synthesize(v, times):
    """Real field values, shape (..., len(times), 2, M+1)."""
    vals = harmonic_synthesis(v.reshape(v.shape[:-2] + (-1,)), times)
    return vals.reshape(vals.shape[:-1] + v.shape[-2:])


def analyze(values, N):
    """Harmonics 0..N of equispaced samples (..., T, 2, M+1) over one
    period: the inverse of synthesize for T >= 2N+1."""
    coef = harmonic_analysis(values.reshape(values.shape[:-2] + (-1,)),
                             np.arange(N + 1))
    return coef.reshape(coef.shape[:-1] + values.shape[-2:])


def time_shifted(v, phi):
    """Field t -> v(t + phi, x) (harmonic k picks up e^{ik phi})."""
    return v * np.exp(1j * phi * np.arange(v.shape[-3]))[:, None, None]


def random_field(rng, N, M, decay=1.6):
    """Smooth random field with harmonic amplitudes decaying like decay^-k."""
    f = np.zeros((N + 1, 2, M + 1), dtype=complex)
    x = np.linspace(0, 1, M + 1)
    for k in range(N + 1):
        amp = decay ** (-k)
        for j in range(2):
            prof = (rng.normal() + rng.normal() * x
                    + rng.normal() * np.sin(np.pi * x)
                    + rng.normal() * np.cos(2 * np.pi * x))
            prof2 = (rng.normal() * np.cos(np.pi * x) + rng.normal() * x ** 2)
            f[k, j, :] = amp * (prof + (0.0 if k == 0 else 1j * prof2))
    f[..., 0, :, :] = f[..., 0, :, :].real
    return f


def worked_example_curvature(coeffs: LinearizedCoeffs, cubic: np.ndarray,
                             sigma, rho) -> float:
    """Closed-form curvature for the constant-speed benchmark family.

    Valid only when a is constant, b3 = b6 = 0, b4 = b5 = c(x), beta4 = 0
    and the eigenfunctions are taken as sin(pi x / 2) (so sigma, rho must
    come from that same convention). Uses the published +3/(8 rho)
    prefactor; it is the algebraic rearrangement of the d2tau_literature
    value of tau_curvatures for this family and the pair is cross-checked
    in the tests.
    """
    x, h = coeffs.x, coeffs.h
    b3n, b4n = coeffs.nodes("b3"), coeffs.nodes("b4")
    b5n, b6n = coeffs.nodes("b5"), coeffs.nodes("b6")
    if (np.max(np.abs(coeffs.nodes("ax"))) > 1e-12
            or np.max(np.abs(b3n)) > 1e-12 or np.max(np.abs(b6n)) > 1e-12
            or np.max(np.abs(b4n - b5n)) > 1e-12):
        raise NotSeparable("closed form needs constant a, b3 = b6 = 0, b4 = b5")
    if np.max(np.abs(cubic[3])) > 1e-12:
        raise NotSeparable("closed form needs beta4 = 0")
    s2 = np.sin(np.pi * x / 2.0) ** 2
    s4 = s2 * s2
    c = b4n
    S = integral(c * s2, h)
    W = integral((2.0 - np.pi / 2.0 * c) * s2, h)
    P1 = integral(cubic[0] * s4, h)
    P2 = integral(cubic[1] * s4, h)
    P3 = integral(cubic[2] * s4, h)
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
    """Build the cumulative tables behind c1, c2, A at the lambda coeffs was
    linearized at."""
    F, logE1, logE2 = antiderivative_tables(coeffs)
    return CharKernels(xx=coeffs.xx, F=F, logE1=logE1, logE2=logE2)


# ---------------------------------------------------------------------------
# brute-force time-domain oracles: fine time grid, cubic interpolation for
# the characteristic shifts, same x-quadrature weights

def interp_periodic(samples, t_query):
    """Cubic interpolation of periodic samples over [0, 2pi)."""
    T = len(samples)
    dt = 2 * np.pi / T
    ext = np.concatenate([samples[-2:], samples, samples[:3]])
    return cubic_interp(ext, -2 * dt, dt, np.mod(t_query, 2 * np.pi))


def oracle_C(v, omega, ctx, T=4096):
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(v, t)                    # (T, 2, M+1)
    ke = kernels(ctx.coeffs)
    M = v.shape[-1] - 1
    xm = ctx.x[:, None]                        # one query row per node
    out = np.empty_like(vals)
    out[:, 0] = (-ke.c1(xm, 0.0) * interp_periodic(
        vals[:, 1, 0], t + omega * ke.A(xm, 0.0))).T
    out[:, 1] = (ke.c2(xm, 1.0) * interp_periodic(
        vals[:, 0, M], t - omega * ke.A(xm, 1.0))).T
    return analyze(out, v.shape[-3] - 1)


def oracle_D(f, omega, ctx, T=4096):
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(f, t)
    ke = kernels(ctx.coeffs)
    M = f.shape[-1] - 1
    out = np.zeros_like(vals)
    # eight target nodes x_m at a time, one source node x_j per pass
    for m0 in range(0, M + 1, 8):
        xm = ctx.x[m0:m0 + 8, None]
        integ = np.empty((2, len(xm), M + 1, T))
        for j in range(M + 1):
            xj = ctx.x[j]
            # component 1: integral over [0, x_m] along the left-going family
            integ[0, :, j] = ke.c1(xm, xj) / ctx.a[j] * interp_periodic(
                vals[:, 0, j], t + omega * ke.A(xm, xj))
            integ[1, :, j] = ke.c2(xm, xj) / ctx.a[j] * interp_periodic(
                vals[:, 1, j], t - omega * ke.A(xm, xj))
        cum1, cum2 = cumulative_integral(integ.swapaxes(-1, -2), ctx.h)
        for i in range(len(xm)):
            out[:, 0, m0 + i] = -cum1[i, :, m0 + i]
            out[:, 1, m0 + i] = -(cum2[i, :, -1] - cum2[i, :, m0 + i])
    return analyze(out, f.shape[-3] - 1)


def apply_JK(v, omega: float, tau: float, ctx: OperatorContext):
    """Linearization of B at v = 0: partial-integral part plus the
    off-diagonal pointwise part. Used for cross-checks and basin probes."""
    J = _displacement(v, ctx)
    b3, b4 = ctx.coeffs.nodes("b3"), ctx.coeffs.nodes("b4")
    mix = (b3 + b4 * _delay_phase(np.arange(v.shape[-3]), omega, tau)) * J
    out = np.empty_like(v)
    out[..., 0, :] = mix + ctx.b2 * v[..., 1, :]
    out[..., 1, :] = mix + ctx.b1 * v[..., 0, :]
    out[..., 0, :, :] = out[..., 0, :, :].real
    return out


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
    T = n_times or (4 * (len(v) - 1) + 1)
    t = 2.0 * np.pi * np.arange(T) / T
    u_hat = _displacement(v, ctx)
    u = harmonic_synthesis(u_hat, t)
    vals = synthesize(v, t)
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
    d2, d2_lit = direction_mod.tau_curvatures(u0, u0p, ustar, sigma, rho, tau0,
                                              cubic, h)
    return {"d2tau": d2, "d2tau_literature": d2_lit,
            "indicator": float(np.sign(rho * d2)),
            "supercritical": bool(rho * d2 > 0),
            "caveat": direction_mod.STABILITY_CAVEAT}


def state_with_history(sim: Simulator, history_fn, v1=None, v2=None) -> SimState:
    """`sim.initial_state(v1, v2)` with the history rows before t = 0 set to
    history_fn(t) instead of the constant extension; the row at t = 0 stays
    the displacement of (v1, v2)."""
    state = sim.initial_state(v1=v1, v2=v2)
    ts = -sim.dt * np.arange(sim.n_hist - 1, 0, -1.0)
    state.history[:-1] = [np.asarray(history_fn(t), dtype=float) for t in ts]
    return state


def seed_from_orbit(sim: Simulator, orbit, ctx) -> SimState:
    """SimState sitting exactly on a computed periodic orbit at t = 0.

    orbit/ctx come from the periodic module (possibly on a coarser grid);
    harmonics are interpolated onto the simulation grid and the delay
    history is synthesized from the orbit itself, u_phys(t) = u(omega t).
    """
    v_hat = cubic_interp(orbit.v, 0.0, ctx.h, sim.x)    # (N+1, 2, M+1)
    v1_hat, v2_hat = v_hat[:, 0], v_hat[:, 1]
    u_hat = displacement(v1_hat - v2_hat, sim.a, sim.h)
    v1, v2 = harmonic_synthesis(np.stack([v1_hat, v2_hat]), [0.0])[:, 0]
    return state_with_history(
        sim, lambda t: harmonic_synthesis(u_hat, [orbit.omega * t])[0], v1=v1, v2=v2)


def cumulative_integral_reference(y, h):
    """`quadrature.cumulative_integral` before its interior terms shared one
    13 y and ran in place: each term a fresh array, both end intervals as
    array expressions."""
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


@dataclass
class ReferenceState:
    """The time-stepper state as the reference step advances it: separate
    v1 and v2 arrays, rebound by each step, and no carried v1 - v2."""

    v1: np.ndarray
    v2: np.ndarray
    t: float
    history: np.ndarray
    head: int

    @classmethod
    def copy_of(cls, state: SimState):
        return cls(state.v1.copy(), state.v2.copy(), state.t,
                   state.history.copy(), state.head)


class ReferenceStepper:
    """`Simulator.step` before it carried v1 - v2, worked in buffers and
    fused its two upwind products, with the per-node constants it read;
    `step` and `_delayed_displacement` are the old bodies verbatim, and the
    displacement is the old rule over cumulative_integral_reference."""

    def __init__(self, sim: Simulator):
        self.spec, self.x, self.a, self.h = sim.spec, sim.x, sim.a, sim.h
        self.dt, self.lag, self.w, self.n_hist = sim.dt, sim.lag, sim.w, sim.n_hist
        self.gain_v1 = self.dt * self.a[:-1] / self.h
        self.gain_v2 = self.dt * self.a[1:] / self.h
        self.half_ax = 0.5 * sim.ax
        self.half_inv_a = 0.5 / self.a

    @staticmethod
    def displacement(v1, v2, a, h):
        return 0.5 * cumulative_integral_reference((v1 - v2) / a, h)

    def _delayed_displacement(self, state):
        """u(t - tau), linear between the two history rows around it."""
        rows, i0 = state.history, state.head - self.lag
        return (1.0 - self.w) * rows[i0 % self.n_hist] \
            + self.w * rows[(i0 - 1) % self.n_hist]

    def step(self, state: ReferenceState) -> None:
        v1, v2, dt = state.v1, state.v2, self.dt
        diff = v1 - v2
        env = {"x": self.x, "lambda": self.spec.lam,
               "u1": state.history[state.head],
               "u2": self._delayed_displacement(state),
               "u3": 0.5 * (v1 + v2), "u4": diff * self.half_inv_a}
        # a fresh grid array even when b is constant in x
        dtB = self.spec.b.eval(env) - self.half_ax * diff
        dtB *= dt
        new_v1 = v1 + dtB
        new_v2 = v2 + dtB
        # v1 rides leftward characteristics: upwind from the right
        new_v1[:-1] += self.gain_v1 * (v1[1:] - v1[:-1])
        # v2 rides rightward characteristics: upwind from the left
        new_v2[1:] -= self.gain_v2 * (v2[1:] - v2[:-1])
        new_v1[-1] = new_v2[-1]
        new_v2[0] = -new_v1[0]
        state.v1, state.v2, state.t = new_v1, new_v2, state.t + dt
        state.head = (state.head + 1) % self.n_hist
        state.history[state.head] = self.displacement(new_v1, new_v2, self.a, self.h)
