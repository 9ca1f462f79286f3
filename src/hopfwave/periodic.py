"""Time-periodic orbits of the transported system by harmonic balance.

The wave problem, rewritten along characteristics, becomes the fixed-point
system v = C(omega, lam) v + D(omega, lam) B(v, omega, tau, lam) for the
2-component field v(t, x), 2pi-periodic in scaled time. Fields are held as
truncated Fourier series in t with values on a uniform x-grid; time shifts
by omega * A(x, xi) then act as exact per-harmonic phase factors, and the
integral operators reduce to cumulative quadrature thanks to the
multiplicative structure of the kernels.

The nonlinear operator B is evaluated pseudo-spectrally on 4N+1 equispaced
times, which de-aliases cubic products exactly. Newton treats the stacked
harmonic coefficients plus (omega, tau) as unknowns, with an amplitude
projection on the critical mode and a phase condition closing the system.
Each step is `gmres` on the exact derivative of that residual, preconditioned
by one block build per branch. With the partials of b averaged over time
(exact at v = 0) the derivative splits harmonic by harmonic; only k = 1 is
singular at the Hopf point, and it is bordered by the amplitude and phase
rows and the (omega, tau) columns, as in the Lyapunov-Schmidt reduction
onto the critical mode. No dense matrix of the full system is formed.

A field v(t, x) = sum_k vhat_k(x) e^{ikt} is a plain complex array of
shape (..., N+1, 2, M+1): optional batch axes, harmonic 0..N, component,
node. Negative harmonics are the conjugates (the field is real) and the
k = 0 slice is kept real. Operators accept the batch axes, which lets the
preconditioner build apply the tangent to a whole chunk of probe
directions at once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EvalDomainError, HopfwaveError, JacobianSingular, NoConvergence
from .exprlang import Expr
from .model import (_UVARS, LinearizedCoeffs, ProblemSpec, antiderivative_tables,
                    displacement, linearize)
from .quadrature import cumulative_integral, integral


# ---------------------------------------------------------------------------
# Fourier synthesis and analysis: the one path for every operator

def harmonic_synthesis(hats, times):
    """Real values at the given times of harmonics 0..N held on axis -2.

    hats: (..., N+1, X) complex; returns (..., len(times), X). Negative
    harmonics are the conjugates, so k >= 1 carries weight 2. Computed as
    one real product [w cos(kt), -w sin(kt)] @ [Re hat; Im hat].
    """
    ks = np.arange(hats.shape[-2])
    w = np.where(ks == 0, 1.0, 2.0)
    arg = np.outer(times, ks)
    basis = np.concatenate([w * np.cos(arg), -w * np.sin(arg)], axis=1)
    return basis @ np.concatenate([hats.real, hats.imag], axis=-2)


def harmonic_analysis(values, N):
    """Harmonics 0..N of equispaced samples over one period on axis -2.

    values: (..., T, X) real with T >= 2N+1; content above T-N-1 aliases,
    so callers supply enough samples for their nonlinearity degree. The
    k = 0 harmonic comes back real.
    """
    T = values.shape[-2]
    arg = np.outer(np.arange(N + 1), 2.0 * np.pi * np.arange(T) / T)
    parts = (np.concatenate([np.cos(arg), -np.sin(arg)]) / T) @ values
    coef = parts[..., :N + 1, :] + 1j * parts[..., N + 1:, :]
    coef[..., 0, :] = coef[..., 0, :].real
    return coef


def _collocation_times(N):
    T = 4 * N + 1
    return 2.0 * np.pi * np.arange(T) / T


# ---------------------------------------------------------------------------
# coefficient arrays: symmetry and the real packing of the Newton unknowns

def enforce_symmetry(coef):
    """Make the k = 0 slice real in place; returns coef."""
    coef[..., 0, :, :] = coef[..., 0, :, :].real
    return coef


# packing order: Re v_0, then Re v_k, Im v_k for k = 1..N, each block
# (component, node); the always-zero Im v_0 block is dropped
def flatten(coef):
    parts = np.stack([coef.real, coef.imag], axis=-3)
    flat = parts.reshape(parts.shape[:-4] + (-1,))
    blk = 2 * coef.shape[-1]
    return np.concatenate([flat[..., :blk], flat[..., 2 * blk:]], axis=-1)


def unflatten(vec, N, M):
    vec = np.asarray(vec)
    lead = vec.shape[:-1]
    blk = 2 * (M + 1)
    parts = np.concatenate([vec[..., :blk], np.zeros(lead + (blk,)),
                            vec[..., blk:]], axis=-1)
    parts = parts.reshape(lead + (N + 1, 2, 2, M + 1))
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


# ---------------------------------------------------------------------------
# operator context: everything apply_* needs at a fixed lambda

@dataclass(frozen=True)
class OperatorContext:
    spec: ProblemSpec
    coeffs: LinearizedCoeffs
    lam: float
    x: np.ndarray
    h: float
    a: np.ndarray
    ax: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    F: np.ndarray      # antiderivative of 1/a on nodes
    E1: np.ndarray     # exp of antiderivative of b1/a
    E2: np.ndarray
    b_u: tuple[Expr, ...]   # exact partials of b in u1..u4, for the tangent


def operator_context(spec: ProblemSpec, lam: float, M: int) -> OperatorContext:
    coeffs = linearize(spec, lam, M)
    F, logE1, logE2 = (t[::2] for t in antiderivative_tables(coeffs))
    return OperatorContext(
        spec=spec, coeffs=coeffs, lam=float(lam),
        x=coeffs.x, h=coeffs.h,
        a=coeffs.nodes("a"), ax=coeffs.nodes("ax"),
        b1=coeffs.nodes("b1"), b2=coeffs.nodes("b2"),
        F=F, E1=np.exp(logE1), E2=np.exp(logE2),
        b_u=tuple(spec.b.diff(u) for u in _UVARS))


def apply_C(v: np.ndarray, omega: float, ctx: OperatorContext) -> np.ndarray:
    """Boundary-transport part: values carried along characteristics from
    the opposite edge, with per-harmonic phase factors for the time shift."""
    ks = np.arange(v.shape[-3])[:, None]
    phase = np.exp(1j * omega * ks * ctx.F)                  # e^{ik w F(x)}
    out = np.empty_like(v)
    out[..., 0, :] = -(1.0 / ctx.E1) * phase * v[..., 1, 0][..., None]
    tail_phase = np.exp(-1j * omega * ks * (ctx.F - ctx.F[-1]))
    out[..., 1, :] = (ctx.E2 / ctx.E2[-1]) * tail_phase * v[..., 0, -1][..., None]
    return enforce_symmetry(out)


def apply_D(f: np.ndarray, omega: float, ctx: OperatorContext) -> np.ndarray:
    """Interior-transport part: characteristic integrals of a source field.

    The kernels factorize (c's are ratios of one antiderivative table, the
    shift phases split likewise), so each harmonic costs one cumulative
    quadrature per component. Both components carry a minus sign: it drops
    out of the telescoping along either characteristic family, and the
    critical mode is a fixed point of C + D(J+K) only with this sign
    (enforced by the kernel tests).
    """
    ks = np.arange(f.shape[-3])[:, None]
    ph = np.exp(1j * omega * ks * ctx.F)                     # (N+1, M+1)
    g1 = ctx.E1 / ph * f[..., 0, :] / ctx.a
    cum1 = cumulative_integral(g1, ctx.h)
    out = np.empty_like(f)
    out[..., 0, :] = -(ph / ctx.E1) * cum1
    g2 = ph / ctx.E2 * f[..., 1, :] / ctx.a
    cum2 = cumulative_integral(g2, ctx.h)
    out[..., 1, :] = -(ctx.E2 / ph) * (cum2[..., -1][..., None] - cum2)
    return enforce_symmetry(out)


def _transport_domega(v: np.ndarray, f: np.ndarray, omega: float,
                      ctx: OperatorContext) -> np.ndarray:
    """Coefficients of d/domega (C(omega) v + D(omega) f) at fixed v, f.

    Output component 0 (1) picks up e^{+-ik omega (F(x) - F(xi))} from its
    source point xi, so the derivative is the commutator
    ik s_c [F (Cv + Df) - C(F v) - D(F f)] with s = (+1, -1).
    """
    Tv = apply_C(v, omega, ctx) + apply_D(f, omega, ctx)
    TF = apply_C(v * ctx.F, omega, ctx) + apply_D(f * ctx.F, omega, ctx)
    iks = 1j * np.arange(v.shape[-3])[:, None, None] * np.array([1.0, -1.0])[:, None]
    return iks * (ctx.F * Tv - TF)


def _displacement(coef, ctx: OperatorContext):
    """Harmonics of u, shape (..., N+1, M+1)."""
    return displacement(coef[..., 0, :] - coef[..., 1, :], ctx.a, ctx.h)


def _delay_phase(N, omega, tau):
    """e^{-ik omega tau}: the delay u(t - tau) on harmonic k, shape (N+1, 1)."""
    return np.exp(-1j * omega * tau * np.arange(N + 1))[:, None]


def _collocate(coef, omega, tau, ctx: OperatorContext):
    """v1, v2 and the arguments u1..u4 of b on the 4N+1 collocation times.

    The displacement harmonics come from one cumulative x-quadrature, the
    delay is a phase factor on them, and all four fields are synthesized
    together. Returns (v1, v2, (u1, u2, u3, u4)), each (..., 4N+1, M+1).
    """
    N = coef.shape[-3] - 1
    J = _displacement(coef, ctx)
    hats = np.stack([coef[..., 0, :], coef[..., 1, :], J,
                     J * _delay_phase(N, omega, tau)], axis=-2)
    vals = harmonic_synthesis(hats.reshape(hats.shape[:-2] + (-1,)),
                              _collocation_times(N))
    vals = vals.reshape(vals.shape[:-1] + hats.shape[-2:])
    v1, v2, u1, u2 = (vals[..., j, :] for j in range(4))
    return v1, v2, (u1, u2, 0.5 * (v1 + v2), 0.5 * (v1 - v2) / ctx.a)


def _source(bvals, v1, v2, N, ctx: OperatorContext) -> np.ndarray:
    """Harmonics of the source (b - a_x (v1 - v2)/2 - b_j v_j)_j from values
    on the collocation times; linear in (bvals, v1, v2)."""
    Bfull = bvals - 0.5 * ctx.ax * (v1 - v2)
    vals = np.stack([Bfull - ctx.b1 * v1, Bfull - ctx.b2 * v2], axis=-2)
    coef = harmonic_analysis(vals.reshape(vals.shape[:-2] + (-1,)), N)
    return coef.reshape(coef.shape[:-1] + vals.shape[-2:])


def _b_env(u, ctx: OperatorContext):
    return {"x": ctx.x, "lambda": ctx.lam, **dict(zip(_UVARS, u))}


def apply_B(v: np.ndarray, omega: float, tau: float,
            ctx: OperatorContext) -> np.ndarray:
    """Full nonlinear source, pseudo-spectral with a cubic de-aliasing margin.

    Steps: cumulative x-quadrature gives the displacement harmonics, the
    delay becomes a phase factor, all fields are synthesized on 4N+1
    times, the coefficient expression is evaluated pointwise, and the
    result is analyzed back to harmonics 0..N.
    """
    v1, v2, u = _collocate(v, omega, tau, ctx)
    return _source(ctx.spec.b.eval(_b_env(u, ctx)), v1, v2, v.shape[-3] - 1, ctx)


# ---------------------------------------------------------------------------
# orbits, constraints, Newton

@dataclass(frozen=True)
class NewtonStats:
    """Deterministic counts of one `newton_solve`."""

    iterations: int         # Newton steps
    matvecs: int            # tangent products inside GMRES
    halvings: int           # line-search step halvings
    rconds: tuple           # per-harmonic block rcond of each preconditioner built


@dataclass
class PeriodicOrbit:
    v: np.ndarray       # harmonics, (N+1, 2, M+1) complex as in the module docstring
    omega: float
    tau: float
    eps: float
    lam: float
    residual_norm: float = np.inf
    stats: NewtonStats | None = None    # set on the orbits newton_solve returns


@dataclass(frozen=True)
class ModeBasis:
    """Critical-mode data pinned to the solve grid: the first-harmonic
    profile v0(x) used by the amplitude and phase constraints."""

    v0: np.ndarray      # (2, M+1) complex
    nrm: float          # <v0^1, v0^1> = int sum|v0_j|^2 dx / 2
    tau0: float

    def projection(self, v: np.ndarray, h):
        """int sum_j v^1_j conj(v0_j) dx, one complex value per batch entry."""
        return integral(np.sum(v[..., 1, :, :] * np.conj(self.v0), axis=-2), h)


def mode_basis(cert, ctx: OperatorContext) -> ModeBasis:
    """Interpolate the certificate eigenfunction u0 onto the solve grid.

    The certificate grid must be a refinement of the solve grid (node sets
    nest when M_cert is a multiple of M_solve).
    """
    Mc, Ms = cert.coeffs.M, ctx.coeffs.M
    if Mc % Ms != 0:
        raise ValueError("certificate grid must refine the solve grid")
    stride = Mc // Ms
    u0 = cert.u0[::stride]
    u0p = cert.u0_prime[::stride]
    a = cert.coeffs.nodes("a")[::stride]
    v0 = np.stack([1j * u0 + a * u0p, 1j * u0 - a * u0p])
    nrm = 0.5 * float(integral(np.sum(np.abs(v0) ** 2, axis=0), ctx.h))
    return ModeBasis(v0=v0, nrm=nrm, tau0=cert.tau0)


def predictor(cert, eps, N, ctx: OperatorContext) -> PeriodicOrbit:
    """Tangent-space initial guess: pure first harmonic along the critical
    mode at amplitude eps, with omega = 1 and tau at the critical delay."""
    basis = mode_basis(cert, ctx)
    v = np.zeros((N + 1, 2, ctx.coeffs.M + 1), dtype=complex)
    v[1] = 0.5 * eps * basis.v0
    return PeriodicOrbit(v=v, omega=1.0, tau=basis.tau0, eps=eps, lam=ctx.lam)


def _defect(v: np.ndarray, f: np.ndarray, omega, ctx) -> np.ndarray:
    """Packed v - C v - D f (the fixed-point rows, batch-aware)."""
    return flatten(v - apply_C(v, omega, ctx) - apply_D(f, omega, ctx))


def residual(orbit: PeriodicOrbit, ctx: OperatorContext,
             basis: ModeBasis) -> np.ndarray:
    """Stacked fixed-point residual plus the amplitude and phase rows."""
    v = orbit.v
    Bv = apply_B(v, orbit.omega, orbit.tau, ctx)
    proj = basis.projection(v, ctx.h)
    rows = np.array([proj.real / basis.nrm - orbit.eps,
                     proj.imag / basis.nrm])
    return np.concatenate([_defect(v, Bv, orbit.omega, ctx), rows])


def _tangent(orbit: PeriodicOrbit, ctx: OperatorContext, basis: ModeBasis,
             harmonic_diagonal: bool = False):
    """Exact derivative of `residual` at orbit, as a map on packed
    directions of shape (..., n), in the residual's own packing.

    The harmonic part applies I - C - D dB, with dB the linearization of
    apply_B from the exact partials b_{u_j} on the same collocation grid;
    the amplitude and phase rows are linear. Two fixed columns carry the
    analytic (omega, tau) derivatives of the phase factors.

    With harmonic_diagonal, dB uses the time averages of the partials,
    which map each harmonic to itself: the harmonic part is then
    block-diagonal over harmonics, and the (omega, tau) columns stay
    exact. At v = 0 the partials are constant in time and the two agree.
    """
    v, omega, tau = orbit.v, orbit.omega, orbit.tau
    N, M = v.shape[0] - 1, v.shape[2] - 1
    v1, v2, u = _collocate(v, omega, tau, ctx)
    env = _b_env(u, ctx)
    partials = [d.eval(env) for d in ctx.b_u]

    # (omega, tau) enter B only through the delayed argument u2, whose
    # harmonics carry e^{-ik omega tau}; omega also moves C and D
    Bv = _source(ctx.spec.b.eval(env), v1, v2, N, ctx)
    dJdel = (-1j * np.arange(N + 1)[:, None] * _displacement(v, ctx)
             * _delay_phase(N, omega, tau) * np.array([tau, omega])[:, None, None])
    du2 = harmonic_synthesis(dJdel, _collocation_times(N))
    dB = _source(partials[1] * du2, 0.0, 0.0, N, ctx)
    dT = apply_D(dB, omega, ctx)
    dT[0] += _transport_domega(v, Bv, omega, ctx)
    omega_tau = np.concatenate([-flatten(dT), np.zeros((2, 2))], axis=-1)
    if harmonic_diagonal:
        partials = [p.mean(axis=-2) if np.ndim(p) == 2 else p for p in partials]

    def apply(dz):
        dv = unflatten(dz[..., :-2], N, M)
        dv1, dv2, du = _collocate(dv, omega, tau, ctx)
        dBv = _source(sum(p * d for p, d in zip(partials, du)), dv1, dv2, N, ctx)
        proj = basis.projection(dv, ctx.h) / basis.nrm
        rows = np.stack([proj.real, proj.imag], axis=-1)
        return (np.concatenate([_defect(dv, dBv, omega, ctx), rows], axis=-1)
                + dz[..., -2:] @ omega_tau)

    return apply


RANK_RCOND = 1e-12      # smallest accepted reciprocal condition of a block
TOL_ORBIT = 1e-9        # residual a converged orbit must reach
GMRES_RTOL = 1e-12      # relative residual of each Newton step's linear solve
GMRES_MAX = 80          # tangent products per solve before a rebuild


def _harmonic_slices(N, M):
    """Packed rows (and columns) of harmonics 0..N: 2(M+1) real entries for
    k = 0, 4(M+1) for each k >= 1 (real part, then imaginary part)."""
    m = 2 * (M + 1)
    return [slice(0, m)] + [slice((2 * k - 1) * m, (2 * k + 1) * m)
                            for k in range(1, N + 1)]


@dataclass(frozen=True)
class BlockPreconditioner:
    """Inverse of the harmonic-diagonal Newton matrix that
    `block_preconditioner` builds, applied by `matvec` (`gmres`'s precond)."""

    inv0: np.ndarray        # k = 0 block inverse, 2(M+1) square
    inv1: np.ndarray        # bordered k = 1 block inverse, 4(M+1) + 2 square
    inv_rest: np.ndarray    # k = 2..N block inverses, (N-1, 4(M+1), 4(M+1))
    omega_tau: np.ndarray   # (2, n) exact (omega, tau) columns at the build point
    rcond: np.ndarray       # exact reciprocal 1-norm condition per harmonic block

    def matvec(self, r):
        """Solve the bordered k = 1 block for (x_1, omega, tau), then every
        other harmonic with those (omega, tau) columns moved to the right."""
        m = len(self.inv0)
        y = self.inv1 @ np.concatenate([r[m:3 * m], r[-2:]])
        rest = r[:-2] - y[-2:] @ self.omega_tau[:, :-2]
        x = np.empty(len(r))
        x[:m] = self.inv0 @ rest[:m]
        x[m:3 * m], x[-2:] = y[:-2], y[-2:]
        x[3 * m:-2] = (self.inv_rest @ rest[3 * m:].reshape(-1, 2 * m, 1)).ravel()
        return x


def block_preconditioner(orbit: PeriodicOrbit, ctx: OperatorContext,
                         basis: ModeBasis) -> BlockPreconditioner:
    """The Newton preconditioner: the exact inverse of the harmonic-diagonal
    tangent at orbit (`_tangent` with harmonic_diagonal), block by block.

    That tangent maps each harmonic to itself: one 2(M+1) block for k = 0
    and one 4(M+1) block for each k >= 1; at v = 0 it is the exact tangent.
    A probe with a unit at the same local index in every harmonic therefore
    yields a column of every block at once; the probes go through the
    tangent in chunks of M+1. The k = 1 block is singular at the Hopf
    point, so it is bordered by the amplitude and phase rows and by the
    exact (omega, tau) columns at orbit (two more applications); the other
    harmonics meet those columns below the diagonal only, so the solve is
    block lower-triangular. In all, 4(M+1) + 2 directions per build.

    Each block is inverted by `numpy.linalg.inv`, and its reciprocal 1-norm
    condition 1 / (|A|_1 |A^-1|_1) is computed exactly from that inverse.
    A zero pivot or a condition below RANK_RCOND (a NaN or overflowed
    inverse included) raises JacobianSingular naming the harmonics: the
    bordered k = 1 block means a failed certificate, any other k a
    resonance at ik.
    """
    N, M = orbit.v.shape[0] - 1, orbit.v.shape[2] - 1
    n = len(_pack(orbit))
    slices = _harmonic_slices(N, M)
    sizes = [s.stop - s.start for s in slices]
    tangent = _tangent(orbit, ctx, basis, harmonic_diagonal=True)
    omega_tau = tangent(np.eye(2, n, n - 2))
    blocks = [np.empty((m, m)) for m in sizes]
    blocks[1] = np.zeros((sizes[1] + 2,) * 2)
    blocks[1][:-2, -2:] = omega_tau[:, slices[1]].T
    width = M + 1
    for j0 in range(0, sizes[1], width):
        live = [k for k in range(N + 1) if sizes[k] > j0]
        probe = np.zeros((width, n))
        for k in live:
            probe[:, slices[k].start + j0:slices[k].start + j0 + width] = np.eye(width)
        out = tangent(probe)
        for k in live:
            blocks[k][:sizes[k], j0:j0 + width] = out[:, slices[k]].T
        blocks[1][-2:, j0:j0 + width] = out[:, -2:].T
    inverses, rcond = [], np.zeros(N + 1)
    for k, blk in enumerate(blocks):
        try:
            inverses.append(np.linalg.inv(blk))
        except np.linalg.LinAlgError:
            continue        # an exactly zero pivot: rcond[k] stays 0
        rcond[k] = 1.0 / (np.linalg.norm(blk, 1) * np.linalg.norm(inverses[-1], 1))
    bad = [k for k in range(N + 1) if not rcond[k] >= RANK_RCOND]
    if bad:
        raise JacobianSingular(
            f"Newton matrix singular, block reciprocal condition below "
            f"{RANK_RCOND:.0e}: " + "; ".join(
                f"harmonic {k} ({rcond[k]:.2e}, "
                + ("failed certificate" if k == 1 else f"resonance at {k}i") + ")"
                for k in bad))
    return BlockPreconditioner(
        inv0=inverses[0], inv1=inverses[1],
        inv_rest=np.reshape(inverses[2:], (N - 1, sizes[1], sizes[1])),
        omega_tau=omega_tau, rcond=rcond)


def gmres(apply, b, precond, rtol, max_products):
    """Solve apply(x) = b by GMRES from x = 0, right-preconditioned by
    precond.matvec and never restarted (Saad & Schultz 1986): modified
    Gram-Schmidt Arnoldi, then a least-squares solve of the Hessenberg
    system after each product. Stops once that residual is at most
    rtol |b|, on breakdown, or after max_products products. Returns
    (x, converged, products); b = 0 costs no product.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros(len(b)), True, 0
    V = [b / beta]
    H = np.zeros((max_products + 1, max_products))
    e1 = beta * np.eye(1, max_products + 1)[0]
    for j in range(max_products):
        w = apply(precond.matvec(V[j]))
        for i in range(j + 1):
            H[i, j] = w @ V[i]
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        y = np.linalg.lstsq(H[:j + 2, :j + 1], e1[:j + 2], rcond=None)[0]
        converged = np.linalg.norm(H[:j + 2, :j + 1] @ y - e1[:j + 2]) <= rtol * beta
        if converged or H[j + 1, j] == 0.0:
            break
        V.append(w / H[j + 1, j])
    return precond.matvec(y @ V[:j + 1]), bool(converged), j + 1


def _pack(orbit):
    return np.concatenate([flatten(orbit.v), [orbit.omega, orbit.tau]])


def _unpack(z, N, M, eps, lam):
    return PeriodicOrbit(v=unflatten(z[:-2], N, M), omega=float(z[-2]),
                         tau=float(z[-1]), eps=eps, lam=lam)


def newton_solve(guess: PeriodicOrbit, eps: float, ctx: OperatorContext,
                 basis: ModeBasis, max_iter: int = 30,
                 precond=None) -> PeriodicOrbit:
    """Damped Newton-Krylov on the exact tangent, iterated to roundoff.

    Each step solves the `_tangent` system by `gmres`, preconditioned by
    `precond`, a `block_preconditioner` (built at the guess if not given,
    rebuilt at the current point if GMRES fails above TOL_ORBIT). A trial
    step on which b leaves its domain fails and is halved. The solve stops
    when a full step no longer lowers a residual at or below TOL_ORBIT;
    otherwise NoConvergence names the line search or the iteration limit.
    Unknowns are the harmonics plus (omega, tau). The returned orbit's
    `stats` count the iterations, tangent products, halvings and builds.
    """
    N, M = guess.v.shape[0] - 1, guess.v.shape[2] - 1
    z = _pack(replace(guess, eps=eps))

    def orbit_at(zv):
        return _unpack(zv, N, M, eps, ctx.lam)

    def res(zv):
        return residual(orbit_at(zv), ctx, basis)

    r = res(z)
    rn = float(np.max(np.abs(r)))
    rconds = []
    n_iter = matvecs = halvings = 0

    def build():
        nonlocal precond
        precond = block_preconditioner(orbit_at(z), ctx, basis)
        rconds.append(precond.rcond)

    if precond is None and (eps != 0.0 or np.any(guess.v)):
        # the condition check doubles as the local-uniqueness certificate;
        # only at the trivial orbit, the bifurcation point itself, is the
        # Newton matrix legitimately singular
        build()
    limit = f"iteration limit {max_iter}"
    while n_iter < max_iter:
        n_iter += 1
        tangent = _tangent(orbit_at(z), ctx, basis)
        for attempt in range(2):
            step, converged, products = gmres(tangent, -r, precond,
                                              GMRES_RTOL, GMRES_MAX)
            matvecs += products
            # at the roundoff floor GMRES may miss its relative target
            # although the step is as good as the residual allows
            if converged or attempt or rn <= TOL_ORBIT:
                break
            build()
        for i, t in enumerate(0.5 ** np.arange(12)):
            try:
                r_new = res(z + t * step)
                rn_new = float(np.max(np.abs(r_new)))
            except EvalDomainError:
                rn_new = np.inf     # b is not finite there: a failed trial
            if rn_new < rn or rn <= TOL_ORBIT:
                break
        halvings += i
        if not rn_new < rn:
            limit = "line search"
            break
        z, r, rn = z + t * step, r_new, rn_new
    if rn > TOL_ORBIT:
        raise NoConvergence(
            f"orbit residual {rn:.3e} above {TOL_ORBIT:.1e}: stopped by "
            f"the {limit} after {n_iter} iterations and {len(rconds)} "
            f"preconditioner builds", last_good=None)
    out = orbit_at(z)
    out.residual_norm = rn
    out.stats = NewtonStats(iterations=n_iter, matvecs=matvecs,
                            halvings=halvings, rconds=tuple(rconds))
    return out


@dataclass
class BranchResult:
    orbits: list
    fit_tau_curvature: float
    fit_tau_slope: float
    fit_omega_curvature: float
    fit_omega_slope: float
    rconds: list            # per-harmonic block rcond of every preconditioner built


def _fit_slope_curvature(eps, values, base):
    """Least squares of value - base = s*eps + (c/2)*eps^2 on given points."""
    eps = np.asarray(eps, dtype=float)
    A = np.vstack([eps, eps ** 2 / 2.0]).T
    sol, *_ = np.linalg.lstsq(A, np.asarray(values) - base, rcond=None)
    return float(sol[1]), float(sol[0])


def continue_branch(cert, eps_grid, ctx: OperatorContext, N: int,
                    max_iter: int = 30) -> BranchResult:
    """March the orbit family over increasing eps, Newton from the previous
    point, then fit the delay and frequency laws on the three smallest eps.

    One `block_preconditioner`, condition-checked at the first predictor,
    preconditions every solve; `rconds` lists its block conditions and
    those of any rebuild inside a solve. A solver error carries the last
    good amplitude as `last_good`.
    """
    eps_grid = list(eps_grid)
    if len(eps_grid) < 3 or any(e <= 0 for e in eps_grid) \
            or any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be at least 3 increasing positive values")
    basis = mode_basis(cert, ctx)
    orbits = []
    guess = predictor(cert, eps_grid[0], N, ctx)
    try:
        precond = block_preconditioner(guess, ctx, basis)
        for eps in eps_grid:
            guess = newton_solve(guess, eps, ctx, basis, max_iter, precond)
            orbits.append(guess)
    except HopfwaveError as err:
        err.last_good = orbits[-1].eps if orbits else None
        raise
    smallest = orbits[:3]
    taus = [o.tau for o in smallest]
    omegas = [o.omega for o in smallest]
    epss = [o.eps for o in smallest]
    if ctx.lam == 0.0:
        tau_c, tau_s = _fit_slope_curvature(epss, taus, cert.tau0)
        om_c, om_s = _fit_slope_curvature(epss, omegas, 1.0)
    else:
        # the branch root moves with lambda: include a free intercept
        A = np.vstack([np.ones(3), epss, np.square(epss) / 2.0]).T
        tsol = np.linalg.solve(A, np.array(taus))
        osol = np.linalg.solve(A, np.array(omegas))
        tau_s, tau_c = float(tsol[1]), float(tsol[2])
        om_s, om_c = float(osol[1]), float(osol[2])
    return BranchResult(orbits=orbits, fit_tau_curvature=tau_c,
                        fit_tau_slope=tau_s, fit_omega_curvature=om_c,
                        fit_omega_slope=om_s,
                        rconds=[precond.rcond] + [r for o in orbits
                                                  for r in o.stats.rconds])


# ---------------------------------------------------------------------------
# verification in the original variables

def pde_residual_check(orbit: PeriodicOrbit, ctx: OperatorContext) -> float:
    """Max-norm of the second-order equation on interior collocation points.

    u is the characteristic integral of (v1 - v2) / (2a). Time derivatives
    and the delay are spectral in its harmonics; space derivatives use
    centered 4th-order differences, making this check independent of the
    characteristic formulation.
    """
    N = orbit.v.shape[0] - 1
    times = _collocation_times(N)
    u_hat = _displacement(orbit.v, ctx)
    ks = np.arange(N + 1)[:, None]
    u = harmonic_synthesis(u_hat, times)
    u_tt = harmonic_synthesis(-(ks ** 2) * u_hat, times)
    u_del = harmonic_synthesis(
        _delay_phase(N, orbit.omega, orbit.tau) * u_hat, times)
    u_t = harmonic_synthesis(1j * ks * u_hat, times)
    h = ctx.h
    u_x = (-u[:, 4:] + 8 * u[:, 3:-1] - 8 * u[:, 1:-3] + u[:, :-4]) / (12 * h)
    u_xx = (-u[:, 4:] + 16 * u[:, 3:-1] - 30 * u[:, 2:-2]
            + 16 * u[:, 1:-3] - u[:, :-4]) / (12 * h * h)
    sl = slice(2, u.shape[1] - 2)
    env = {"x": ctx.x[None, sl], "lambda": ctx.lam,
           "u1": u[:, sl], "u2": u_del[:, sl],
           "u3": orbit.omega * u_t[:, sl], "u4": u_x}
    bvals = np.broadcast_to(ctx.spec.b.eval(env), u_xx.shape)
    res = (orbit.omega ** 2 * u_tt[:, sl]
           - ctx.a[None, sl] ** 2 * u_xx - bvals)
    return float(np.max(np.abs(res)))
