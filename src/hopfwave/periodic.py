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
by a block build kept until GMRES fails. With the partials of b averaged
over time (exact at v = 0) the derivative maps each harmonic to itself and
is applied in harmonic space; only k = 1 is singular at the Hopf point,
bordered by the amplitude and phase rows and the (omega, tau) columns as in
the Lyapunov-Schmidt reduction. Both maps, and the preconditioner built on
the second, come from one `_linearization` per Newton iteration. No dense
matrix of the system is formed.

A field v(t, x) = sum_k vhat_k(x) e^{ikt} is a plain complex array of
shape (..., len(ks), 2, M+1): optional batch axes, the harmonics ks,
component, node. ks is an increasing integer array, every harmonic 0..N
or the odd ones below, and every function that takes a field is given its
ks explicitly. Negative harmonics are the conjugates (the field is real),
and a k = 0 slice is real by construction and packed without its imaginary
part. When b is odd in (u1..u4), v(t + pi) = -v(t) is a symmetry of the
whole system (Golubitsky, Stewart & Schaeffer, Singularities and Groups in
Bifurcation Theory II, 1988), so Newton carries only ks = 1, 3, ..., <= N
and the orbits it returns hold exact zeros on the even harmonics. Operators
accept batch axes, so the preconditioner build probes M+1 directions at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalDomainError, HopfwaveError, JacobianSingular, NoConvergence
from .exprlang import Expr
from .model import (LinearizedCoeffs, ProblemSpec, antiderivative_tables, b_env,
                    b_samples, displacement, linearize)
from .quadrature import cumulative_integral, integral


# ---------------------------------------------------------------------------
# Fourier synthesis and analysis: the one path for every operator

def harmonic_synthesis(hats, times, ks):
    """Real values at the given times of the harmonics ks held on axis -2.

    hats: (..., len(ks), X) complex; returns (..., len(times), X). Negative
    harmonics are the conjugates, so k >= 1 carries weight 2. Computed as
    one real product [w cos(kt), -w sin(kt)] @ [Re hat; Im hat].
    """
    w = np.where(ks == 0, 1.0, 2.0)
    arg = np.outer(times, ks)
    basis = np.concatenate([w * np.cos(arg), -w * np.sin(arg)], axis=1)
    return basis @ np.concatenate([hats.real, hats.imag], axis=-2)


def harmonic_analysis(values, ks):
    """Harmonics ks of equispaced samples over one period on axis -2.

    values: (..., T, X) real with T >= 2 max(ks) + 1; content above
    T - max(ks) - 1 aliases, so callers supply enough samples for their
    nonlinearity degree. A k = 0 harmonic comes back real (its sine row is
    zero).
    """
    T, n = values.shape[-2], len(ks)
    arg = np.outer(ks, 2.0 * np.pi * np.arange(T) / T)
    parts = (np.concatenate([np.cos(arg), -np.sin(arg)]) / T) @ values
    return parts[..., :n, :] + 1j * parts[..., n:, :]


def _collocation_times(ks):
    """4N+1 equispaced times, N the highest harmonic in ks: cubic products
    of the harmonics ks are analyzed back without aliasing."""
    T = 4 * int(ks[-1]) + 1
    return 2.0 * np.pi * np.arange(T) / T


# ---------------------------------------------------------------------------
# coefficient arrays: the real packing of the Newton unknowns

# packing order: Re v_k, Im v_k for each k in ks, each block (component,
# node); Im v_0 is dropped when ks starts at 0, and unflatten zeroes it
def flatten(coef, ks):
    parts = np.stack([coef.real, coef.imag], axis=-3)
    flat = parts.reshape(parts.shape[:-4] + (-1,))
    if ks[0] != 0:
        return flat
    blk = 2 * coef.shape[-1]
    return np.concatenate([flat[..., :blk], flat[..., 2 * blk:]], axis=-1)


def unflatten(vec, ks, M):
    vec = np.asarray(vec)
    lead = vec.shape[:-1]
    blk = 2 * (M + 1)
    if ks[0] == 0:
        vec = np.concatenate([vec[..., :blk], np.zeros(lead + (blk,)),
                              vec[..., blk:]], axis=-1)
    parts = vec.reshape(lead + (len(ks), 2, 2, M + 1))
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
    odd: bool               # b odd in u1..u4 (`odd_in_u`): Newton on odd harmonics


def odd_in_u(b: Expr, lam: float) -> bool:
    """Sampled verdict that b(x, lam, -u) = -b(x, lam, u) to rounding.

    Like `direction.check_structure`, it samples rather than proves, on the
    points of `model.b_samples` at the fixed lam. A sample on which b is not
    finite (EvalDomainError) means "not odd"; the verdict never raises. A
    wrong "odd" costs `newton_solve` time, never correctness.
    """
    xs, us = b_samples()
    try:
        plus, minus = b.eval(b_env(xs, lam, us)), b.eval(b_env(xs, lam, -us))
    except EvalDomainError:
        return False
    return bool(np.max(np.abs(plus + minus)) <= 1e-12 * np.max(np.abs(plus)))


def operator_context(spec: ProblemSpec, lam: float, M: int) -> OperatorContext:
    coeffs = linearize(spec, lam, M)
    F, logE1, logE2 = (t[::2] for t in antiderivative_tables(coeffs))
    return OperatorContext(
        spec=spec, coeffs=coeffs, lam=float(lam),
        x=coeffs.x, h=coeffs.h,
        a=coeffs.nodes("a"), ax=coeffs.nodes("ax"),
        b1=coeffs.nodes("b1"), b2=coeffs.nodes("b2"),
        F=F, E1=np.exp(logE1), E2=np.exp(logE2), odd=odd_in_u(spec.b, lam))


def apply_C(v: np.ndarray, omega: float, ctx: OperatorContext,
            ks) -> np.ndarray:
    """Boundary-transport part: values carried along characteristics from
    the opposite edge, with per-harmonic phase factors for the time shift."""
    ks = ks[:, None]
    phase = np.exp(1j * omega * ks * ctx.F)                  # e^{ik w F(x)}
    out = np.empty_like(v)
    out[..., 0, :] = -(1.0 / ctx.E1) * phase * v[..., 1, 0][..., None]
    tail_phase = np.exp(-1j * omega * ks * (ctx.F - ctx.F[-1]))
    out[..., 1, :] = (ctx.E2 / ctx.E2[-1]) * tail_phase * v[..., 0, -1][..., None]
    return out


def apply_D(f: np.ndarray, omega: float, ctx: OperatorContext,
            ks) -> np.ndarray:
    """Interior-transport part: characteristic integrals of a source field.

    The kernels factorize (c's are ratios of one antiderivative table, the
    shift phases split likewise), so each harmonic costs one cumulative
    quadrature per component. Both components carry a minus sign: it drops
    out of the telescoping along either characteristic family, and the
    critical mode is a fixed point of C + D(J+K) only with this sign
    (enforced by the kernel tests).
    """
    ks = ks[:, None]
    ph = np.exp(1j * omega * ks * ctx.F)                     # (N+1, M+1)
    g1 = ctx.E1 / ph * f[..., 0, :] / ctx.a
    cum1 = cumulative_integral(g1, ctx.h)
    out = np.empty_like(f)
    out[..., 0, :] = -(ph / ctx.E1) * cum1
    g2 = ph / ctx.E2 * f[..., 1, :] / ctx.a
    cum2 = cumulative_integral(g2, ctx.h)
    out[..., 1, :] = -(ctx.E2 / ph) * (cum2[..., -1][..., None] - cum2)
    return out


def _transport_domega(v: np.ndarray, f: np.ndarray, omega: float,
                      ctx: OperatorContext, ks) -> np.ndarray:
    """Coefficients of d/domega (C(omega) v + D(omega) f) at fixed v, f.

    Output component 0 (1) picks up e^{+-ik omega (F(x) - F(xi))} from its
    source point xi, so the derivative is the commutator
    ik s_c [F (Cv + Df) - C(F v) - D(F f)] with s = (+1, -1).
    """
    Tv = apply_C(v, omega, ctx, ks) + apply_D(f, omega, ctx, ks)
    TF = apply_C(v * ctx.F, omega, ctx, ks) + apply_D(f * ctx.F, omega, ctx, ks)
    iks = 1j * ks[:, None, None] * np.array([1.0, -1.0])[:, None]
    return iks * (ctx.F * Tv - TF)


def _displacement(coef, ctx: OperatorContext):
    """Harmonics of u, shape (..., len(ks), M+1)."""
    return displacement(coef[..., 0, :] - coef[..., 1, :], ctx.a, ctx.h)


def _delay_phase(ks, omega, tau):
    """e^{-ik omega tau}: the delay u(t - tau) on harmonic k, shape (len(ks), 1)."""
    return np.exp(-1j * omega * tau * ks)[:, None]


def _collocate(coef, omega, tau, ctx: OperatorContext, ks):
    """v1, v2 and the arguments u1..u4 of b on the 4N+1 collocation times.

    The displacement harmonics come from one cumulative x-quadrature, the
    delay is a phase factor on them, and all four fields are synthesized
    together. Returns (v1, v2, (u1, u2, u3, u4)), each (..., 4N+1, M+1).
    """
    J = _displacement(coef, ctx)
    hats = np.stack([coef[..., 0, :], coef[..., 1, :], J,
                     J * _delay_phase(ks, omega, tau)], axis=-2)
    vals = harmonic_synthesis(hats.reshape(hats.shape[:-2] + (-1,)),
                              _collocation_times(ks), ks)
    vals = vals.reshape(vals.shape[:-1] + hats.shape[-2:])
    v1, v2, u1, u2 = (vals[..., j, :] for j in range(4))
    return v1, v2, (u1, u2, 0.5 * (v1 + v2), 0.5 * (v1 - v2) / ctx.a)


def _source_values(bvals, v1, v2, ctx: OperatorContext) -> np.ndarray:
    """Source (b - a_x (v1 - v2)/2 - b_j v_j)_j on axis -2; pointwise in t or k."""
    Bfull = bvals - 0.5 * ctx.ax * (v1 - v2)
    return np.stack([Bfull - ctx.b1 * v1, Bfull - ctx.b2 * v2], axis=-2)


def _source(bvals, v1, v2, ks, ctx: OperatorContext) -> np.ndarray:
    """Harmonics ks of `_source_values` from values on the collocation times."""
    vals = _source_values(bvals, v1, v2, ctx)
    coef = harmonic_analysis(vals.reshape(vals.shape[:-2] + (-1,)), ks)
    return coef.reshape(coef.shape[:-1] + vals.shape[-2:])


def apply_B(v: np.ndarray, omega: float, tau: float,
            ctx: OperatorContext, ks) -> np.ndarray:
    """Full nonlinear source, pseudo-spectral with a cubic de-aliasing margin.

    Steps: cumulative x-quadrature gives the displacement harmonics, the
    delay becomes a phase factor, all fields are synthesized on 4N+1
    times, the coefficient expression is evaluated pointwise, and the
    result is analyzed back to the harmonics ks.
    """
    v1, v2, u = _collocate(v, omega, tau, ctx, ks)
    return _source(ctx.spec.b.eval(b_env(ctx.x, ctx.lam, u)), v1, v2, ks, ctx)


# ---------------------------------------------------------------------------
# orbits, constraints, Newton

@dataclass(frozen=True)
class NewtonStats:
    """Deterministic counts of one `newton_solve`, a rejected odd solve
    included in its iterations, matvecs, halvings and builds."""

    iterations: int         # Newton steps
    matvecs: int            # tangent products inside GMRES
    halvings: int           # line-search step halvings
    builds: int             # preconditioners built
    rconds: tuple           # each preconditioner the returned solve built:
                            # its block rconds, one per harmonic in ks
    stop: str               # why iteration stopped: "roundoff floor",
                            # "no decrease" or "iteration limit"
    ks: tuple               # the harmonics the solve carried: 1, 3, ..., <= N
                            # or 0..N


@dataclass
class PeriodicOrbit:
    """Harmonics, (omega, tau) and eps; `precond` starts the next solve."""

    v: np.ndarray       # harmonics, (N+1, 2, M+1) complex as in the module docstring
    omega: float
    tau: float
    eps: float
    lam: float
    residual_norm: float = np.inf
    stats: NewtonStats | None = None    # set on the orbits newton_solve returns
    precond: BlockPreconditioner | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ModeBasis:
    """Critical-mode data pinned to the solve grid: the first-harmonic
    profile v0(x) used by the amplitude and phase constraints."""

    v0: np.ndarray      # (2, M+1) complex
    nrm: float          # <v0^1, v0^1> = int sum|v0_j|^2 dx / 2
    tau0: float

    def projection(self, v: np.ndarray, h, ks):
        """int sum_j v^1_j conj(v0_j) dx, one complex value per batch entry;
        v holds the harmonics ks, among them k = 1."""
        v1 = v[..., int(ks[0] == 0), :, :]
        return integral(np.sum(v1 * np.conj(self.v0), axis=-2), h)


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


def predictor(basis: ModeBasis, eps, N, ctx: OperatorContext) -> PeriodicOrbit:
    """Tangent-space initial guess: pure first harmonic along the critical
    mode at amplitude eps, with omega = 1 and tau at the critical delay."""
    v = np.zeros((N + 1, 2, ctx.coeffs.M + 1), dtype=complex)
    v[1] = 0.5 * eps * basis.v0
    return PeriodicOrbit(v=v, omega=1.0, tau=basis.tau0, eps=eps, lam=ctx.lam)


def _defect(v: np.ndarray, f: np.ndarray, omega, ctx, ks) -> np.ndarray:
    """Packed v - C v - D f (the fixed-point rows, batch-aware)."""
    return flatten(v - apply_C(v, omega, ctx, ks) - apply_D(f, omega, ctx, ks), ks)


def residual(orbit: PeriodicOrbit, ctx: OperatorContext,
             basis: ModeBasis, ks) -> np.ndarray:
    """Stacked fixed-point residual plus the amplitude and phase rows, on
    the harmonics ks that orbit.v holds."""
    v = orbit.v
    Bv = apply_B(v, orbit.omega, orbit.tau, ctx, ks)
    proj = basis.projection(v, ctx.h, ks)
    rows = np.array([proj.real / basis.nrm - orbit.eps,
                     proj.imag / basis.nrm])
    return np.concatenate([_defect(v, Bv, orbit.omega, ctx, ks), rows])


def _linearization(orbit, ctx: OperatorContext, basis: ModeBasis, ks):
    """The derivative of `residual` at orbit on the harmonics ks of orbit.v,
    from one set-up, as (tangent, harmonic, omega_tau).

    Both maps take packed directions (..., n) to I - C - D dB on the
    harmonics ks, the amplitude and phase rows, plus the exact (omega, tau)
    columns omega_tau (2, n). tangent is exact: dB multiplies the partials
    b_{u_j} pointwise on the collocation times. harmonic replaces each
    partial p_j by its time mean and is applied in harmonic space: dB_k =
    p1 J_k + p2 e^{-ik omega tau} J_k + p3 (dv1_k + dv2_k)/2 + p4 (dv1_k -
    dv2_k)/(2a), J_k the displacement of dv1_k - dv2_k. It is
    block-diagonal over harmonics, and exact at v = 0 and in (omega, tau).
    """
    v, omega, tau = orbit.v, orbit.omega, orbit.tau
    v1, v2, u = _collocate(v, omega, tau, ctx, ks)
    env = b_env(ctx.x, ctx.lam, u)
    partials = [d.eval(env) for d in ctx.spec.partials.b_u]
    means = [p.mean(axis=-2) if np.ndim(p) == 2 else p for p in partials]
    # (omega, tau) enter B only through the delayed argument u2, whose
    # harmonics carry e^{-ik omega tau}; omega also moves C and D
    Bv = _source(ctx.spec.b.eval(env), v1, v2, ks, ctx)
    delay = _delay_phase(ks, omega, tau)
    dJdel = (-1j * ks[:, None] * _displacement(v, ctx) * delay
             * np.array([tau, omega])[:, None, None])
    du2 = harmonic_synthesis(dJdel, _collocation_times(ks), ks)
    dB = _source(partials[1] * du2, 0.0, 0.0, ks, ctx)
    dT = apply_D(dB, omega, ctx, ks)
    dT[0] += _transport_domega(v, Bv, omega, ctx, ks)
    omega_tau = np.concatenate([-flatten(dT, ks), np.zeros((2, 2))], axis=-1)

    def pointwise(dv):
        dv1, dv2, du = _collocate(dv, omega, tau, ctx, ks)
        return _source(sum(p * d for p, d in zip(partials, du)), dv1, dv2, ks, ctx)

    def averaged(dv):
        dv1, dv2, J = dv[..., 0, :], dv[..., 1, :], _displacement(dv, ctx)
        du = (J, J * delay, 0.5 * (dv1 + dv2), 0.5 * (dv1 - dv2) / ctx.a)
        return _source_values(sum(p * d for p, d in zip(means, du)), dv1, dv2, ctx)

    def linear_map(source):
        def apply(dz):
            dv = unflatten(dz[..., :-2], ks, v.shape[2] - 1)
            proj = basis.projection(dv, ctx.h, ks) / basis.nrm
            rows = np.stack([proj.real, proj.imag], axis=-1)
            return (np.concatenate([_defect(dv, source(dv), omega, ctx, ks),
                                    rows], axis=-1) + dz[..., -2:] @ omega_tau)
        return apply
    return linear_map(pointwise), linear_map(averaged), omega_tau


RANK_RCOND = 1e-12      # smallest accepted reciprocal condition of a block
TOL_ORBIT = 1e-9        # residual a converged orbit must reach
GMRES_RTOL = 1e-12      # relative residual of each Newton step's linear solve
GMRES_MAX = 80          # tangent products per solve before a rebuild


def _harmonic_slices(ks, M):
    """Packed rows (and columns) of the harmonics ks: 2(M+1) real entries
    for k = 0, 4(M+1) for each k >= 1 (real part, then imaginary part)."""
    m = 2 * (M + 1)
    sizes = [m if k == 0 else 2 * m for k in ks]
    return [slice(stop - size, stop)
            for size, stop in zip(sizes, np.cumsum(sizes).tolist())]


@dataclass(frozen=True)
class BlockPreconditioner:
    """Inverse of the harmonic-diagonal Newton matrix that
    `block_preconditioner` builds, applied by `matvec` (`gmres`'s precond)."""

    inv0: np.ndarray | None     # k = 0 block inverse, 2(M+1) square; None
                                # when the harmonics carried are odd
    inv1: np.ndarray        # bordered k = 1 block inverse, 4(M+1) + 2 square
    inv_rest: np.ndarray    # inverses of the blocks k > 1, (n, 4(M+1), 4(M+1))
    omega_tau: np.ndarray   # (2, n) exact (omega, tau) columns at the build point
    rcond: np.ndarray       # exact reciprocal 1-norm condition per harmonic block

    def matvec(self, r):
        """Solve the bordered k = 1 block for (x_1, omega, tau), then every
        other harmonic with those (omega, tau) columns moved to the right."""
        m0 = 0 if self.inv0 is None else len(self.inv0)
        m1 = m0 + len(self.inv1) - 2
        y = self.inv1 @ np.concatenate([r[m0:m1], r[-2:]])
        rest = r[:-2] - y[-2:] @ self.omega_tau[:, :-2]
        x = np.empty(len(r))
        if m0:
            x[:m0] = self.inv0 @ rest[:m0]
        x[m0:m1], x[-2:] = y[:-2], y[-2:]
        x[m1:-2] = (self.inv_rest @ rest[m1:].reshape(-1, m1 - m0, 1)).ravel()
        return x


def block_preconditioner(harmonic, omega_tau, ks, M) -> BlockPreconditioner:
    """The Newton preconditioner: the exact inverse, block by block, of
    harmonic, the harmonic-space map of a `_linearization` on the harmonics
    ks and M+1 nodes, with that set-up's (omega, tau) columns omega_tau.
    The build probes the map it is given and makes no set-up of its own.

    That map holds one 2(M+1) block for k = 0 and one 4(M+1) block for each
    k >= 1. A probe with a unit at the same local index in every harmonic
    yields a column of every block at once; the probes go through the map,
    with no Fourier synthesis or analysis, in chunks of M+1: 4(M+1)
    directions per build. The k = 1 block is singular at the Hopf point, so
    it is bordered by the amplitude and phase rows and the exact
    (omega, tau) columns; the other harmonics meet those columns below the
    diagonal only, so the solve is block lower-triangular.

    Each block is inverted by `numpy.linalg.inv`, and its reciprocal 1-norm
    condition 1 / (|A|_1 |A^-1|_1) is computed exactly from that inverse.
    A zero pivot or a condition below RANK_RCOND (a NaN or overflowed
    inverse included) raises JacobianSingular naming the harmonics: the
    bordered k = 1 block means a failed certificate, any other k a
    resonance at ik.
    """
    slices = _harmonic_slices(ks, M)
    n = slices[-1].stop + 2
    sizes = [s.stop - s.start for s in slices]
    i1 = int(ks[0] == 0)        # the position of k = 1 in ks
    blocks = [np.empty((m, m)) for m in sizes]
    blocks[i1] = np.zeros((sizes[i1] + 2,) * 2)
    blocks[i1][:-2, -2:] = omega_tau[:, slices[i1]].T
    width = M + 1
    for j0 in range(0, sizes[i1], width):
        live = [i for i, m in enumerate(sizes) if m > j0]
        probe = np.zeros((width, n))
        for i in live:
            probe[:, slices[i].start + j0:slices[i].start + j0 + width] = np.eye(width)
        out = harmonic(probe)
        for i in live:
            blocks[i][:sizes[i], j0:j0 + width] = out[:, slices[i]].T
        blocks[i1][-2:, j0:j0 + width] = out[:, -2:].T
    inverses, rcond = [], np.zeros(len(ks))
    for i, blk in enumerate(blocks):
        try:
            inverses.append(np.linalg.inv(blk))
        except np.linalg.LinAlgError:
            continue        # an exactly zero pivot: rcond[i] stays 0
        rcond[i] = 1.0 / (np.linalg.norm(blk, 1) * np.linalg.norm(inverses[-1], 1))
    bad = [(int(k), rc) for k, rc in zip(ks, rcond) if not rc >= RANK_RCOND]
    if bad:
        raise JacobianSingular(
            f"Newton matrix singular, block reciprocal condition below "
            f"{RANK_RCOND:.0e}: " + "; ".join(
                f"harmonic {k} ({rc:.2e}, "
                + ("failed certificate" if k == 1 else f"resonance at {k}i") + ")"
                for k, rc in bad))
    return BlockPreconditioner(
        inv0=inverses[0] if i1 else None, inv1=inverses[i1],
        inv_rest=np.reshape(inverses[i1 + 1:], (-1, sizes[i1], sizes[i1])),
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


def _pack(orbit, ks):
    return np.concatenate([flatten(orbit.v[ks], ks), [orbit.omega, orbit.tau]])


def _unpack(z, ks, M, eps, lam):
    return PeriodicOrbit(v=unflatten(z[:-2], ks, M), omega=float(z[-2]),
                         tau=float(z[-1]), eps=eps, lam=lam)


def harmonics(N, odd):
    """The harmonics Newton carries: 1, 3, ..., <= N for an odd b, else 0..N."""
    return np.arange(1, N + 1, 2) if odd else np.arange(N + 1)


def newton_solve(guess: PeriodicOrbit, ctx: OperatorContext,
                 basis: ModeBasis, max_iter: int = 30) -> PeriodicOrbit:
    """Damped Newton-Krylov at amplitude guess.eps, iterated to roundoff.

    Each iteration makes one `_linearization` at the current point and
    solves its exact tangent by `gmres`, preconditioned by guess.precond,
    or else by a `block_preconditioner` of its harmonic-space map built in
    the first iteration; GMRES failing above TOL_ORBIT rebuilds it from the
    same set-up. A trial step on which b leaves its domain fails and is
    halved. Once the residual is at or below TOL_ORBIT, steps are taken in
    full, and the solve stops at the roundoff floor: after the first step
    that lowers the residual by a smaller factor than the step before it
    did, or at a step that does not lower it at all. Above TOL_ORBIT, NoConvergence
    names the line search or the iteration limit.

    For an odd b (ctx.odd) Newton carries the odd harmonics only. The full
    system has the last word: the orbit, with exact zeros on the even
    harmonics, is accepted only if the full `residual` is at most
    TOL_ORBIT; otherwise the amplitude is solved again on all harmonics
    from the guess, with a preconditioner built there. A failure of the
    odd solve is final: from a symmetric guess the full iteration stays
    symmetric and would meet it too. The returned orbit holds all
    harmonics 0..N and the full residual_norm. It carries the last
    `precond`, and `stats` that count the iterations, tangent products,
    halvings and builds of both solves when the odd one was rejected. Its
    rconds, stop and ks are those of the solve the orbit came from.
    """
    N = guess.v.shape[0] - 1
    if not ctx.odd:
        return _newton(guess, harmonics(N, False), ctx, basis, max_iter)
    odd = _newton(guess, harmonics(N, True), ctx, basis, max_iter)
    if odd.residual_norm <= TOL_ORBIT:
        return odd
    orbit = _newton(replace(guess, precond=None), harmonics(N, False), ctx,
                    basis, max_iter)
    s, r = orbit.stats, odd.stats
    orbit.stats = replace(s, iterations=s.iterations + r.iterations,
                          matvecs=s.matvecs + r.matvecs,
                          halvings=s.halvings + r.halvings,
                          builds=s.builds + r.builds)
    return orbit


def _newton(guess: PeriodicOrbit, ks, ctx: OperatorContext,
            basis: ModeBasis, max_iter: int) -> PeriodicOrbit:
    """`newton_solve` on the harmonics ks of guess; harmonics outside ks
    are zero in the orbit it returns, whose residual_norm is that of the
    full system on 0..N and whose stats record ks."""
    N, M = guess.v.shape[0] - 1, guess.v.shape[2] - 1
    eps, precond = guess.eps, guess.precond
    z = _pack(guess, ks)

    def orbit_at(zv):
        return _unpack(zv, ks, M, eps, ctx.lam)

    def res(zv):
        return residual(orbit_at(zv), ctx, basis, ks)

    r = res(z)
    rn = float(np.max(np.abs(r)))
    rconds = []
    n_iter = matvecs = halvings = 0

    def build(harmonic, omega_tau):
        nonlocal precond
        precond = block_preconditioner(harmonic, omega_tau, ks, M)
        rconds.append(precond.rcond)

    stop = "iteration limit"
    contraction = np.inf    # rn_new / rn of the last accepted step
    while n_iter < max_iter:
        n_iter += 1
        tangent, harmonic, omega_tau = _linearization(orbit_at(z), ctx, basis, ks)
        if precond is None and (eps != 0.0 or np.any(guess.v)):
            # the condition check doubles as the local-uniqueness certificate;
            # only at the trivial orbit, the bifurcation point itself, is the
            # Newton matrix legitimately singular
            build(harmonic, omega_tau)
        for attempt in range(2):
            step, converged, products = gmres(tangent, -r, precond,
                                              GMRES_RTOL, GMRES_MAX)
            matvecs += products
            # at the roundoff floor GMRES may miss its relative target
            # although the step is as good as the residual allows
            if converged or attempt or rn <= TOL_ORBIT:
                break
            build(harmonic, omega_tau)
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
            stop = "no decrease" if rn <= TOL_ORBIT else "line search"
            break
        # quadratic convergence contracts each step more than the last; a
        # step from below TOL_ORBIT that does not has met the roundoff floor
        ratio = rn_new / rn
        at_floor = rn <= TOL_ORBIT and ratio >= contraction
        z, r, rn, contraction = z + t * step, r_new, rn_new, ratio
        if at_floor:
            stop = "roundoff floor"
            break
    if rn > TOL_ORBIT:
        limit = f"iteration limit {max_iter}" if stop == "iteration limit" else stop
        raise NoConvergence(
            f"orbit residual {rn:.3e} above {TOL_ORBIT:.1e}: stopped by "
            f"the {limit} after {n_iter} iterations and {len(rconds)} "
            f"preconditioner builds", last_good=None)
    out = orbit_at(z)
    if len(ks) < N + 1:
        v, out.v = out.v, np.zeros(guess.v.shape, dtype=complex)
        out.v[ks] = v
        rn = float(np.max(np.abs(residual(out, ctx, basis, np.arange(N + 1)))))
    out.residual_norm, out.precond = rn, precond
    out.stats = NewtonStats(iterations=n_iter, matvecs=matvecs,
                            halvings=halvings, builds=len(rconds),
                            rconds=tuple(rconds), stop=stop,
                            ks=tuple(ks.tolist()))
    return out


@dataclass
class BranchResult:
    orbits: list
    fit_tau_curvature: float
    fit_tau_slope: float
    fit_omega_curvature: float
    fit_omega_slope: float


def _fit_slope_curvature(eps, values, base):
    """Least squares of value - base = s*eps + (c/2)*eps^2 on given points,
    returning (c, s); base None fits a free intercept in its place."""
    eps = np.asarray(eps, dtype=float)
    cols = [eps, eps ** 2 / 2.0] + ([np.ones_like(eps)] if base is None else [])
    rhs = np.asarray(values) - (0.0 if base is None else base)
    sol, *_ = np.linalg.lstsq(np.vstack(cols).T, rhs, rcond=None)
    return float(sol[1]), float(sol[0])


def _secant(prev: PeriodicOrbit, last: PeriodicOrbit, eps) -> PeriodicOrbit:
    """Linear extrapolation in eps of v, omega and tau through two orbits."""
    s = (eps - last.eps) / (last.eps - prev.eps)
    return PeriodicOrbit(v=last.v + s * (last.v - prev.v),
                         omega=last.omega + s * (last.omega - prev.omega),
                         tau=last.tau + s * (last.tau - prev.tau),
                         eps=eps, lam=last.lam, precond=last.precond)


def continue_branch(cert, eps_grid, ctx: OperatorContext, N: int,
                    max_iter: int = 30) -> BranchResult:
    """March the orbit family over increasing eps by Newton, then fit the
    delay and frequency laws on the three smallest eps.

    The first amplitude starts from the tangent-space `predictor`, and
    every later one from the secant through the two previous orbits
    (Allgower & Georg 1990); at lambda = 0 the second amplitude's secant
    runs through the branch root, the trivial orbit with omega = 1 and
    tau = tau0. If the solve from the secant raises EvalDomainError or
    NoConvergence, it is repeated from the previous orbit; each orbit's
    `stats` count the solve that succeeded. Each guess carries the newest
    orbit's preconditioner: the first solve builds one at the first
    predictor, and a rebuild in any solve serves the amplitudes after it.
    Once an odd b's orbit is rejected by the full system (`newton_solve`),
    the rest of the branch runs on all harmonics. A solver error carries
    the last good amplitude as `last_good`.
    """
    eps_grid = list(eps_grid)
    if len(eps_grid) < 3 or any(e <= 0 for e in eps_grid) \
            or any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be at least 3 increasing positive values")
    basis = mode_basis(cert, ctx)
    # the branch root moves with lambda: away from 0 it is unknown
    root = [predictor(basis, 0.0, N, ctx)] if ctx.lam == 0.0 else []
    orbits = []
    try:
        for eps in eps_grid:
            orbit = None
            known = (root + orbits)[-2:]
            if len(known) == 2:
                try:
                    orbit = newton_solve(_secant(*known, eps), ctx, basis, max_iter)
                except (EvalDomainError, NoConvergence):
                    pass    # solve again from the previous orbit
            if orbit is None:
                guess = (replace(orbits[-1], eps=eps) if orbits
                         else predictor(basis, eps, N, ctx))
                orbit = newton_solve(guess, ctx, basis, max_iter)
            if ctx.odd and 0 in orbit.stats.ks:
                ctx = replace(ctx, odd=False)   # the oddness verdict was wrong
            if orbits:
                orbits[-1].precond = None
            orbits.append(orbit)
    except HopfwaveError as err:
        err.last_good = orbits[-1].eps if orbits else None
        raise
    smallest = orbits[:3]
    taus = [o.tau for o in smallest]
    omegas = [o.omega for o in smallest]
    epss = [o.eps for o in smallest]
    # away from lambda = 0, fit a free intercept in place of the root
    tau_base, om_base = (root[0].tau, root[0].omega) if root else (None, None)
    tau_c, tau_s = _fit_slope_curvature(epss, taus, tau_base)
    om_c, om_s = _fit_slope_curvature(epss, omegas, om_base)
    return BranchResult(orbits=orbits, fit_tau_curvature=tau_c,
                        fit_tau_slope=tau_s, fit_omega_curvature=om_c,
                        fit_omega_slope=om_s)


# ---------------------------------------------------------------------------
# verification in the original variables

def pde_residual_check(orbit: PeriodicOrbit, ctx: OperatorContext) -> float:
    """Max-norm of the second-order equation on interior collocation points.

    u is the characteristic integral of (v1 - v2) / (2a). Time derivatives
    and the delay are spectral in its harmonics; space derivatives use
    centered 4th-order differences, making this check independent of the
    characteristic formulation.
    """
    ks = np.arange(orbit.v.shape[0])
    times = _collocation_times(ks)
    u_hat = _displacement(orbit.v, ctx)
    u = harmonic_synthesis(u_hat, times, ks)
    u_tt = harmonic_synthesis(-(ks[:, None] ** 2) * u_hat, times, ks)
    u_del = harmonic_synthesis(
        _delay_phase(ks, orbit.omega, orbit.tau) * u_hat, times, ks)
    u_t = harmonic_synthesis(1j * ks[:, None] * u_hat, times, ks)
    h = ctx.h
    u_x = (-u[:, 4:] + 8 * u[:, 3:-1] - 8 * u[:, 1:-3] + u[:, :-4]) / (12 * h)
    u_xx = (-u[:, 4:] + 16 * u[:, 3:-1] - 30 * u[:, 2:-2]
            + 16 * u[:, 1:-3] - u[:, :-4]) / (12 * h * h)
    sl = slice(2, u.shape[1] - 2)
    env = b_env(ctx.x[None, sl], ctx.lam,
                (u[:, sl], u_del[:, sl], orbit.omega * u_t[:, sl], u_x))
    bvals = np.broadcast_to(ctx.spec.b.eval(env), u_xx.shape)
    res = (orbit.omega ** 2 * u_tt[:, sl]
           - ctx.a[None, sl] ** 2 * u_xx - bvals)
    return float(np.max(np.abs(res)))
