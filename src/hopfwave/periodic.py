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
over time (exact at v = 0) the derivative splits harmonic by harmonic; only
k = 1 is singular at the Hopf point, and it is bordered by the amplitude and
phase rows and the (omega, tau) columns, as in the Lyapunov-Schmidt
reduction onto the critical mode. No dense matrix of the system is formed.

A field v(t, x) = sum_k vhat_k(x) e^{ikt} is a plain complex array of
shape (..., len(ks), 2, M+1): optional batch axes, the harmonics ks,
component, node. ks is an increasing integer array, by default every
harmonic 0..N; negative harmonics are the conjugates (the field is real),
and a k = 0 slice is real by construction and packed without its imaginary
part. When b is odd in (u1..u4), v(t + pi) = -v(t) is a symmetry of the
whole system (Golubitsky, Stewart & Schaeffer, Singularities and Groups in
Bifurcation Theory II, 1988), so Newton carries only ks = 1, 3, ..., <= N
and the orbits it returns hold exact zeros on the even harmonics. Operators
accept the batch axes, which lets the preconditioner build apply the
tangent to a whole chunk of probe directions at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalDomainError, HopfwaveError, JacobianSingular, NoConvergence
from .exprlang import Expr
from .model import (_UVARS, LinearizedCoeffs, ProblemSpec, antiderivative_tables,
                    displacement, linearize)
from .quadrature import cumulative_integral, integral


# ---------------------------------------------------------------------------
# Fourier synthesis and analysis: the one path for every operator

def harmonic_synthesis(hats, times, ks=None):
    """Real values at the given times of the harmonics ks held on axis -2.

    hats: (..., len(ks), X) complex, ks by default 0..N; returns
    (..., len(times), X). Negative harmonics are the conjugates, so k >= 1
    carries weight 2. Computed as one real product
    [w cos(kt), -w sin(kt)] @ [Re hat; Im hat].
    """
    ks = np.arange(hats.shape[-2]) if ks is None else ks
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
def flatten(coef, ks=None):
    parts = np.stack([coef.real, coef.imag], axis=-3)
    flat = parts.reshape(parts.shape[:-4] + (-1,))
    if ks is not None and ks[0] != 0:
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
    b_u: tuple[Expr, ...]   # exact partials of b in u1..u4, for the tangent
    odd: bool               # b odd in u1..u4 (`odd_in_u`): Newton on odd harmonics


_ODD_SAMPLES = 64


def odd_in_u(b: Expr, lam: float) -> bool:
    """Sampled verdict that b(x, lam, -u) = -b(x, lam, u) to rounding.

    Like `direction.check_structure`, it samples rather than proves: 64
    seeded points x in [0, 1], u1..u4 in [-1/2, 1/2], at the fixed lam.
    A sample on which b is not finite (EvalDomainError) means "not odd";
    the verdict never raises. A wrong "odd" costs `newton_solve` time,
    never correctness.
    """
    rng = np.random.default_rng(20240831)
    xs = rng.uniform(0.0, 1.0, _ODD_SAMPLES)
    us = rng.uniform(-0.5, 0.5, (4, _ODD_SAMPLES))
    def at(u):
        return b.eval({"x": xs, "lambda": lam, **dict(zip(_UVARS, u))})

    try:
        plus, minus = at(us), at(-us)
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
        F=F, E1=np.exp(logE1), E2=np.exp(logE2),
        b_u=tuple(spec.b.diff(u) for u in _UVARS), odd=odd_in_u(spec.b, lam))


def _harmonics_of(v, ks):
    """ks, or every harmonic 0..N of a field v that holds them all."""
    return np.arange(v.shape[-3]) if ks is None else ks


def apply_C(v: np.ndarray, omega: float, ctx: OperatorContext,
            ks=None) -> np.ndarray:
    """Boundary-transport part: values carried along characteristics from
    the opposite edge, with per-harmonic phase factors for the time shift."""
    ks = _harmonics_of(v, ks)[:, None]
    phase = np.exp(1j * omega * ks * ctx.F)                  # e^{ik w F(x)}
    out = np.empty_like(v)
    out[..., 0, :] = -(1.0 / ctx.E1) * phase * v[..., 1, 0][..., None]
    tail_phase = np.exp(-1j * omega * ks * (ctx.F - ctx.F[-1]))
    out[..., 1, :] = (ctx.E2 / ctx.E2[-1]) * tail_phase * v[..., 0, -1][..., None]
    return out


def apply_D(f: np.ndarray, omega: float, ctx: OperatorContext,
            ks=None) -> np.ndarray:
    """Interior-transport part: characteristic integrals of a source field.

    The kernels factorize (c's are ratios of one antiderivative table, the
    shift phases split likewise), so each harmonic costs one cumulative
    quadrature per component. Both components carry a minus sign: it drops
    out of the telescoping along either characteristic family, and the
    critical mode is a fixed point of C + D(J+K) only with this sign
    (enforced by the kernel tests).
    """
    ks = _harmonics_of(f, ks)[:, None]
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


def _source(bvals, v1, v2, ks, ctx: OperatorContext) -> np.ndarray:
    """Harmonics of the source (b - a_x (v1 - v2)/2 - b_j v_j)_j from values
    on the collocation times; linear in (bvals, v1, v2)."""
    Bfull = bvals - 0.5 * ctx.ax * (v1 - v2)
    vals = np.stack([Bfull - ctx.b1 * v1, Bfull - ctx.b2 * v2], axis=-2)
    coef = harmonic_analysis(vals.reshape(vals.shape[:-2] + (-1,)), ks)
    return coef.reshape(coef.shape[:-1] + vals.shape[-2:])


def _b_env(u, ctx: OperatorContext):
    return {"x": ctx.x, "lambda": ctx.lam, **dict(zip(_UVARS, u))}


def apply_B(v: np.ndarray, omega: float, tau: float,
            ctx: OperatorContext, ks=None) -> np.ndarray:
    """Full nonlinear source, pseudo-spectral with a cubic de-aliasing margin.

    Steps: cumulative x-quadrature gives the displacement harmonics, the
    delay becomes a phase factor, all fields are synthesized on 4N+1
    times, the coefficient expression is evaluated pointwise, and the
    result is analyzed back to the harmonics ks.
    """
    ks = _harmonics_of(v, ks)
    v1, v2, u = _collocate(v, omega, tau, ctx, ks)
    return _source(ctx.spec.b.eval(_b_env(u, ctx)), v1, v2, ks, ctx)


# ---------------------------------------------------------------------------
# orbits, constraints, Newton

@dataclass(frozen=True)
class NewtonStats:
    """Deterministic counts of one `newton_solve`."""

    iterations: int         # Newton steps
    matvecs: int            # tangent products inside GMRES
    halvings: int           # line-search step halvings
    rconds: tuple           # per-harmonic block rcond of each preconditioner built
    stop: str               # why iteration stopped: "roundoff floor",
                            # "no decrease" or "iteration limit"
    harmonics: str          # "odd" (ks = 1, 3, ..., <= N) or "all" (ks = 0..N)


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

    def projection(self, v: np.ndarray, h, ks=None):
        """int sum_j v^1_j conj(v0_j) dx, one complex value per batch entry;
        v holds the harmonics ks (default 0..N), among them k = 1."""
        v1 = v[..., int(_harmonics_of(v, ks)[0] == 0), :, :]
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
             basis: ModeBasis, ks=None) -> np.ndarray:
    """Stacked fixed-point residual plus the amplitude and phase rows, on
    the harmonics ks that orbit.v holds (default all 0..N)."""
    v = orbit.v
    ks = _harmonics_of(v, ks)
    Bv = apply_B(v, orbit.omega, orbit.tau, ctx, ks)
    proj = basis.projection(v, ctx.h, ks)
    rows = np.array([proj.real / basis.nrm - orbit.eps,
                     proj.imag / basis.nrm])
    return np.concatenate([_defect(v, Bv, orbit.omega, ctx, ks), rows])


def _tangent(orbit: PeriodicOrbit, ctx: OperatorContext, basis: ModeBasis,
             ks=None, harmonic_diagonal: bool = False):
    """Exact derivative of `residual` at orbit as (apply, omega_tau): apply
    maps packed directions (..., n) in the residual's own packing, on the
    harmonics ks that orbit.v holds (default all 0..N).

    The harmonic part applies I - C - D dB, with dB the linearization of
    apply_B from the exact partials b_{u_j} on the same collocation grid;
    the amplitude and phase rows are linear. omega_tau (2, n) holds the
    analytic (omega, tau) columns of the phase factors, which apply adds.

    With harmonic_diagonal, dB uses the time averages of the partials,
    which map each harmonic to itself: the harmonic part is then
    block-diagonal over harmonics, and the (omega, tau) columns stay
    exact. At v = 0 the partials are constant in time and the two agree.
    """
    v, omega, tau = orbit.v, orbit.omega, orbit.tau
    ks, M = _harmonics_of(v, ks), v.shape[2] - 1
    v1, v2, u = _collocate(v, omega, tau, ctx, ks)
    env = _b_env(u, ctx)
    partials = [d.eval(env) for d in ctx.b_u]

    # (omega, tau) enter B only through the delayed argument u2, whose
    # harmonics carry e^{-ik omega tau}; omega also moves C and D
    Bv = _source(ctx.spec.b.eval(env), v1, v2, ks, ctx)
    dJdel = (-1j * ks[:, None] * _displacement(v, ctx)
             * _delay_phase(ks, omega, tau) * np.array([tau, omega])[:, None, None])
    du2 = harmonic_synthesis(dJdel, _collocation_times(ks), ks)
    dB = _source(partials[1] * du2, 0.0, 0.0, ks, ctx)
    dT = apply_D(dB, omega, ctx, ks)
    dT[0] += _transport_domega(v, Bv, omega, ctx, ks)
    omega_tau = np.concatenate([-flatten(dT, ks), np.zeros((2, 2))], axis=-1)
    if harmonic_diagonal:
        partials = [p.mean(axis=-2) if np.ndim(p) == 2 else p for p in partials]

    def apply(dz):
        dv = unflatten(dz[..., :-2], ks, M)
        dv1, dv2, du = _collocate(dv, omega, tau, ctx, ks)
        dBv = _source(sum(p * d for p, d in zip(partials, du)), dv1, dv2, ks, ctx)
        proj = basis.projection(dv, ctx.h, ks) / basis.nrm
        rows = np.stack([proj.real, proj.imag], axis=-1)
        return (np.concatenate([_defect(dv, dBv, omega, ctx, ks), rows], axis=-1)
                + dz[..., -2:] @ omega_tau)

    return apply, omega_tau


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


def block_preconditioner(orbit: PeriodicOrbit, ctx: OperatorContext,
                         basis: ModeBasis, ks=None) -> BlockPreconditioner:
    """The Newton preconditioner: the exact inverse of the harmonic-diagonal
    tangent at orbit (`_tangent` with harmonic_diagonal), block by block,
    on the harmonics ks that orbit.v holds (default all 0..N).

    That tangent maps each harmonic to itself: one 2(M+1) block for k = 0
    and one 4(M+1) block for each k >= 1; at v = 0 it is the exact tangent.
    A probe with a unit at the same local index in every harmonic therefore
    yields a column of every block at once; the probes go through the
    tangent in chunks of M+1. The k = 1 block is singular at the Hopf
    point, so it is bordered by the amplitude and phase rows and by the
    exact (omega, tau) columns `_tangent` returns with it; the other
    harmonics meet those columns below the diagonal only, so the solve is
    block lower-triangular. In all, 4(M+1) directions per build.

    Each block is inverted by `numpy.linalg.inv`, and its reciprocal 1-norm
    condition 1 / (|A|_1 |A^-1|_1) is computed exactly from that inverse.
    A zero pivot or a condition below RANK_RCOND (a NaN or overflowed
    inverse included) raises JacobianSingular naming the harmonics: the
    bordered k = 1 block means a failed certificate, any other k a
    resonance at ik.
    """
    ks, M = _harmonics_of(orbit.v, ks), orbit.v.shape[2] - 1
    slices = _harmonic_slices(ks, M)
    n = slices[-1].stop + 2
    sizes = [s.stop - s.start for s in slices]
    i1 = int(ks[0] == 0)        # the position of k = 1 in ks
    tangent, omega_tau = _tangent(orbit, ctx, basis, ks, harmonic_diagonal=True)
    blocks = [np.empty((m, m)) for m in sizes]
    blocks[i1] = np.zeros((sizes[i1] + 2,) * 2)
    blocks[i1][:-2, -2:] = omega_tau[:, slices[i1]].T
    width = M + 1
    for j0 in range(0, sizes[i1], width):
        live = [i for i, m in enumerate(sizes) if m > j0]
        probe = np.zeros((width, n))
        for i in live:
            probe[:, slices[i].start + j0:slices[i].start + j0 + width] = np.eye(width)
        out = tangent(probe)
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


def _pack(orbit, ks=None):
    v = orbit.v if ks is None else orbit.v[ks]
    return np.concatenate([flatten(v, ks), [orbit.omega, orbit.tau]])


def _unpack(z, ks, M, eps, lam):
    return PeriodicOrbit(v=unflatten(z[:-2], ks, M), omega=float(z[-2]),
                         tau=float(z[-1]), eps=eps, lam=lam)


def harmonics(N, odd):
    """The harmonics Newton carries: 1, 3, ..., <= N for an odd b, else 0..N."""
    return np.arange(1, N + 1, 2) if odd else np.arange(N + 1)


def newton_solve(guess: PeriodicOrbit, ctx: OperatorContext,
                 basis: ModeBasis, max_iter: int = 30) -> PeriodicOrbit:
    """Damped Newton-Krylov at amplitude guess.eps, iterated to roundoff.

    Each step solves the `_tangent` system by `gmres`, preconditioned by
    guess.precond, or else by a `block_preconditioner` built at the guess;
    GMRES failing above TOL_ORBIT rebuilds it at the current point. A
    trial step on which b leaves its domain fails and is halved. Once the
    residual is at or below TOL_ORBIT, steps are taken in full, and the
    solve stops at the roundoff floor: after the first step that lowers
    the residual by a smaller factor than the step before it did, or at a
    step that does not lower it at all. Above TOL_ORBIT, NoConvergence
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
    halvings and builds of the solve it came from, and name the stop and
    the harmonics.
    """
    N = guess.v.shape[0] - 1
    if ctx.odd:
        orbit = _newton(guess, harmonics(N, True), ctx, basis, max_iter)
        if orbit.residual_norm <= TOL_ORBIT:
            return orbit
        guess = replace(guess, precond=None)
    return _newton(guess, harmonics(N, False), ctx, basis, max_iter)


def _newton(guess: PeriodicOrbit, ks, ctx: OperatorContext,
            basis: ModeBasis, max_iter: int) -> PeriodicOrbit:
    """`newton_solve` on the harmonics ks of guess; harmonics outside ks
    are zero in the orbit it returns."""
    N, M = guess.v.shape[0] - 1, guess.v.shape[2] - 1
    eps, precond = guess.eps, guess.precond
    odd = len(ks) < N + 1
    z = _pack(guess, ks)

    def orbit_at(zv):
        return _unpack(zv, ks, M, eps, ctx.lam)

    def res(zv):
        return residual(orbit_at(zv), ctx, basis, ks)

    r = res(z)
    rn = float(np.max(np.abs(r)))
    rconds = []
    n_iter = matvecs = halvings = 0

    def build():
        nonlocal precond
        precond = block_preconditioner(orbit_at(z), ctx, basis, ks)
        rconds.append(precond.rcond)

    if precond is None and (eps != 0.0 or np.any(guess.v)):
        # the condition check doubles as the local-uniqueness certificate;
        # only at the trivial orbit, the bifurcation point itself, is the
        # Newton matrix legitimately singular
        build()
    stop = "iteration limit"
    contraction = np.inf    # rn_new / rn of the last accepted step
    while n_iter < max_iter:
        n_iter += 1
        tangent, _ = _tangent(orbit_at(z), ctx, basis, ks)
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
    if odd:
        v, out.v = out.v, np.zeros(guess.v.shape, dtype=complex)
        out.v[ks] = v
        rn = float(np.max(np.abs(residual(out, ctx, basis))))
    out.residual_norm, out.precond = rn, precond
    out.stats = NewtonStats(iterations=n_iter, matvecs=matvecs,
                            halvings=halvings, rconds=tuple(rconds), stop=stop,
                            harmonics="odd" if odd else "all")
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
            if ctx.odd and orbit.stats.harmonics == "all":
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
    u = harmonic_synthesis(u_hat, times)
    u_tt = harmonic_synthesis(-(ks[:, None] ** 2) * u_hat, times)
    u_del = harmonic_synthesis(
        _delay_phase(ks, orbit.omega, orbit.tau) * u_hat, times)
    u_t = harmonic_synthesis(1j * ks[:, None] * u_hat, times)
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
