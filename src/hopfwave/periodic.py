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
and the orbits it returns hold exact zeros on the even harmonics. The
operators C, D and B and the packing of the unknowns live in `harmonic`,
which each Newton solve plans once for its ks (`harmonic_plan`). Operators
accept batch axes, so the preconditioner build probes M+1 directions at
once; it probes the 2(M+1) real-unit directions only, the blocks being
complex-linear.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvalDomainError, HopfwaveError, JacobianSingular, NoConvergence
from .exprlang import Expr
from .harmonic import (HarmonicPlan, OperatorContext, PlanAt, _collocate,
                       _delay_phase, _displacement, _source, _source_values,
                       _synthesize, _transport_domega, apply_B, apply_C, apply_D,
                       flatten, harmonic_plan, unflatten)
from .model import (ProblemSpec, antiderivative_tables, b_env, b_samples,
                    linearize)
from .quadrature import integral


# ---------------------------------------------------------------------------
# the operator context at a fixed lambda

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


def _defect(v: np.ndarray, f: np.ndarray, at: PlanAt) -> np.ndarray:
    """Packed v - C v - D f (the fixed-point rows, batch-aware)."""
    return flatten(v - apply_C(v, at) - apply_D(f, at), at.plan.ks)


def residual(orbit: PeriodicOrbit, plan: HarmonicPlan,
             basis: ModeBasis) -> np.ndarray:
    """Stacked fixed-point residual plus the amplitude and phase rows, on
    the harmonics plan.ks that orbit.v holds."""
    v, at = orbit.v, plan.at(orbit.omega, orbit.tau)
    Bv = apply_B(v, at)
    proj = basis.projection(v, plan.ctx.h, plan.ks)
    rows = np.array([proj.real / basis.nrm - orbit.eps,
                     proj.imag / basis.nrm])
    return np.concatenate([_defect(v, Bv, at), rows])


def _linearization(orbit, plan: HarmonicPlan, basis: ModeBasis):
    """The derivative of `residual` at orbit on the harmonics plan.ks of
    orbit.v, from one set-up, as (tangent, harmonic, omega_tau).

    Both maps take packed directions (..., n) to I - C - D dB on the
    harmonics ks, the amplitude and phase rows, plus the exact (omega, tau)
    columns omega_tau (2, n). tangent is exact: dB multiplies the partials
    b_{u_j} pointwise on the collocation times. harmonic replaces each
    partial p_j by its time mean and is applied in harmonic space: dB_k =
    p1 J_k + p2 e^{-ik omega tau} J_k + p3 (dv1_k + dv2_k)/2 + p4 (dv1_k -
    dv2_k)/(2a), J_k the displacement of dv1_k - dv2_k. It is
    block-diagonal over harmonics, and exact at v = 0 and in (omega, tau).
    Both maps and the columns use the plan's tables at (omega, tau).
    """
    ctx, ks = plan.ctx, plan.ks
    v, omega, tau = orbit.v, orbit.omega, orbit.tau
    at = plan.at(omega, tau)
    v1, v2, u = _collocate(v, at)
    env = b_env(ctx.x, ctx.lam, u)
    partials = [d.eval(env) for d in ctx.spec.partials.b_u]
    means = [p.mean(axis=-2) if np.ndim(p) == 2 else p for p in partials]
    # (omega, tau) enter B only through the delayed argument u2, whose
    # harmonics carry e^{-ik omega tau}; omega also moves C and D
    Bv = _source(ctx.spec.b.eval(env), v1, v2, plan)
    dJdel = (-1j * ks[:, None] * _displacement(v, plan) * at.delay
             * np.array([tau, omega])[:, None, None])
    du2 = _synthesize(plan.synthesis, dJdel)
    dB = _source(partials[1] * du2, 0.0, 0.0, plan)
    dT = apply_D(dB, at)
    dT[0] += _transport_domega(v, Bv, at)
    omega_tau = np.concatenate([-flatten(dT, ks), np.zeros((2, 2))], axis=-1)

    def pointwise(dv):
        dv1, dv2, du = _collocate(dv, at)
        return _source(sum(p * d for p, d in zip(partials, du)), dv1, dv2, plan)

    def averaged(dv):
        dv1, dv2, J = dv[..., 0, :], dv[..., 1, :], _displacement(dv, plan)
        du = (J, J * at.delay, 0.5 * (dv1 + dv2), 0.5 * (dv1 - dv2) / ctx.a)
        return _source_values(sum(p * d for p, d in zip(means, du)), dv1, dv2, ctx)

    def linear_map(source):
        def apply(dz):
            dv = unflatten(dz[..., :-2], ks, v.shape[2] - 1)
            proj = basis.projection(dv, ctx.h, ks) / basis.nrm
            rows = np.stack([proj.real, proj.imag], axis=-1)
            return (np.concatenate([_defect(dv, source(dv), at), rows], axis=-1)
                    + dz[..., -2:] @ omega_tau)
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
    with no Fourier synthesis or analysis, in chunks of M+1: the 2(M+1)
    real-unit directions per build. Every k >= 1 block, the bordered k = 1
    one with its amplitude and phase rows included, is complex-linear, so
    the column of an imaginary unit is [-Im; Re] of the real unit's and is
    not probed. The k = 1 block is singular at the Hopf point, so it is
    bordered by the amplitude and phase rows and the exact (omega, tau)
    columns; the other harmonics meet those columns below the diagonal
    only, so the solve is block lower-triangular.

    Each block is inverted by `numpy.linalg.inv`, and its reciprocal 1-norm
    condition 1 / (|A|_1 |A^-1|_1) is computed exactly from that inverse.
    A zero pivot or a condition below RANK_RCOND (a NaN or overflowed
    inverse included) raises JacobianSingular naming the harmonics: the
    bordered k = 1 block means a failed certificate, any other k a
    resonance at ik.
    """
    slices = _harmonic_slices(ks, M)
    n = slices[-1].stop + 2
    i1 = int(ks[0] == 0)        # the position of k = 1 in ks
    m = 2 * (M + 1)             # real-unit directions of each harmonic
    width = M + 1

    def probe(j0):
        dz = np.zeros((width, n))
        for sl in slices:
            dz[:, sl.start + j0:sl.start + j0 + width] = np.eye(width)
        return harmonic(dz)
    real = np.concatenate([probe(j0) for j0 in range(0, m, width)]).T
    # the k = 0 block, the bordered k = 1 block, and the blocks k > 1 as
    # views of one stack; each block is overwritten by its inverse
    inv_rest = np.empty((len(ks) - i1 - 1, 2 * m, 2 * m))
    blocks = [np.empty((m, m))] * i1 + [np.zeros((2 * m + 2,) * 2)] + list(inv_rest)
    for blk, sl in zip(blocks, slices):
        blk[:sl.stop - sl.start, :m] = real[sl]
    blocks[i1][-2:, :m] = real[-2:]
    blocks[i1][:-2, -2:] = omega_tau[:, slices[i1]].T
    # the imaginary-unit columns: [-Im; Re] of the real-unit ones, the
    # amplitude and phase rows being the real and imaginary part of one
    # complex projection
    for blk in blocks[i1:]:
        blk[:m, m:2 * m], blk[m:2 * m, m:2 * m] = -blk[m:2 * m, :m], blk[:m, :m]
    bordered = blocks[i1]
    bordered[-2, m:2 * m], bordered[-1, m:2 * m] = -bordered[-1, :m], bordered[-2, :m]
    rcond = np.zeros(len(ks))
    for i, blk in enumerate(blocks):
        try:
            inverse = np.linalg.inv(blk)
        except np.linalg.LinAlgError:
            continue        # an exactly zero pivot: rcond[i] stays 0
        rcond[i] = 1.0 / (np.linalg.norm(blk, 1) * np.linalg.norm(inverse, 1))
        blk[...] = inverse
    bad = [(int(k), rc) for k, rc in zip(ks, rcond) if not rc >= RANK_RCOND]
    if bad:
        raise JacobianSingular(
            f"Newton matrix singular, block reciprocal condition below "
            f"{RANK_RCOND:.0e}: " + "; ".join(
                f"harmonic {k} ({rc:.2e}, "
                + ("failed certificate" if k == 1 else f"resonance at {k}i") + ")"
                for k, rc in bad))
    return BlockPreconditioner(inv0=blocks[0] if i1 else None, inv1=blocks[i1],
                               inv_rest=inv_rest, omega_tau=omega_tau, rcond=rcond)


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
    plan = harmonic_plan(ctx, ks)

    def orbit_at(zv):
        return _unpack(zv, ks, M, eps, ctx.lam)

    def res(zv):
        return residual(orbit_at(zv), plan, basis)

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
        tangent, harmonic, omega_tau = _linearization(orbit_at(z), plan, basis)
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
        full = harmonic_plan(ctx, np.arange(N + 1))
        rn = float(np.max(np.abs(residual(out, full, basis))))
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
    plan = harmonic_plan(ctx, np.arange(orbit.v.shape[0]))
    ks, basis = plan.ks, plan.synthesis
    u_hat = _displacement(orbit.v, plan)
    u = _synthesize(basis, u_hat)
    u_tt = _synthesize(basis, -(ks[:, None] ** 2) * u_hat)
    u_del = _synthesize(basis, _delay_phase(ks, orbit.omega, orbit.tau) * u_hat)
    u_t = _synthesize(basis, 1j * ks[:, None] * u_hat)
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
