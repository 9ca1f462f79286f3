"""Critical-delay location, adjoint data, and the Hopf certificate.

The delayed eigenvalue problem

    (mu^2 - b5*mu - b4*e^{-mu*tau} - b3) u = a^2 u'' + b6 u',   u(0) = u'(1) = 0

is solved by complex shooting: integrate the initial value problem with
u(0) = 0, u'(0) = 1 by fixed-step RK4 and read off the mismatch
D(mu, tau) := u'(1). The eigenvalue ODE and its adjoint are both linear,
u'' = P u + Q u', and share one kernel (_march) that builds each step's
RK4 map as a 2x2 matrix T_j, elementwise over a batch of rows of P, and
marches y_{j+1} = T_j y_j. The build keeps matrix-product order, which
fixes its rounding (see _step_matrices). shoot_evp and solve_adjoint
shoot one row and keep the node arrays. The resonance scan check_A2
shoots k = 0, 2, ..., K_max as one batch, a block of steps at a time,
keeps only the end states, and mirrors |D(-ik)| = |D(ik)|; find_tau0
shoots its central-difference pair as one two-row batch. Every row
equals its own single shot bit for bit. Eigenvalues are the roots of D.
Geometric simplicity is automatic in this scalar formulation (the IVP
solution space is one-dimensional), so the first certificate condition
reduces to |D(i, tau0)| below tolerance.

Every function here reads the coefficient table it is given; callers
pass one linearized at lambda = 0, the parameter value of the Hopf
point, and certify does so. certify returns one HopfCertificate that
holds the critical-mode node arrays u0, u0', u*, u*' and U* itself,
under the names the certificate document uses, each None when it was
not computed. When |sigma_raw| passes TOL_SIGMA, u* and its companions
are divided by conj(sigma_raw), so the pairing sigma is 1 and rho is
unchanged.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import AdjointInconsistent, NoConvergence, ResidualAboveTolerance
from .model import LinearizedCoeffs, fredholm_integral, linearize
from .quadrature import cumulative_integral, integral

TOL_EIG = 1e-8
TOL_RESONANCE = 1e-6
TOL_RHO = 1e-8
TOL_SIGMA = 1e-10
TOL_FREDHOLM = 1e-6
TOL_ADJOINT = 1e-6
TOL_RICHARDSON = 1e-8
TAU_MAX_ITER = 100      # Gauss-Newton iterations per start in find_tau0
TAU_RESTARTS = 8        # seeded random restarts after the given start
_BLOCK = 1600           # step matrices (rows x steps) _march builds at once


@dataclass(frozen=True)
class ShootResult:
    """IVP solution of the eigenvalue ODE with u(0)=0, u'(0)=1."""

    D: complex
    u: np.ndarray        # node values, complex, length M+1
    u_prime: np.ndarray


@dataclass(frozen=True)
class HopfCertificate:
    tau0: float
    u0: np.ndarray | None           # critical eigenfunction, u0(0)=0, u0'(0)=1
    u0_prime: np.ndarray | None
    u_star: np.ndarray | None       # adjoint, over conj(sigma_raw) if a3_sigma
    u_star_prime: np.ndarray | None
    U_star: np.ndarray | None       # transported adjoint field, same scaling
    sigma: complex          # after normalization (1 when a3 holds)
    sigma_raw: complex      # pairing of the raw shooting eigenfunctions
    rho: float
    fredholm: float
    a2_scan: list           # [(k, |D(ik, tau0)|), ...]
    flags: dict             # per-condition booleans plus "pass"
    coeffs: LinearizedCoeffs | None = None
    seed: int = 0
    low_confidence: bool = False

    @property
    def passed(self):
        return bool(self.flags.get("pass", False))


def _step_matrices(P, Q, h):
    """RK4 step matrices T_j of u'' = P u + Q u', built elementwise.

    P holds refined-grid samples over a run of m steps (nodes at even
    indices, midpoints at odd, 2m+1 along the last axis) with any leading
    batch axes, and Q broadcasts against it. The ODE is linear, so each
    RK4 step is one 2x2 matrix built from A = [[0, 1], [P, Q]] at the
    step's start, midpoint and end:

        K1 = A0,  K2 = Ah (I + h/2 K1),  K3 = Ah (I + h/2 K2),
        K4 = A1 (I + h K3),  T = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

    Returns the entries (T00, T01, T10, T11), each of shape (..., m).

    Every matrix product is written out entry by entry in the order a
    matrix product forms it, c_ij = a_i0 b_0j + a_i1 b_1j, and the sums
    in the order above; only the products by the constant row [0, 1],
    which are exact, are left out. The order is fixed because it decides
    the rounding: with Q = 0 (b6 = 0 and constant a, true of every shipped
    problem, for the eigenvalue and the adjoint ODE alike) the entries
    equal those of a stacked 2x2 `@` build bit for bit, as the tests
    check. Where Q != 0, a BLAS may fuse the two products of a row into
    one rounding, and the two builds then agree to rounding.
    """
    s, c = 0.5 * h, h / 6.0
    p0, ph, p1 = P[..., :-1:2], P[..., 1::2], P[..., 2::2]
    q0, qh, q1 = Q[..., :-1:2], Q[..., 1::2], Q[..., 2::2]
    x10, x11 = s * p0, 1.0 + s * q0                         # X1 = I + h/2 K1
    k00, k01, k10, k11 = x10, x11, ph + qh * x10, s * ph + qh * x11
    x00, x01, x10, x11 = 1.0 + s * k00, s * k01, s * k10, 1.0 + s * k11
    m00, m01, m10, m11 = x10, x11, ph * x00 + qh * x10, ph * x01 + qh * x11
    x00, x01, x10, x11 = 1.0 + h * m00, h * m01, h * m10, 1.0 + h * m11
    n00, n01, n10, n11 = x10, x11, p1 * x00 + q1 * x10, p1 * x01 + q1 * x11
    return (1.0 + c * (2.0 * k00 + 2.0 * m00 + n00),
            c * (1.0 + 2.0 * k01 + 2.0 * m01 + n01),
            c * (p0 + 2.0 * k10 + 2.0 * m10 + n10),
            1.0 + c * (q0 + 2.0 * k11 + 2.0 * m11 + n11))


def _march(P, Q, M):
    """Shoot every row of P: integrate u'' = P u + Q u' over [0, 1] by M RK4
    steps from u(0) = 0, u'(0) = 1, yielding the states block by block.

    P has shape (rows, 2M+1) on the refined grid and Q broadcasts against
    it. The step matrices are built _BLOCK // rows steps at a time for all
    rows at once; each block yields, per row, the list of states (u, u')
    at the block's end nodes. A caller that keeps only the last state
    holds O(rows) numbers, not O(rows * M).
    """
    h = 1.0 / M
    width = max(1, _BLOCK // len(P))
    ends = [(0j, 1 + 0j)] * len(P)
    for j0 in range(0, M, width):
        cut = slice(2 * j0, 2 * min(M, j0 + width) + 1)
        T = [t.tolist() for t in _step_matrices(P[:, cut], Q[..., cut], h)]
        block = []
        for (u, up), *steps in zip(ends, *T):
            path = []
            for t00, t01, t10, t11 in zip(*steps):   # Python scalars are cheaper here
                u, up = t00 * u + t01 * up, t10 * u + t11 * up
                path.append((u, up))
            block.append(path)
        ends = [path[-1] for path in block]
        yield block


def _shoot(P, Q, M):
    """One shot of u'' = P u + Q u' (P, Q of length 2M+1): the node arrays
    u, u' from u(0) = 0, u'(0) = 1."""
    path = [(0j, 1 + 0j)]
    for block in _march(np.asarray(P)[None], Q, M):
        path += block[0]
    u, up = np.array(path).T
    return u, up


def _evp_P(mu, tau, coeffs):
    """P of the eigenvalue ODE at (mu, tau); its Q is -b6 / a^2."""
    q = mu * mu - coeffs.b5 * mu - coeffs.b4 * cmath.exp(-mu * tau) - coeffs.b3
    return q / (coeffs.a * coeffs.a)


def shoot_evp(mu, tau, coeffs: LinearizedCoeffs) -> ShootResult:
    """Shooting mismatch D(mu, tau) = u'(1) for the eigenvalue ODE."""
    u, up = _shoot(_evp_P(mu, tau, coeffs), -coeffs.b6 / (coeffs.a * coeffs.a),
                   coeffs.M)
    return ShootResult(D=complex(up[-1]), u=u, u_prime=up)


def _mismatches(points, coeffs):
    """D(mu, tau) for every (mu, tau) in points, shot as one batch that
    keeps only the end states. Each row equals its own shoot_evp bit for
    bit: every operation of the kernel is elementwise in the row."""
    P = np.array([_evp_P(mu, tau, coeffs) for mu, tau in points])
    for block in _march(P, -coeffs.b6 / (coeffs.a * coeffs.a), coeffs.M):
        D = [path[-1][1] for path in block]
    return D


def _descend(tau, coeffs):
    """Damped Gauss-Newton on |D(i, tau)|^2 from one start.

    Returns (tau, D, stalled): stalled when no descent step was found,
    not stalled when converged or stopped by TAU_MAX_ITER. The central
    difference for dD/dtau shoots tau + dh and tau - dh as one batch.
    """
    [D] = _mismatches([(1j, tau)], coeffs)
    for _ in range(TAU_MAX_ITER):
        if abs(D) < TOL_EIG:
            break
        dh = 1e-7 * (1.0 + abs(tau))
        D_plus, D_minus = _mismatches([(1j, tau + dh), (1j, tau - dh)], coeffs)
        Dp = (D_plus - D_minus) / (2 * dh)
        grad = (Dp.conjugate() * D).real  # half-gradient of |D|^2
        if abs(Dp) ** 2 < 1e-30 or abs(grad) < 1e-14 * (1 + abs(D)) ** 2:
            return tau, D, True     # stationary: cannot descend from here
        step = -grad / abs(Dp) ** 2
        t = 1.0
        for _ in range(30):
            [D_new] = _mismatches([(1j, tau + t * step)], coeffs)
            if abs(D_new) < abs(D):
                break
            t *= 0.5
        else:
            return tau, D, True
        tau, D = tau + t * step, D_new
    return tau, D, False


def find_tau0(tau_guess, coeffs, seed=0):
    """Locate tau0 with D(i, tau0) = 0 by damped Gauss-Newton.

    Minimizes |D|^2 as a least-squares problem in the single real unknown
    tau (two real equations, one unknown). Deterministic given the seed:
    failed starts are followed by seeded random restarts in
    [tau_guess - pi, tau_guess + pi].
    """
    rng = np.random.default_rng(seed)
    starts = [float(tau_guess)] + list(tau_guess + rng.uniform(-np.pi, np.pi, TAU_RESTARTS))
    best_tau, best_absD, best_stationary = None, np.inf, False
    for start in starts:
        tau, D, stalled = _descend(start, coeffs)
        if abs(D) < TOL_EIG:
            return float(tau)
        if abs(D) < best_absD:
            best_tau, best_absD, best_stationary = tau, abs(D), stalled
    if best_stationary:
        raise ResidualAboveTolerance(
            f"min |D| = {best_absD:.3e} at tau = {best_tau} exceeds {TOL_EIG:.1e}; "
            "no pure-imaginary eigenvalue certified")
    raise NoConvergence(f"tau iteration cap hit; best |D| = {best_absD:.3e}",
                        last_good=best_tau)


def check_A2(tau0, K_max, coeffs):
    """Resonance scan: |D(ik, tau0)| for k in {0, +-2, ..., +-K_max}.

    k = +-1 is the critical pair and is excluded by definition. The scan
    passes when every recorded value exceeds TOL_RESONANCE; it covers only
    finitely many k, which the certificate records as a caveat.

    Only k = 0, 2, ..., K_max are shot, as one batch (_mismatches) whose
    step matrices are built a block of steps at a time, so memory stays
    O(K_max). Every coefficient table is real, so the shot for -ik is the
    exact complex conjugate of the shot for +ik (IEEE arithmetic,
    cmath.exp and the step matrices all commute with conjugation), and
    |D(-ik)| is recorded as the bitwise equal |D(ik)|.
    """
    if K_max < 2:
        raise ValueError("K_max must be at least 2")
    ks = [0] + list(range(2, K_max + 1))
    absD = [abs(D) for D in _mismatches([(1j * k, tau0) for k in ks], coeffs)]
    scan = list(zip(ks, absD)) + [(-k, d) for k, d in zip(ks[1:], absD[1:])]
    return sorted(scan, key=lambda item: item[0])


def solve_adjoint(tau0, coeffs: LinearizedCoeffs):
    """Shoot the adjoint ODE and assemble the transported adjoint field U*;
    returns the node arrays (u*, u*', U*).

    The adjoint equation
        (-1 + i b5 - b4 e^{i tau0} - b3) u = (a^2 u)'' - (b6 u)'
    is expanded to explicit form and shot from u(0)=0, u'(0)=1. The Robin
    row a(1)^2 u'(1) + (2 a(1) a'(1) - b6(1)) u(1) = 0 must then hold
    automatically; a large residual signals a bad tau0 or grid.
    """
    a, apx, apxx = coeffs.a, coeffs.ax, coeffs.axx
    a2 = a * a
    ed = cmath.exp(1j * tau0)
    kappa = -1.0 + 1j * coeffs.b5 - coeffs.b4 * ed - coeffs.b3
    c_up = 4.0 * a * apx - coeffs.b6
    c_u = 2.0 * apx * apx + 2.0 * a * apxx - coeffs.b6x - kappa
    u, up = _shoot(-c_u / a2, -c_up / a2, coeffs.M)
    scale = max(1.0, float(np.max(np.abs(u))))
    a1, ax1, b61 = a[-1], apx[-1], coeffs.b6[-1]
    robin = a1 * a1 * up[-1] + (2.0 * a1 * ax1 - b61) * u[-1]
    if abs(robin) > TOL_ADJOINT * scale:
        raise AdjointInconsistent(
            f"adjoint Robin residual {abs(robin):.3e} too large; "
            "tau0 or the grid resolution is off")

    an, axn, b6n, b3n, b4n = (coeffs.nodes("a"), coeffs.nodes("ax"),
                              coeffs.nodes("b6"), coeffs.nodes("b3"),
                              coeffs.nodes("b4"))
    h = coeffs.h
    integrand = (b3n + b4n * ed) * u
    cum = cumulative_integral(integrand, h)
    tail = cum[-1] - cum
    U = (b6n / an - 2.0 * axn) * u - an * up + tail / an
    return u, up, U


def _sigma_rho_values(tau0, u0, u_star, coeffs):
    """Transversality pairing sigma and crossing speed rho.

    sigma = int (2i - b5 + tau0 e^{-i tau0} b4) u0 conj(u*) dx
    rho   = Im( e^{-i tau0} / sigma * int b4 u0 conj(u*) dx )

    rho equals the real part of d(mu)/d(tau) at the critical delay and is
    invariant under rescaling of either eigenfunction. A sigma of exactly
    0 comes back with rho = 0.
    """
    h = coeffs.h
    b4n, b5n = coeffs.nodes("b4"), coeffs.nodes("b5")
    ed = cmath.exp(-1j * tau0)
    w = u0 * np.conj(u_star)
    sigma = complex(integral((2j - b5n + tau0 * ed * b4n) * w, h))
    if abs(sigma) == 0.0:
        return sigma, 0.0
    pair4 = complex(integral(b4n * w, h))
    rho = float((ed / sigma * pair4).imag)
    return sigma, rho


def certify(spec, tau_guess, M=256, K_max=50, seed=0) -> HopfCertificate:
    """Run the full certification pipeline at lambda = 0.

    Failures of individual conditions are recorded in flags rather than
    raised, so a certificate document always comes back; "pass" is the
    conjunction. A Richardson check against the doubled grid marks the
    certificate low-confidence when the located delay moves by more
    than 1e-8.
    """
    coeffs = linearize(spec, 0.0, M)
    fred = fredholm_integral(coeffs)
    flags = {"a1": False, "a2": False, "a3_sigma": False, "a3_rho": False,
             "fredholm": abs(fred) > TOL_FREDHOLM, "adjoint": False}
    tau0 = float("nan")
    u0 = u0_prime = u_star = u_star_prime = U_star = None
    sigma_raw = sigma = complex("nan")
    rho = float("nan")
    scan = []
    low_conf = True

    try:
        tau0 = find_tau0(tau_guess, coeffs, seed=seed)
        flags["a1"] = True
    except (ResidualAboveTolerance, NoConvergence):
        pass

    if flags["a1"]:
        try:
            tau0_fine = find_tau0(tau0, coeffs=linearize(spec, 0.0, 2 * M),
                                  seed=seed)
            low_conf = abs(tau0_fine - tau0) > TOL_RICHARDSON
        except (ResidualAboveTolerance, NoConvergence):
            low_conf = True

        shot = shoot_evp(1j, tau0, coeffs)
        u0, u0_prime = shot.u, shot.u_prime
        scan = check_A2(tau0, K_max, coeffs)
        flags["a2"] = min(d for _, d in scan) > TOL_RESONANCE
        try:
            u_star, u_star_prime, U_star = solve_adjoint(tau0, coeffs)
            flags["adjoint"] = True
        except AdjointInconsistent:
            pass
        if flags["adjoint"]:
            sigma_raw, rho = _sigma_rho_values(tau0, u0, u_star, coeffs)
            flags["a3_sigma"] = abs(sigma_raw) >= TOL_SIGMA
            flags["a3_rho"] = flags["a3_sigma"] and abs(rho) >= TOL_RHO
            if flags["a3_sigma"]:
                # scale u* so the pairing becomes 1; rho is unchanged
                s = np.conj(sigma_raw)
                u_star, u_star_prime, U_star = u_star / s, u_star_prime / s, U_star / s
                sigma, rho = _sigma_rho_values(tau0, u0, u_star, coeffs)

    flags["pass"] = all(flags.values())
    return HopfCertificate(
        tau0=tau0, u0=u0, u0_prime=u0_prime, u_star=u_star,
        u_star_prime=u_star_prime, U_star=U_star, sigma=sigma,
        sigma_raw=sigma_raw, rho=rho, fredholm=fred, a2_scan=scan, flags=flags,
        coeffs=coeffs, seed=seed, low_confidence=low_conf)
