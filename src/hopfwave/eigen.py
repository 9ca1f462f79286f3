"""Critical-delay location, adjoint data, and the Hopf certificate.

The delayed eigenvalue problem

    (mu^2 - b5*mu - b4*e^{-mu*tau} - b3) u = a^2 u'' + b6 u',   u(0) = u'(1) = 0

is solved by complex shooting: integrate the initial value problem with
u(0) = 0, u'(0) = 1 by fixed-step RK4 and read off the mismatch
D(mu, tau) := u'(1). Eigenvalues are the roots of D. Geometric simplicity
is automatic in this scalar formulation (the IVP solution space is
one-dimensional), so the first certificate condition reduces to
|D(i, tau0)| below tolerance.

Every function here reads the coefficient table it is given; callers
pass one linearized at lambda = 0, the parameter value of the Hopf
point, and certify does so.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (AdjointInconsistent, NoConvergence, ResidualAboveTolerance,
                     RhoZero, SigmaZero)
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


@dataclass(frozen=True)
class ShootResult:
    """IVP solution of the eigenvalue ODE with u(0)=0, u'(0)=1."""

    D: complex
    u: np.ndarray        # node values, complex, length M+1
    u_prime: np.ndarray


@dataclass(frozen=True)
class Eigenpair:
    mu: complex
    tau: float
    u0: np.ndarray
    u0_prime: np.ndarray


@dataclass(frozen=True)
class AdjointPair:
    u_star: np.ndarray
    u_star_prime: np.ndarray
    U_star: np.ndarray


@dataclass(frozen=True)
class HopfCertificate:
    tau0: float
    eigenpair: Eigenpair | None
    adjoint: AdjointPair | None
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


def _rk4_second_order(rhs_coeff, M):
    """Integrate u'' = rhs_coeff(idx) applied to (u, u') over M steps.

    rhs_coeff(idx, u, up) returns u'' using refined-grid index idx
    (nodes at even indices, midpoints at odd). Returns node arrays.
    """
    h = 1.0 / M
    u = np.empty(M + 1, dtype=complex)
    up = np.empty(M + 1, dtype=complex)
    y1, y2 = 0.0 + 0.0j, 1.0 + 0.0j
    u[0], up[0] = y1, y2
    for j in range(M):
        i0, i1, i2 = 2 * j, 2 * j + 1, 2 * j + 2
        k1a, k1b = y2, rhs_coeff(i0, y1, y2)
        k2a, k2b = y2 + 0.5 * h * k1b, rhs_coeff(i1, y1 + 0.5 * h * k1a, y2 + 0.5 * h * k1b)
        k3a, k3b = y2 + 0.5 * h * k2b, rhs_coeff(i1, y1 + 0.5 * h * k2a, y2 + 0.5 * h * k2b)
        k4a, k4b = y2 + h * k3b, rhs_coeff(i2, y1 + h * k3a, y2 + h * k3b)
        y1 = y1 + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        y2 = y2 + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
        u[j + 1], up[j + 1] = y1, y2
    return u, up


def shoot_evp(mu, tau, coeffs: LinearizedCoeffs) -> ShootResult:
    """Shooting mismatch D(mu, tau) = u'(1) for the eigenvalue ODE."""
    a2 = coeffs.a * coeffs.a
    ed = cmath.exp(-mu * tau)
    q = mu * mu - coeffs.b5 * mu - coeffs.b4 * ed - coeffs.b3

    def rhs(idx, u, up):
        return (q[idx] * u - coeffs.b6[idx] * up) / a2[idx]

    u, up = _rk4_second_order(rhs, coeffs.M)
    return ShootResult(D=complex(up[-1]), u=u, u_prime=up)


def find_tau0(tau_guess, coeffs, tol=TOL_EIG, seed=0):
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
        tau = start
        D = shoot_evp(1j, tau, coeffs).D
        for _ in range(TAU_MAX_ITER):
            if abs(D) < tol:
                return float(tau)
            dh = 1e-7 * (1.0 + abs(tau))
            Dp = (shoot_evp(1j, tau + dh, coeffs).D
                  - shoot_evp(1j, tau - dh, coeffs).D) / (2 * dh)
            grad = (Dp.conjugate() * D).real  # half-gradient of |D|^2
            if abs(Dp) ** 2 < 1e-30 or abs(grad) < 1e-14 * (1 + abs(D)) ** 2:
                # stationary: cannot descend further from here
                if abs(D) < best_absD:
                    best_tau, best_absD, best_stationary = tau, abs(D), True
                break
            step = -grad / abs(Dp) ** 2
            t = 1.0
            for _ in range(30):
                D_new = shoot_evp(1j, tau + t * step, coeffs).D
                if abs(D_new) < abs(D):
                    break
                t *= 0.5
            else:
                if abs(D) < best_absD:
                    best_tau, best_absD, best_stationary = tau, abs(D), True
                break
            tau, D = tau + t * step, D_new
        else:
            if abs(D) < best_absD:
                best_tau, best_absD, best_stationary = tau, abs(D), False
        if abs(D) < tol:
            return float(tau)
        if abs(D) < best_absD:
            best_tau, best_absD, best_stationary = tau, abs(D), True
    if best_stationary:
        raise ResidualAboveTolerance(
            f"min |D| = {best_absD:.3e} at tau = {best_tau} exceeds {tol:.1e}; "
            "no pure-imaginary eigenvalue certified")
    raise NoConvergence(f"tau iteration cap hit; best |D| = {best_absD:.3e}",
                        last_good=best_tau)


def check_A2(tau0, K_max, coeffs, tol=TOL_RESONANCE):
    """Resonance scan: |D(ik, tau0)| for k in {0, +-2, ..., +-K_max}.

    k = +-1 is the critical pair and is excluded by definition. The scan
    passes when every recorded value exceeds tol; it covers only finitely
    many k, which the certificate records as a caveat.
    """
    if K_max < 2:
        raise ValueError("K_max must be at least 2")
    ks = [0] + [s * k for k in range(2, K_max + 1) for s in (1, -1)]
    scan = [(k, abs(shoot_evp(1j * k, tau0, coeffs).D)) for k in ks]
    return sorted(scan, key=lambda item: item[0])


def solve_adjoint(tau0, coeffs: LinearizedCoeffs) -> AdjointPair:
    """Shoot the adjoint ODE and assemble the transported adjoint field U*.

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

    def rhs(idx, u, up):
        return -(c_up[idx] * up + c_u[idx] * u) / a2[idx]

    u, up = _rk4_second_order(rhs, coeffs.M)
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
    return AdjointPair(u_star=u, u_star_prime=up, U_star=U)


def _sigma_rho_values(eig, adj, coeffs):
    h = coeffs.h
    b4n, b5n = coeffs.nodes("b4"), coeffs.nodes("b5")
    tau0 = eig.tau
    ed = cmath.exp(-1j * tau0)
    w = eig.u0 * np.conj(adj.u_star)
    sigma = complex(integral((2j - b5n + tau0 * ed * b4n) * w, h))
    if abs(sigma) == 0.0:
        return sigma, 0.0
    pair4 = complex(integral(b4n * w, h))
    rho = float((ed / sigma * pair4).imag)
    return sigma, rho


def compute_sigma_rho(eig: Eigenpair, adj: AdjointPair, coeffs: LinearizedCoeffs):
    """Transversality pairing sigma and crossing speed rho.

    sigma = int (2i - b5 + tau0 e^{-i tau0} b4) u0 conj(u*) dx
    rho   = Im( e^{-i tau0} / sigma * int b4 u0 conj(u*) dx )

    rho equals the real part of d(mu)/d(tau) at the critical delay and is
    invariant under rescaling of either eigenfunction.
    """
    sigma, rho = _sigma_rho_values(eig, adj, coeffs)
    if abs(sigma) < TOL_SIGMA:
        raise SigmaZero(f"|sigma| = {abs(sigma):.3e} below {TOL_SIGMA:.1e}")
    if abs(rho) < TOL_RHO:
        raise RhoZero(f"|rho| = {abs(rho):.3e} below {TOL_RHO:.1e}")
    return sigma, rho


def normalize(eig: Eigenpair, adj: AdjointPair, sigma):
    """Rescale the adjoint pair (u* only) so the pairing becomes 1.

    u0 is left untouched; u*, u*', U* are divided by conj(sigma), which
    leaves rho unchanged.
    """
    s = np.conj(sigma)
    return eig, AdjointPair(u_star=adj.u_star / s,
                            u_star_prime=adj.u_star_prime / s,
                            U_star=adj.U_star / s)


def certify(spec, tau_guess, M=256, K_max=50, seed=0,
            tol_eig=TOL_EIG, tol_resonance=TOL_RESONANCE,
            tol_rho=TOL_RHO) -> HopfCertificate:
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
    eig = adj = None
    sigma_raw = sigma = complex("nan")
    rho = float("nan")
    scan = []
    low_conf = True

    try:
        tau0 = find_tau0(tau_guess, coeffs, tol=tol_eig, seed=seed)
        flags["a1"] = True
    except (ResidualAboveTolerance, NoConvergence):
        pass

    if flags["a1"]:
        try:
            tau0_fine = find_tau0(tau0, coeffs=linearize(spec, 0.0, 2 * M),
                                  tol=tol_eig, seed=seed)
            low_conf = abs(tau0_fine - tau0) > TOL_RICHARDSON
        except (ResidualAboveTolerance, NoConvergence):
            low_conf = True

        shot = shoot_evp(1j, tau0, coeffs)
        eig = Eigenpair(mu=1j, tau=tau0, u0=shot.u, u0_prime=shot.u_prime)
        scan = check_A2(tau0, K_max, coeffs, tol=tol_resonance)
        flags["a2"] = min(d for _, d in scan) > tol_resonance
        try:
            adj = solve_adjoint(tau0, coeffs)
            flags["adjoint"] = True
        except AdjointInconsistent:
            adj = None
        if adj is not None:
            sigma_raw, rho = _sigma_rho_values(eig, adj, coeffs)
            flags["a3_sigma"] = abs(sigma_raw) >= TOL_SIGMA
            flags["a3_rho"] = flags["a3_sigma"] and abs(rho) >= tol_rho
            if flags["a3_sigma"]:
                eig, adj = normalize(eig, adj, sigma_raw)
                sigma, rho = _sigma_rho_values(eig, adj, coeffs)

    flags["pass"] = all(flags[k] for k in
                        ("a1", "a2", "a3_sigma", "a3_rho", "fredholm", "adjoint"))
    return HopfCertificate(
        tau0=tau0, eigenpair=eig, adjoint=adj, sigma=sigma, sigma_raw=sigma_raw,
        rho=rho, fredholm=fred, a2_scan=scan, flags=flags, coeffs=coeffs,
        seed=seed, low_confidence=low_conf)
