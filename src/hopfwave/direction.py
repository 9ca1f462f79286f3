"""Bifurcation direction for separable cubic-type nonlinearities.

For b(x, lam, u1..u4) = sum_j beta_j(x, lam, u_j) with vanishing value and
second u-derivative at the origin, the delay curvature along the branch is

    d2tau := d^2/d eps^2 tau(eps) at eps = 0
           = -(1 / (4 rho)) * Re( (1/sigma) * I3 ),
    I3 := int ( (B1 + B2 e^{-i tau0} + i B3) |u0|^2 u0 + B4 |u0'|^2 u0' )
             * conj(u*) dx,

where B_j(x) is the third u_j-derivative of beta_j at the origin. The
prefactor -1/(4 rho) is validated in the test suite against direct
continuation of the branch and against two hand-derived Poincare-Lindstedt
expansions; the coefficient +3/(8 rho) that circulates in the literature
for this family overstates the curvature by a factor -3/2. tau_curvatures
returns both values from one evaluation of I3, the literature one as
d2tau_literature for comparison.

The sign of rho * d2tau distinguishes supercritical from subcritical
branches; for hyperbolic problems the usual link from direction to orbital
stability is unproven, so the indicator is reported with a caveat.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSeparable, QuadraticTermPresent, RhoZero
from .model import _UVARS, ProblemSpec, b_env, b_samples
from .quadrature import integral

STABILITY_CAVEAT = (
    "direction indicator only: for hyperbolic wave equations no rigorous "
    "proof links bifurcation direction to orbital stability")


@dataclass(frozen=True)
class DirectionResult:
    d2tau: float
    d2tau_literature: float
    indicator: float        # sign(rho * d2tau)
    supercritical: bool
    caveat: str = STABILITY_CAVEAT


def check_structure(spec: ProblemSpec, grid) -> np.ndarray:
    """Verify the separable cubic shape and sample the cubic coefficients.

    Separability: all mixed second partials of b in distinct u-arguments
    must vanish at the seeded (x, u) points of `b_samples`. No quadratic terms:
    the pure second u_j-derivatives must vanish at u = 0. Both checks are
    sampled, not proven. grid is the node array the coefficients are
    sampled on (a LinearizedCoeffs.x works). Returns the third
    u_j-derivatives B_1..B_4 at the origin as rows of one float array.
    """
    grid = np.asarray(grid, dtype=float)
    xs, us = b_samples()
    env = b_env(xs, 0.0, us)
    b_u = spec.partials.b_u
    for i in range(4):
        for j in range(i + 1, 4):
            mixed = b_u[i].diff(_UVARS[j])
            vals = np.broadcast_to(mixed.eval(env), xs.shape)
            if np.max(np.abs(vals)) > 1e-10:
                raise NotSeparable(
                    f"mixed partial in ({_UVARS[i]}, {_UVARS[j]}) is nonzero; "
                    "the direction formula needs b = sum of beta_j(x, lambda, u_j)")
    env0 = b_env(grid, 0.0)
    b_uu = tuple(b.diff(u) for b, u in zip(b_u, _UVARS))
    for b, u in zip(b_uu, _UVARS):
        quad = np.broadcast_to(b.eval(env0), grid.shape)
        if np.max(np.abs(quad)) > 1e-10:
            raise QuadraticTermPresent(
                f"second derivative in {u} at the origin is nonzero")
    return np.array([np.broadcast_to(b.diff(u).eval(env0), grid.shape)
                     for b, u in zip(b_uu, _UVARS)], dtype=float)


def tau_curvatures(u0, u0_prime, u_star, sigma, rho, tau0, cubic, h):
    """Delay curvature with the validated prefactor -1/(4 rho) and with the
    published +3/(8 rho), from one projection integral I3 on the adjoint."""
    if not (np.isfinite(rho) and rho != 0.0):
        raise RhoZero(f"direction undefined: rho = {rho} is zero or was never computed")
    b1c, b2c, b3c, b4c = cubic
    ed = np.exp(-1j * tau0)
    core = ((b1c + b2c * ed + 1j * b3c) * np.abs(u0) ** 2 * u0
            + b4c * np.abs(u0_prime) ** 2 * u0_prime)
    pairing = complex(integral(core * np.conj(u_star), h))
    q = (pairing / sigma).real
    return float(-q / (4.0 * rho)), float(3.0 * q / (8.0 * rho))


def compute_direction(spec: ProblemSpec, cert) -> DirectionResult:
    """Direction data from a certificate (normalized adjoint convention),
    after check_structure has passed on the certificate grid. A missing u0
    or u* leaves rho NaN, which tau_curvatures rejects with RhoZero."""
    cubic = check_structure(spec, cert.coeffs.x)
    d2, d2_lit = tau_curvatures(cert.u0, cert.u0_prime, cert.u_star, cert.sigma,
                                cert.rho, cert.tau0, cubic, cert.coeffs.h)
    indicator = float(np.sign(cert.rho * d2))
    return DirectionResult(d2tau=d2, d2tau_literature=d2_lit,
                           indicator=indicator, supercritical=indicator > 0)
