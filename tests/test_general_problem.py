"""End-to-end cross-validation on a variable-coefficient problem.

Nothing here is constant in x: the wave speed ramps, the damping ramps,
and a transport term is present, so these tests would catch any hidden
constant-coefficient assumption in the kernels, the adjoint, the
direction formula, or the orbit operators. The speed scale is tuned (and
frozen to full precision) so that the crossing sits exactly at frequency
one, as the certificate contract requires.
"""
import numpy as np
import pytest

from hopfwave import direction, eigen, periodic
from hopfwave.model import ProblemSpec, linearize
from oracles import reconstruct_u

A_TEXT = "0.820443846515864*(1 + 0.3*x)"
B_TEXT = "-(1+x/2)*u3 - 1.8*u2 + 0.2*u4 - u1^3/8"
TAU0 = 2.302264460551280


@pytest.fixture(scope="module")
def gspec():
    return ProblemSpec.from_expressions(a=A_TEXT, b=B_TEXT)


@pytest.fixture(scope="module")
def gcert(gspec):
    return eigen.certify(gspec, 2.2, M=256, K_max=30)


def characteristic_root(coeffs, tau, mu0):
    """Complex Newton for the eigenvalue branch through mu0 at delay tau."""
    mu = mu0
    for _ in range(60):
        D = eigen.shoot_evp(mu, tau, coeffs).D
        if abs(D) < 1e-13:
            break
        h = 1e-7
        Dp = (eigen.shoot_evp(mu + h, tau, coeffs).D
              - eigen.shoot_evp(mu - h, tau, coeffs).D) / (2 * h)
        mu = mu - D / Dp
    return mu


def test_certificate_passes(gcert):
    assert gcert.flags["pass"] is True
    assert gcert.low_confidence is False
    assert gcert.tau0 == pytest.approx(TAU0, abs=1e-9)


def test_crossing_speed_against_root_branch(gcert, gspec):
    co = linearize(gspec, 0.0, 256)
    d = 1e-4
    mu_hi = characteristic_root(co, gcert.tau0 + d, 1j)
    mu_lo = characteristic_root(co, gcert.tau0 - d, 1j)
    rho_fd = (mu_hi.real - mu_lo.real) / (2 * d)
    assert gcert.rho == pytest.approx(rho_fd, abs=1e-7)
    assert abs(gcert.rho) > 1e-3        # a genuine transversal crossing


def test_direction_matches_branch(gcert, gspec):
    dres = direction.compute_direction(gspec, gcert)
    ctx = periodic.operator_context(gspec, 0.0, 64)
    br = periodic.continue_branch(gcert, [0.02, 0.03, 0.04], ctx, 6)
    gap = abs(br.fit_tau_curvature - dres.d2tau) / abs(dres.d2tau)
    assert gap <= 0.05, (br.fit_tau_curvature, dres.d2tau)
    assert abs(br.fit_tau_slope) <= 1e-4
    # the branch opens on the side the curvature sign dictates
    assert np.sign(br.orbits[0].tau - gcert.tau0) == np.sign(dres.d2tau)


def test_orbit_checks_on_variable_coefficients(gcert, gspec):
    ctx = periodic.operator_context(gspec, 0.0, 64)
    basis = periodic.mode_basis(gcert, ctx)
    orbit = periodic.newton_solve(periodic.predictor(basis, 0.03, 6, ctx), ctx,
                                  basis)
    rec = reconstruct_u(orbit, ctx)
    assert np.max(np.abs(rec.u[:, 0])) == 0.0
    assert np.max(np.abs(rec.u_x[:, -1])) < 1e-7
    resid = periodic.pde_residual_check(orbit, ctx)
    assert resid <= 1e-6 * (1.0 + np.max(np.abs(rec.u)))
