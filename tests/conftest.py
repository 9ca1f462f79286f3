"""Shared fixtures. The expensive certificates and the flagship branch are
session-scoped so the acceptance module and the unit tests reuse them."""
import numpy as np
import pytest

from hopfwave import eigen, periodic
from hopfwave.model import ProblemSpec
from oracles import compute_sigma_rho

# constant-speed benchmark family: a = 2/pi, b4 = b5 = c, b3 = b6 = 0,
# critical delay pi/2 with eigenfunction sin(pi x / 2) for any c.
CUBIC_UP = "u1^3/6 + u2 + u3"        # c = +1 (anti-damped; branch cross-check)
CUBIC_DOWN = "-u1^3/6 - u2 - u3"     # c = -1 (dissipative, supercritical)


@pytest.fixture(scope="session")
def spec_cubic_up():
    return ProblemSpec.from_expressions(a="2/pi", b=CUBIC_UP)


@pytest.fixture(scope="session")
def spec_cubic_down():
    return ProblemSpec.from_expressions(a="2/pi", b=CUBIC_DOWN)


@pytest.fixture(scope="session")
def cert_up(spec_cubic_up):
    return eigen.certify(spec_cubic_up, 1.4, M=256, K_max=10)


@pytest.fixture(scope="session")
def cert_down(spec_cubic_down):
    return eigen.certify(spec_cubic_down, 1.4, M=256, K_max=10)


@pytest.fixture(scope="session")
def ctx_up(spec_cubic_up):
    return periodic.operator_context(spec_cubic_up, 0.0, 64)


@pytest.fixture(scope="session")
def ctx_down(spec_cubic_down):
    return periodic.operator_context(spec_cubic_down, 0.0, 64)


@pytest.fixture(scope="session")
def flagship_branch(cert_up, ctx_up):
    """Criterion-4 continuation: eps 0.005..0.05 at N = 8, M = 64."""
    eps_grid = [0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05]
    return periodic.continue_branch(cert_up, eps_grid, ctx_up, 8)


@pytest.fixture(scope="session")
def super_orbit(cert_down, ctx_down):
    """A small supercritical orbit of the dissipative benchmark."""
    basis = periodic.mode_basis(cert_down, ctx_down)
    guess = periodic.predictor(cert_down, 0.05, 8, ctx_down)
    return periodic.newton_solve(guess, 0.05, ctx_down, basis)


def sin_convention(cert):
    """Benchmark data with both eigenfunctions rescaled to sin(pi x / 2).

    The certificate shoots with unit initial slope (u0 = (2/pi) sin) and
    stores the normalized adjoint; this undoes both so values can be
    compared against closed forms stated in the plain-sine convention.
    """
    from types import SimpleNamespace

    co = cert.coeffs
    scale = np.pi / 2.0
    u0 = cert.u0 * scale
    u0p = cert.u0_prime * scale
    raw = np.conj(cert.sigma_raw)       # undo the pairing normalization
    ustar = cert.u_star * raw * scale
    ustarp = cert.u_star_prime * raw * scale
    Ustar = cert.U_star * raw * scale
    sigma, rho = compute_sigma_rho(cert.tau0, u0, ustar, co)
    return SimpleNamespace(u0=u0, u0p=u0p, ustar=ustar, ustarp=ustarp,
                           Ustar=Ustar, sigma=sigma, rho=rho,
                           tau0=cert.tau0, x=co.x, h=co.h)
