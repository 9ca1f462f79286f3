import numpy as np
import pytest

from hopfwave import direction
from hopfwave.errors import NotSeparable, QuadraticTermPresent
from hopfwave.model import ProblemSpec, linearize

from conftest import sin_convention
from oracles import compute_sigma_rho, worked_example_curvature

TAU0 = np.pi / 2

# Poincare-Lindstedt oracles (sin-eigenfunction convention), confirmed by
# direct continuation of the branch in the periodic-orbit tests:
#   c = +1, beta1 = 1:  d2tau = 3/16
#   c = +1, beta3 = 1:  d2tau = -(3/8)(1 - pi/4)
LINDSTEDT_BETA1 = 3.0 / 16.0
LINDSTEDT_BETA3 = -(3.0 / 8.0) * (1.0 - np.pi / 4.0)


def test_check_structure_cubic(spec_cubic_up):
    co = linearize(spec_cubic_up, 0.0, 64)
    cubic = direction.check_structure(spec_cubic_up, co.x)
    assert np.allclose(cubic[0], 1.0)
    assert np.allclose(cubic[1], 0.0)
    assert np.allclose(cubic[2], 0.0)
    assert np.allclose(cubic[3], 0.0)


def test_check_structure_rejections():
    grid = np.linspace(0, 1, 33)
    quad = ProblemSpec.from_expressions(a="1", b="u1^2 - u3")
    with pytest.raises(QuadraticTermPresent):
        direction.check_structure(quad, grid)
    mixed = ProblemSpec.from_expressions(a="1", b="u1*u2 - u3")
    with pytest.raises(NotSeparable):
        direction.check_structure(mixed, grid)


def _sin_arrays(M):
    x = np.linspace(0, 1, M + 1)
    return x, np.sin(np.pi * x / 2), (np.pi / 2) * np.cos(np.pi * x / 2)


def test_direction_benchmark_value(cert_up, spec_cubic_up):
    data = sin_convention(cert_up)
    cubic = direction.check_structure(spec_cubic_up, data.x)
    d2, d2_lit = direction.tau_curvatures(data.u0, data.u0p, data.ustar,
                                          data.sigma, data.rho, data.tau0,
                                          cubic, data.h)
    assert d2 == pytest.approx(LINDSTEDT_BETA1, abs=1e-8)
    # published prefactor differs by the factor -3/2
    assert d2_lit == pytest.approx(-1.5 * LINDSTEDT_BETA1, abs=1e-8)


def test_direction_derivative_coupling_case(cert_up):
    # beta3 only: cubic term in the velocity argument
    spec = ProblemSpec.from_expressions(a="2/pi", b="u2 + u3 + u3^3/6")
    data = sin_convention(cert_up)   # same linear part, same eigendata
    cubic = direction.check_structure(spec, data.x)
    assert np.allclose(cubic[2], 1.0) and np.allclose(cubic[0], 0.0)
    d2, _ = direction.tau_curvatures(data.u0, data.u0p, data.ustar, data.sigma,
                                     data.rho, data.tau0, cubic, data.h)
    assert d2 == pytest.approx(LINDSTEDT_BETA3, abs=1e-8)


def test_direction_zero_cubic(cert_down):
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u2 - u3")
    result = direction.compute_direction(spec, cert_down)
    assert result.d2tau == pytest.approx(0.0, abs=1e-14)


def test_cross_path_agreement_randomized():
    # the general projection-integral path against the closed two-term form
    # of the constant-speed family, randomized coefficient profiles
    rng = np.random.default_rng(101)
    M = 256
    x, s, sp = _sin_arrays(M)
    h = 1.0 / M
    for trial in range(20):
        c0, c1, c2 = rng.uniform(0.4, 1.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        c_text = f"({c0} + {c1}*x + {c2}*x^2)"
        betas = []
        for _ in range(3):
            b0, b1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            betas.append(f"({b0} + {b1}*x)")
        b_text = (f"{c_text}*u2 + {c_text}*u3"
                  f" + {betas[0]}*u1^3 + {betas[1]}*u2^3 + {betas[2]}*u3^3")
        spec = ProblemSpec.from_expressions(a="2/pi", b=b_text)
        co = linearize(spec, 0.0, M)
        cubic = direction.check_structure(spec, co.x)
        sigma, rho = compute_sigma_rho(TAU0, s.astype(complex),
                                       s.astype(complex), co)
        corrected, general = direction.tau_curvatures(
            s, sp, s, sigma, rho, TAU0, cubic, h)
        closed = worked_example_curvature(co, cubic, sigma, rho)
        assert general == pytest.approx(closed, abs=1e-8), f"trial {trial}"
        # the validated value is the same projection scaled by -2/3
        assert corrected == pytest.approx(-2.0 / 3.0 * general, rel=1e-12)


def test_scale_invariance(cert_up, spec_cubic_up):
    data = sin_convention(cert_up)
    cubic = direction.check_structure(spec_cubic_up, data.x)
    base, _ = direction.tau_curvatures(data.u0, data.u0p, data.ustar,
                                       data.sigma, data.rho, data.tau0, cubic,
                                       data.h)
    rng = np.random.default_rng(5)
    for _ in range(5):
        # unit-modulus rotations preserve the pairing and the value
        phi = rng.uniform(0, 2 * np.pi)
        g = np.exp(1j * phi)
        d2, _ = direction.tau_curvatures(g * data.u0, g * data.u0p,
                                         g * data.ustar, data.sigma, data.rho,
                                         data.tau0, cubic, data.h)
        assert d2 == pytest.approx(base, abs=1e-10)
        # arbitrary rescalings change the parametrization (value scales by
        # |gamma|^2) but never the sign
        gamma = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        delta = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        co = cert_up.coeffs
        u0, ustar = gamma * data.u0, delta * data.ustar
        sigma, rho = compute_sigma_rho(data.tau0, u0, ustar, co)
        assert rho == pytest.approx(data.rho, rel=1e-10)
        d2, _ = direction.tau_curvatures(u0, gamma * data.u0p, ustar,
                                         sigma, rho, data.tau0, cubic, data.h)
        assert d2 == pytest.approx(abs(gamma) ** 2 * base, rel=1e-9)
        assert np.sign(d2) == np.sign(base)


def test_compute_direction_reports(cert_down, spec_cubic_down):
    result = direction.compute_direction(spec_cubic_down, cert_down)
    assert result.supercritical is True
    assert result.indicator == 1.0
    assert "stability" in result.caveat
    assert result.d2tau == pytest.approx((3 / 16) * (2 / np.pi) ** 2, rel=1e-6)
