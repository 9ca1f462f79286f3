import dataclasses

import numpy as np
import pytest

from hopfwave.errors import SpecInvalid
from hopfwave.model import ProblemSpec, fredholm_integral, linearize
from oracles import kernels

SMOOTH_SPECS = [
    # (a, b): smooth coefficients with x-dependent damping/transport terms
    ("1 + 0.3*sin(pi*x)", "-u3*(1 + x^2/2) + 0.2*cos(pi*x)*u4 - u2"),
    ("2/pi + x^2/5", "-u1*x - u2*0.5 - u3*exp(-x) + u4*sin(pi*x/2)/4"),
    ("exp(-x/3)", "(-1 - lambda)*u3 + (x - 0.5)*u4 + lambda*u1"),
]


def test_benchmark_linearization(spec_cubic_up):
    co = linearize(spec_cubic_up, 0.0, 64)
    assert np.allclose(co.b3, 0.0)
    assert np.allclose(co.b4, 1.0)
    assert np.allclose(co.b5, 1.0)
    assert np.allclose(co.b6, 0.0)
    # a = 2/pi, b5 = 1, b6 = 0 -> b1 = b2 = 1/2
    assert np.allclose(co.b1, 0.5)
    assert np.allclose(co.b2, 0.5)


def test_zero_nonlinearity():
    spec = ProblemSpec.from_expressions(a="1", b="0*u1")
    co = linearize(spec, 0.0, 32)
    for name in ("b3", "b4", "b5", "b6"):
        assert np.allclose(getattr(co, name), 0.0)


@pytest.mark.parametrize("a_text,b_text", SMOOTH_SPECS)
def test_b1_b2_identities(a_text, b_text):
    spec = ProblemSpec.from_expressions(a=a_text, b=b_text)
    for lam in (0.0, 0.2):
        co = linearize(spec, lam, 48)
        assert np.max(np.abs(co.b1 + co.b2 - co.b5)) < 1e-12
        assert np.max(np.abs(co.b1 - co.b2 - (-co.ax + co.b6 / co.a))) < 1e-12


@pytest.mark.parametrize("a_text,b_text", SMOOTH_SPECS + [
    ("2/pi", "u1^3/6 + u2 + u3"), ("2/pi", "0*u1")])
def test_linearized_tables_are_real_float64(a_text, b_text):
    # eigen.check_A2 mirrors |D(-ik)| = |D(ik)|, which holds because every
    # coefficient table is real
    co = linearize(ProblemSpec.from_expressions(a=a_text, b=b_text), 0.2, 32)
    tables = [f.name for f in dataclasses.fields(co) if f.name not in ("lam", "M")]
    assert len(tables) == 11
    for name in tables:
        table = getattr(co, name)
        assert isinstance(table, np.ndarray) and table.dtype == np.float64, name
        assert table.shape == (65,), name


def test_kernels_benchmark_values(spec_cubic_up):
    co = linearize(spec_cubic_up, 0.0, 256)
    ke = kernels(co)
    x = np.linspace(0, 1, 17)
    assert np.max(np.abs(ke.A(x, x))) == 0.0
    assert np.max(np.abs(ke.c1(x, x) - 1.0)) == 0.0
    assert np.max(np.abs(ke.c2(x, x) - 1.0)) == 0.0
    assert ke.A(1.0, 0.0) == pytest.approx(np.pi / 2, abs=1e-10)
    # orientation matters: the first kernel decays forward, c1(1,0) = e^{-pi/4}
    # (and its reciprocal c1(0,1) = e^{+pi/4}); the fixed-point property of
    # the critical mode in the operator tests pins this choice.
    assert ke.c1(1.0, 0.0) == pytest.approx(np.exp(-np.pi / 4), rel=1e-9)
    assert ke.c1(0.0, 1.0) == pytest.approx(np.exp(np.pi / 4), rel=1e-9)


@pytest.mark.parametrize("a_text,b_text", SMOOTH_SPECS)
def test_kernel_additivity_and_reciprocity(a_text, b_text):
    spec = ProblemSpec.from_expressions(a=a_text, b=b_text)
    co = linearize(spec, 0.0, 256)
    ke = kernels(co)
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 1, (30, 3))
    quad_tol = 1e-9
    for x, xi, eta in pts:
        assert ke.A(x, xi) + ke.A(xi, eta) == pytest.approx(ke.A(x, eta),
                                                            abs=10 * quad_tol)
        assert ke.c1(x, xi) * ke.c1(xi, x) == pytest.approx(1.0, rel=1e-10)
        assert ke.c2(x, xi) * ke.c2(xi, x) == pytest.approx(1.0, rel=1e-10)


def test_fredholm_integral(spec_cubic_up):
    co = linearize(spec_cubic_up, 0.0, 256)
    assert fredholm_integral(co) == pytest.approx(np.pi / 2, abs=1e-10)
    zero = ProblemSpec.from_expressions(a="2/pi", b="-u2")
    assert fredholm_integral(linearize(zero, 0.0, 64)) == 0.0
    ramp = ProblemSpec.from_expressions(a="1", b="x*u3")
    assert fredholm_integral(linearize(ramp, 0.0, 256)) == pytest.approx(0.5, abs=1e-10)


def test_load_checks():
    with pytest.raises(SpecInvalid):
        ProblemSpec.from_expressions(a="x - 0.5", b="-u3")      # a changes sign
    with pytest.raises(SpecInvalid):
        ProblemSpec.from_expressions(a="1", b="u1 + 1")         # b(...,0) != 0
    with pytest.raises(SpecInvalid):
        ProblemSpec.from_expressions(a="1", betas=["u1", "u2"])
    with pytest.raises(SpecInvalid):
        ProblemSpec.from_expressions(a="1", betas=["u2", "u2", "u3", "u4"])
    with pytest.raises(SpecInvalid):
        ProblemSpec.from_expressions(a="1", b="-u3", betas=["u1", "u2", "u3", "u4"])


def test_beta_form_builds_joint_b():
    spec = ProblemSpec.from_expressions(
        a="2/pi", betas=["-u1^3/6", "-u2", "-u3", "0*u4"])
    co = linearize(spec, 0.0, 32)
    assert np.allclose(co.b4, -1.0)
    assert np.allclose(co.b5, -1.0)
    assert np.allclose(co.b3, 0.0)


def test_m_floor():
    spec = ProblemSpec.from_expressions(a="1", b="-u3")
    with pytest.raises(ValueError):
        linearize(spec, 0.0, 8)
