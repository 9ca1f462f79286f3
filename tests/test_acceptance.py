"""Acceptance suite: one test per criterion, printed as pass/fail lines.

The worked constant-speed benchmark (a = 2/pi, b4 = b5 = c, b3 = b6 = 0,
critical delay pi/2, eigenfunctions sin(pi x/2)) anchors most criteria.

Two pinned values inherited from the published worked example are
implemented exactly as stated and marked strict-xfail because they
contradict quantities this suite verifies independently (characteristic
root differentiation, hand Poincare-Lindstedt expansions, and the direct
branch continuation of criterion 4):

  * the crossing speed of the benchmark is +0.8444406888, not -1.68888
    (the quoted closed form flips the sign and drops a factor);
  * the delay curvature for c == 1, beta1 == 1 in the sine convention is
    3/16, not 9/64 (the published 3/(8 rho) prefactor is off by -3/2).

See the README for the full account.
"""
import time

import numpy as np
import pytest

from hopfwave import direction, eigen, periodic, timedomain
from hopfwave.errors import JacobianSingular
from hopfwave.model import ProblemSpec, linearize

from conftest import sin_convention
from oracles import (apply_JK, compute_sigma_rho, kernels, oracle_C, oracle_D,
                     plan_at, random_field, reconstruct_u, seed_from_orbit,
                     time_shifted, worked_example_curvature)
from test_eigen import characteristic_root_crossing_speed

TAU0 = np.pi / 2


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {criterion}: {status} - {detail}")
    assert ok, detail


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_hopf_point(spec_cubic_up):
    t0 = time.perf_counter()
    co = linearize(spec_cubic_up, 0.0, 256)
    tau0 = eigen.find_tau0(1.4, co)
    shot = eigen.shoot_evp(1j, tau0, co)
    x = co.x
    target = np.sin(np.pi * x / 2)
    scale = shot.u[len(x) // 2] / target[len(x) // 2]
    err_fn = np.max(np.abs(shot.u / scale - target))
    err_tau = abs(tau0 - TAU0)
    dt = time.perf_counter() - t0
    _report(1, err_tau < 1e-6 and err_fn < 1e-6,
            f"tau0 err {err_tau:.2e}, eigenfunction err {err_fn:.2e} "
            f"({dt:.2f}s)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_sigma(cert_up):
    t0 = time.perf_counter()
    data = sin_convention(cert_up)
    target = -0.5 + 1j * (1 - np.pi / 4)
    err = abs(data.sigma - target)
    _report(2, err < 1e-7,
            f"sigma = {data.sigma:.9f} vs -1/2 + i(1-pi/4), err {err:.2e} "
            f"({time.perf_counter() - t0:.2f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "stated value -1.68888 reproduces a sign/factor slip in the quoted "
    "closed form; the defining formula and the characteristic-root "
    "derivative both give +0.8444406888 (see test_criterion_2_crossing_speed)"))
def test_criterion_2_rho_as_stated(cert_up):
    data = sin_convention(cert_up)
    # quoted closed form -(1/|sigma|^2) int c sin^2 dx, c = 1, by quadrature
    x = data.x
    s2 = np.sin(np.pi * x / 2) ** 2
    closed_form = -np.trapezoid(s2, x) / abs(data.sigma) ** 2
    assert closed_form == pytest.approx(-1.68888, abs=1e-5)
    assert data.rho == pytest.approx(closed_form, abs=1e-5)


def test_criterion_2_crossing_speed(cert_up):
    # the independently verified transversality value
    data = sin_convention(cert_up)
    oracle = characteristic_root_crossing_speed(1.0)
    ok = abs(data.rho - oracle) < 1e-8 and abs(data.rho - 0.8444406888) < 1e-9
    _report("2 (crossing speed)", ok,
            f"rho = {data.rho:.10f}, char-root oracle {oracle:.10f}")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_cross_path(cert_up):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    M = 256
    x = np.linspace(0, 1, M + 1)
    s, sp = np.sin(np.pi * x / 2), (np.pi / 2) * np.cos(np.pi * x / 2)
    h = 1.0 / M
    worst = 0.0
    for _ in range(20):
        c0, c1 = rng.uniform(0.4, 1.5), rng.uniform(-0.4, 0.4)
        ctext = f"({c0} + {c1}*x)"
        b1t, b2t, b3t = (f"({rng.uniform(-1, 1)} + {rng.uniform(-1, 1)}*x)"
                         for _ in range(3))
        spec = ProblemSpec.from_expressions(
            a="2/pi",
            b=f"{ctext}*u2 + {ctext}*u3 + {b1t}*u1^3 + {b2t}*u2^3 + {b3t}*u3^3")
        co = linearize(spec, 0.0, M)
        cubic = direction.check_structure(spec, co.x)
        sigma, rho = compute_sigma_rho(TAU0, s.astype(complex),
                                       s.astype(complex), co)
        _, general = direction.tau_curvatures(s, sp, s, sigma, rho, TAU0,
                                              cubic, h)
        closed = worked_example_curvature(co, cubic, sigma, rho)
        worst = max(worst, abs(general - closed))
    _report("3 (cross-path)", worst < 1e-8,
            f"max |general - closed form| = {worst:.2e} over 20 draws "
            f"({time.perf_counter() - t0:.2f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "stated value 9/64 combines the published 3/(8 rho) prefactor with the "
    "erroneous closed-form rho; the continuation of criterion 4 and two "
    "hand expansions give 3/16 in this convention "
    "(see test_criterion_3_validated_value)"))
def test_criterion_3_benchmark_value_as_stated(cert_up, spec_cubic_up):
    data = sin_convention(cert_up)
    cubic = direction.check_structure(spec_cubic_up, data.x)
    d2, _ = direction.tau_curvatures(data.u0, data.u0p, data.ustar, data.sigma,
                                     data.rho, data.tau0, cubic, data.h)
    assert d2 == pytest.approx(9.0 / 64.0, abs=1e-8)


def test_criterion_3_validated_value(cert_up, spec_cubic_up):
    data = sin_convention(cert_up)
    cubic = direction.check_structure(spec_cubic_up, data.x)
    d2, _ = direction.tau_curvatures(data.u0, data.u0p, data.ustar, data.sigma,
                                     data.rho, data.tau0, cubic, data.h)
    err = abs(d2 - 3.0 / 16.0)
    _report("3 (validated value)", err < 1e-8,
            f"d2tau = {d2:.12f} vs 3/16 (err {err:.2e})")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_branch_formula_consistency(
        flagship_branch, cert_up, ctx_up, spec_cubic_up):
    t0 = time.perf_counter()
    dres = direction.compute_direction(spec_cubic_up, cert_up)
    gap = abs(flagship_branch.fit_tau_curvature - dres.d2tau) / abs(dres.d2tau)
    slopes_ok = (abs(flagship_branch.fit_tau_slope) <= 1e-4
                 and abs(flagship_branch.fit_omega_slope) <= 1e-4)
    pde_ok = True
    worst_pde = 0.0
    for orbit in flagship_branch.orbits:
        rec = reconstruct_u(orbit, ctx_up)
        bound = 1e-6 * (1.0 + np.max(np.abs(rec.u)))
        resid = periodic.pde_residual_check(orbit, ctx_up)
        worst_pde = max(worst_pde, resid / bound)
        pde_ok = pde_ok and resid <= bound
    ok = gap <= 0.05 and slopes_ok and pde_ok
    _report(4, ok,
            f"curvature fit {flagship_branch.fit_tau_curvature:.6f} vs "
            f"formula {dres.d2tau:.6f} (gap {100 * gap:.2f}%), slopes "
            f"({flagship_branch.fit_tau_slope:.1e}, "
            f"{flagship_branch.fit_omega_slope:.1e}), worst pde residual "
            f"{worst_pde:.2e} of bound ({time.perf_counter() - t0:.1f}s)")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_operator_oracles():
    t0 = time.perf_counter()
    spec = ProblemSpec.from_expressions(
        a="2/pi*(1 + 0.2*sin(pi*x))",
        b="-u3*(1 + x/2) + 0.3*cos(pi*x)*u4 - 0.7*u2 + 0.25*x*u1")
    ctx = periodic.operator_context(spec, 0.0, 64)
    rng = np.random.default_rng(42)
    worst = 0.0
    ks = np.arange(7)
    for _ in range(10):
        v = random_field(rng, 6, 64)
        omega = rng.uniform(0.85, 1.15)
        tau = rng.uniform(0.3, 2.0)
        at = plan_at(ctx, ks, omega, tau)
        errC = np.max(np.abs(periodic.apply_C(v, at) - oracle_C(v, omega, ctx)))
        errD = np.max(np.abs(periodic.apply_D(v, at) - oracle_D(v, omega, ctx)))
        errB = np.max(np.abs(periodic.apply_B(v, at) - apply_JK(v, omega, tau, ctx)))
        worst = max(worst, errC, errD, errB)

    # invariant bundle
    co = ctx.coeffs
    ok_pointwise = (np.max(np.abs(co.b1 + co.b2 - co.b5)) < 1e-12
                    and np.max(np.abs(co.b1 - co.b2
                                      - (-co.ax + co.b6 / co.a))) < 1e-12)
    ke = kernels(co)
    pts = rng.uniform(0, 1, (20, 3))
    add_err = max(abs(ke.A(x, xi) + ke.A(xi, eta) - ke.A(x, eta))
                  for x, xi, eta in pts)
    v, ks = random_field(rng, 5, 64), np.arange(6)
    phi = rng.uniform(0, 2 * np.pi)
    at = plan_at(ctx, ks, 1.05, 0.8)
    equi = np.max(np.abs(periodic.apply_B(time_shifted(v, phi), at)
                         - time_shifted(periodic.apply_B(v, at), phi)))
    sym = max(np.max(np.abs(periodic.apply_B(v, at)[0].imag)),
              np.max(np.abs(periodic.apply_C(v, at)[0].imag)))
    # boundary rows: the operator image reflects the input at the edges
    # (component 1 at x=0 is minus the input's component 2, component 2 at
    # x=1 copies the input's component 1), so any fixed point satisfies
    # the boundary conditions exactly
    img = periodic.apply_C(v, at) + periodic.apply_D(periodic.apply_B(v, at), at)
    bc_err = max(np.max(np.abs(img[:, 0, 0] + v[:, 1, 0])),
                 np.max(np.abs(img[:, 1, -1] - v[:, 0, -1])))
    ok = (worst < 1e-8 and ok_pointwise and add_err < 1e-8 and equi < 1e-10
          and sym == 0.0 and bc_err < 1e-12)
    _report(5, ok,
            f"worst oracle gap {worst:.2e}, kernel additivity {add_err:.2e}, "
            f"shift equivariance {equi:.2e}, boundary rows {bc_err:.2e} "
            f"({time.perf_counter() - t0:.1f}s)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_resonance_detection():
    t0 = time.perf_counter()
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    co = linearize(spec, 0.0, 128)
    tau0 = 1.3
    scan = dict(eigen.check_A2(tau0, 5, co))
    scan_fails = scan[3] < 1e-6 and scan[-3] < 1e-6
    shot = eigen.shoot_evp(1j, tau0, co)
    u_star, u_star_prime, U_star = eigen.solve_adjoint(tau0, co)
    cert = eigen.HopfCertificate(
        tau0=tau0, u0=shot.u, u0_prime=shot.u_prime, u_star=u_star,
        u_star_prime=u_star_prime, U_star=U_star, sigma=1.0, sigma_raw=1.0,
        rho=0.0, fredholm=0.0, a2_scan=list(scan.items()),
        flags={"pass": False}, coeffs=co)
    ctx = periodic.operator_context(spec, 0.0, 32)
    basis = periodic.mode_basis(cert, ctx)
    raised = False
    try:
        periodic.newton_solve(periodic.predictor(basis, 0.01, 4, ctx), ctx, basis)
    except JacobianSingular:
        raised = True
    _report(6, scan_fails and raised,
            f"|D(3i)| = {scan[3]:.2e} below tolerance, JacobianSingular "
            f"raised: {raised} ({time.perf_counter() - t0:.1f}s)")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_time_domain_period(cert_down, ctx_down, super_orbit):
    # empirical consistency check on the dissipative supercritical
    # orientation of the benchmark (the sign-flipped orientation is
    # anti-damped at high frequencies and has no stable orbit to simulate)
    t0 = time.perf_counter()
    sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=128)
    state = seed_from_orbit(sim, super_orbit, ctx_down)
    period = timedomain.run_to_orbit(sim, state, 150.0).period
    expected = 2 * np.pi / super_orbit.omega
    rel = abs(period - expected) / expected
    _report(7, rel < 0.02,
            f"simulated period {period:.6f} vs 2 pi / omega = {expected:.6f} "
            f"(rel {100 * rel:.3f}%) ({time.perf_counter() - t0:.1f}s)")
