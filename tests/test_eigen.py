import numpy as np
import pytest

from hopfwave import eigen
from hopfwave.errors import NoConvergence, ResidualAboveTolerance, RhoZero
from hopfwave.model import ProblemSpec, linearize
from hopfwave.quadrature import integral

from conftest import sin_convention
from oracles import a2_scan_per_k, compute_sigma_rho, step_matrices_matmul

TAU0 = np.pi / 2


@pytest.fixture(scope="module")
def co_up(spec_cubic_up):
    return linearize(spec_cubic_up, 0.0, 256)


def characteristic_root_crossing_speed(c):
    """Independent oracle for the crossing speed of the constant-speed
    benchmark with b4 = b5 = c: Newton on the mode-1 characteristic
    equation mu^2 - c*mu - c*e^{-mu tau} + 1 = 0, differenced in tau."""
    def root(tau):
        mu = 1j
        for _ in range(60):
            h = mu * mu - c * mu - c * np.exp(-mu * tau) + 1
            hp = 2 * mu - c + c * tau * np.exp(-mu * tau)
            mu = mu - h / hp
        return mu
    d = 1e-6
    return (root(TAU0 + d).real - root(TAU0 - d).real) / (2 * d)


def test_shoot_benchmark(co_up):
    res = eigen.shoot_evp(1j, TAU0, co_up)
    assert abs(res.D) < 1e-8
    x = co_up.x
    assert np.max(np.abs(res.u - (2 / np.pi) * np.sin(np.pi * x / 2))) < 1e-9


def test_shoot_no_delay_constant():
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    co = linearize(spec, 0.0, 256)
    res = eigen.shoot_evp(1j, 0.7, co)
    assert abs(res.D) < 1e-9          # cos(pi/2) = 0, delay term absent
    spec1 = ProblemSpec.from_expressions(a="1", b="0*u1")
    co1 = linearize(spec1, 0.0, 64)
    res1 = eigen.shoot_evp(0.0, 0.7, co1)
    assert res1.D == pytest.approx(1.0, abs=1e-12)   # u'' = 0 -> u = x
    assert np.max(np.abs(res1.u - co1.x)) < 1e-12


def rk4_reference(P, Q, M):
    """Textbook RK4 for (u, u')' = (u', P u + Q u'), one stage at a time."""
    def f(i, y):
        return np.array([y[1], P[i] * y[0] + Q[i] * y[1]])

    h = 1.0 / M
    u, up = [0j], [1 + 0j]
    for j in range(M):
        y = np.array([u[-1], up[-1]])
        k1 = f(2 * j, y)
        k2 = f(2 * j + 1, y + 0.5 * h * k1)
        k3 = f(2 * j + 1, y + 0.5 * h * k2)
        k4 = f(2 * j + 2, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        u.append(y[0])
        up.append(y[1])
    return np.array(u), np.array(up)


def test_shoot_matches_stagewise_rk4():
    # the step-matrix kernel regroups the RK4 arithmetic; it must agree with
    # the stage-by-stage form to rounding, for coefficients that differ
    # at every node and midpoint
    rng = np.random.default_rng(5)
    M = 64
    P = rng.uniform(-20, 5, 2 * M + 1) + 1j * rng.uniform(-5, 5, 2 * M + 1)
    Q = rng.uniform(-2, 2, 2 * M + 1) + 1j * rng.uniform(-2, 2, 2 * M + 1)
    u, up = eigen._shoot(P, Q, M)
    u_ref, up_ref = rk4_reference(P, Q, M)
    scale = max(np.max(np.abs(u_ref)), np.max(np.abs(up_ref)))
    assert np.max(np.abs(u - u_ref)) < 1e-13 * scale
    assert np.max(np.abs(up - up_ref)) < 1e-13 * scale


def stacked(entries):
    """(T00, T01, T10, T11) as one (..., 2, 2) array."""
    t00, t01, t10, t11 = entries
    return np.stack([np.stack([t00, t01], -1), np.stack([t10, t11], -1)], -2)


def test_step_matrices_match_stacked_matmul(co_up, cert_down):
    # the elementwise build keeps matrix-product order, so with Q = 0 (every
    # shipped problem) it equals the stacked 2x2 build bit for bit; a BLAS
    # may fuse the two products of a row, so for Q != 0 it is rounding
    rng = np.random.default_rng(11)
    M = 64
    P = rng.uniform(-20, 5, (3, 2 * M + 1)) + 1j * rng.uniform(-5, 5, (3, 2 * M + 1))
    Q = rng.uniform(-2, 2, (3, 2 * M + 1)) + 1j * rng.uniform(-2, 2, (3, 2 * M + 1))
    for Q_case in (np.zeros(2 * M + 1), -0.0 * Q.real):
        T = stacked(eigen._step_matrices(P, Q_case, 1.0 / M))
        assert T.tobytes() == step_matrices_matmul(P, Q_case, M).tobytes()
    T, T_ref = stacked(eigen._step_matrices(P, Q, 1.0 / M)), step_matrices_matmul(P, Q, M)
    assert T.shape == T_ref.shape == (3, M, 2, 2)
    assert np.max(np.abs(T - T_ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(T_ref))
    for co in (co_up, cert_down.coeffs):
        P = np.array([eigen._evp_P(1j * k, TAU0, co) for k in (0, 1, 2, 7)])
        Q = -co.b6 / (co.a * co.a)
        T = stacked(eigen._step_matrices(P, Q, co.h))
        assert T.tobytes() == step_matrices_matmul(P, Q, co.M).tobytes()


def test_batch_rows_equal_single_shots(co_up):
    # each row of a batch is marched elementwise, so it equals its own shot
    # bit for bit; find_tau0's central-difference pair relies on this
    points = [(1j, 1.3 + 1e-7), (1j, 1.3 - 1e-7), (3j, 0.4), (0.2 + 1j, 2.0)]
    assert eigen._mismatches(points, co_up) == [
        eigen.shoot_evp(mu, tau, co_up).D for mu, tau in points]


def test_shoot_fourth_order_variable_coefficients():
    # every coefficient varies in x, so sampling the step's midpoint at
    # its start or end would show up as a lower observed order
    spec = ProblemSpec.from_expressions(
        a="(2/pi)*(1 + 0.3*x^2)",
        b="-u1^3 - (1 + 0.5*sin(3*x))*u2 - (1+x)*u3 + 0.2*exp(x)*u1 + 0.1*x*u4")
    D = [eigen.shoot_evp(1j, 1.3, linearize(spec, 0.0, M)).D
         for M in (32, 64, 128, 256)]
    for d0, d1, d2 in zip(D, D[1:], D[2:]):
        order = np.log2(abs(d0 - d1) / abs(d1 - d2))
        assert 3.8 < order < 4.2


def test_characteristic_symmetries(co_up):
    rng = np.random.default_rng(3)
    for tau in rng.uniform(0.5, 3.0, 4):
        D = eigen.shoot_evp(1j, tau, co_up).D
        assert eigen.shoot_evp(-1j, tau, co_up).D == pytest.approx(np.conj(D), rel=1e-12)
        assert eigen.shoot_evp(1j, tau + 2 * np.pi, co_up).D == pytest.approx(D, rel=1e-12)


def test_characteristic_holomorphy(co_up):
    # Cauchy-Riemann by finite differences of the shooting mismatch
    h = 1e-6
    for mu in (1j, 0.3 + 1.2j):
        d_re = (eigen.shoot_evp(mu + h, TAU0, co_up).D
                - eigen.shoot_evp(mu - h, TAU0, co_up).D) / (2 * h)
        d_im = (eigen.shoot_evp(mu + 1j * h, TAU0, co_up).D
                - eigen.shoot_evp(mu - 1j * h, TAU0, co_up).D) / (2 * h)
        assert d_im == pytest.approx(1j * d_re, rel=1e-5, abs=1e-5)


def test_find_tau0(co_up):
    tau0 = eigen.find_tau0(1.4, co_up)
    assert tau0 == pytest.approx(TAU0, abs=1e-8)
    shifted = eigen.find_tau0(1.4 + 2 * np.pi, co_up)
    assert shifted == pytest.approx(TAU0 + 2 * np.pi, abs=1e-8)
    assert eigen.shoot_evp(1j, shifted, co_up).D == pytest.approx(
        eigen.shoot_evp(1j, tau0, co_up).D, abs=1e-10)


def test_find_tau0_iteration_cap(co_up, monkeypatch):
    # one Gauss-Newton step from 0.3 descends but cannot reach TOL_EIG
    monkeypatch.setattr(eigen, "TAU_MAX_ITER", 1)
    monkeypatch.setattr(eigen, "TAU_RESTARTS", 0)
    with pytest.raises(NoConvergence, match="tau iteration cap hit") as info:
        eigen.find_tau0(0.3, co_up)
    assert np.isfinite(info.value.last_good)


def test_find_tau0_no_delay_dependence():
    # without a delay term the mismatch cannot be driven to zero
    spec = ProblemSpec.from_expressions(a="1", b="-u3")
    co = linearize(spec, 0.0, 64)
    with pytest.raises(ResidualAboveTolerance):
        eigen.find_tau0(1.0, co)


def test_a2_scan_detects_steady_resonance(co_up):
    # at c = +1 the constant-speed benchmark has a genuine steady-state
    # resonance: mu = 0 satisfies the same ODE as the critical mode
    scan = eigen.check_A2(TAU0, 10, co_up)
    by_k = dict(scan)
    assert set(by_k) == {0} | {s * k for k in range(2, 11) for s in (1, -1)}
    assert by_k[0] < 1e-8
    others = [d for k, d in scan if k != 0]
    assert min(others) > 1e-6


def test_a2_scan_clean_for_damped_benchmark(spec_cubic_down):
    co = linearize(spec_cubic_down, 0.0, 256)
    scan = eigen.check_A2(TAU0, 50, co)
    assert min(d for _, d in scan) > 1e-6


def test_a2_scan_flags_odd_modes_of_transport_problem():
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    co = linearize(spec, 0.0, 256)
    scan = eigen.check_A2(1.3, 5, co)
    by_k = dict(scan)
    assert by_k[3] < 1e-6 and by_k[-3] < 1e-6
    assert by_k[0] == pytest.approx(1.0, abs=1e-9)   # u'' = 0 case: D = u'(1) = 1
    assert by_k[2] > 1e-3 and by_k[4] > 1e-3


@pytest.mark.parametrize("b_text,tau,K_max", [
    ("-u1^3/6 - u2 - u3", TAU0, 50),    # benchmark_super
    ("u1^3/6 + u2 + u3", TAU0, 50),     # steady resonance at c = +1
    ("u1^3/6 + u2 + u3", TAU0, 13),     # 12 rows: the last block is short
    ("0*u1", 1.3, 50),                  # pure transport
])
def test_a2_scan_matches_per_k_shots(b_text, tau, K_max):
    # the batched, mirrored scan equals one scalar shot per k over the
    # stacked-matmul step matrices, both signs of k, bit for bit
    co = linearize(ProblemSpec.from_expressions(a="2/pi", b=b_text), 0.0, 256)
    assert eigen.check_A2(tau, K_max, co) == a2_scan_per_k(tau, K_max, co)


@pytest.mark.parametrize("M, K_max", [
    (64, 7),        # 7 rows: one block of step matrices
    (128, 120),     # 120 rows: blocks of 13 steps, the last one short
])
def test_a2_scan_matches_shots_variable_coefficients(M, K_max):
    # Q != 0 and every coefficient varies in x; the scan's array kernel
    # must still give each |D(ik)| of the scalar shot bit for bit
    spec = ProblemSpec.from_expressions(
        a="(2/pi)*(1 + 0.3*x^2)",
        b="-u1^3 - (1 + 0.5*sin(3*x))*u2 - (1+x)*u3 + 0.2*exp(x)*u1 + 0.1*x*u4")
    co = linearize(spec, 0.0, M)
    assert np.any(co.b6 != 0.0)
    scan = eigen.check_A2(1.3, K_max, co)
    assert [k for k, _ in scan] == [k for k in range(-K_max, K_max + 1)
                                    if abs(k) != 1]
    for k, d in scan:
        shot = abs(eigen.shoot_evp(1j * k, 1.3, co).D)
        assert np.float64(d).tobytes() == np.float64(shot).tobytes(), k


def test_mirror_is_exact(co_up, cert_down):
    # all coefficient tables are real, so the -ik shot is the conjugate of
    # the +ik shot and check_A2 may mirror |D| without shooting -ik
    for co in (co_up, cert_down.coeffs):
        for k in range(2, 51):
            D = eigen.shoot_evp(1j * k, TAU0, co).D
            D_mirror = eigen.shoot_evp(-1j * k, TAU0, co).D
            assert D_mirror == D.conjugate()
            assert abs(D_mirror) == abs(D)


def test_adjoint_benchmark(co_up):
    u_star, u_star_prime, U_star = eigen.solve_adjoint(TAU0, co_up)
    x = co_up.x
    target = (2 / np.pi) * np.sin(np.pi * x / 2)
    assert np.max(np.abs(u_star - target)) < 1e-9
    a1 = co_up.a[-1]
    robin = a1 * a1 * u_star_prime[-1]
    assert abs(robin) < 1e-7
    # transported adjoint: closed form for this configuration
    U_expected = (-1 + 1j) * np.cos(np.pi * x / 2) * (2 / np.pi)
    assert np.max(np.abs(U_star - U_expected)) < 1e-9
    # independent quadrature of the defining expression on a fine grid
    xf = np.linspace(0, 1, 4001)
    uf = (2 / np.pi) * np.sin(np.pi * xf / 2)
    tail = np.array([np.trapezoid(np.exp(1j * TAU0) * uf[i:], xf[i:])
                     for i in range(0, 4001, 250)])
    a0 = 2 / np.pi
    oracle = -a0 * np.cos(np.pi * xf[::250] / 2) + tail / a0
    probe = np.interp(xf[::250], x, U_star.real) \
        + 1j * np.interp(xf[::250], x, U_star.imag)
    assert np.max(np.abs(probe - oracle)) < 1e-6


def test_adjoint_tail_free_case():
    # b3 = b4 = 0 -> no tail integral in the transported adjoint; the pure
    # transport problem keeps the adjoint Robin row valid at any tau
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    co = linearize(spec, 0.0, 256)
    u_star, u_star_prime, U_star = eigen.solve_adjoint(0.9, co)
    an, axn, b6n = co.nodes("a"), co.nodes("ax"), co.nodes("b6")
    direct = (b6n / an - 2 * axn) * u_star - an * u_star_prime
    assert np.max(np.abs(U_star - direct)) < 1e-12


def test_sigma_rho_benchmark(cert_up):
    data = sin_convention(cert_up)
    assert data.sigma == pytest.approx(-0.5 + 1j * (1 - np.pi / 4), abs=1e-7)
    # crossing speed against the characteristic-root oracle; note the
    # value is +0.84444, not the -1.68888 closed form sometimes quoted
    # for this example (see the acceptance module)
    rho_oracle = characteristic_root_crossing_speed(1.0)
    assert data.rho == pytest.approx(rho_oracle, abs=1e-8)
    assert data.rho == pytest.approx(0.8444406888, abs=1e-9)


def test_sigma_rho_damped_benchmark(cert_down):
    rho_oracle = characteristic_root_crossing_speed(-1.0)
    assert cert_down.rho == pytest.approx(rho_oracle, abs=1e-8)
    assert cert_down.rho == pytest.approx(1 / (1 + (2 + np.pi / 2) ** 2), abs=1e-9)


def test_rho_zero_without_delay_term():
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    co = linearize(spec, 0.0, 128)
    shot = eigen.shoot_evp(1j, 1.0, co)
    u_star, _, _ = eigen.solve_adjoint(1.0, co)
    with pytest.raises(RhoZero):
        compute_sigma_rho(1.0, shot.u, u_star, co)


def test_normalize(cert_up):
    co = cert_up.coeffs
    assert cert_up.sigma == pytest.approx(1.0 + 0.0j, abs=1e-10)
    # rho invariant under the normalization (not just its sign)
    sigma2, rho2 = compute_sigma_rho(cert_up.tau0, cert_up.u0, cert_up.u_star, co)
    assert rho2 == pytest.approx(cert_up.rho, rel=1e-12)
    # u0 untouched by normalization: still the unit-slope shooting solution
    assert cert_up.u0_prime[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_certificate_flags(cert_up, cert_down):
    assert cert_down.flags["pass"] is True
    assert cert_down.low_confidence is False
    # c = +1: everything passes except the steady resonance
    assert cert_up.flags["a1"] and cert_up.flags["a3_rho"] and cert_up.flags["fredholm"]
    assert cert_up.flags["a2"] is False
    assert cert_up.flags["pass"] is False


@pytest.mark.parametrize("bad", [None, np.nan, np.inf], ids=["none", "nan", "inf"])
def test_a2_flag_fails_on_any_nonfinite_row(spec_cubic_down, monkeypatch, bad):
    # a non-finite |D(ik)| fails the scan wherever it sits, not only first
    def scan(tau0, K_max, coeffs):
        rows = [(k, 0.5) for k in range(-K_max, K_max + 1) if abs(k) != 1]
        if bad is not None:
            rows[len(rows) // 2] = (rows[len(rows) // 2][0], bad)
        return rows

    monkeypatch.setattr(eigen, "check_A2", scan)
    cert = eigen.certify(spec_cubic_down, 1.4, M=128, K_max=4)
    assert cert.flags["a1"] is True
    assert cert.flags["a2"] is (bad is None)


def test_certificate_failure_modes():
    no_fred = ProblemSpec.from_expressions(a="2/pi", b="-u2")
    cert = eigen.certify(no_fred, 1.4, M=64, K_max=3)
    assert cert.flags["fredholm"] is False
    resonant = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    cert = eigen.certify(resonant, 1.4, M=128, K_max=4)
    assert cert.flags["a1"] is True         # D vanishes identically in tau
    assert cert.flags["a3_rho"] is False
    assert cert.flags["a2"] is False
    assert cert.flags["pass"] is False
