from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hopfwave import direction, eigen, periodic
from hopfwave.errors import EvalDomainError, JacobianSingular, NoConvergence
from hopfwave.model import ProblemSpec, linearize
from oracles import jacobian, reconstruct_u, time_shifted


def test_newton_near_hopf_point(cert_up, ctx_up):
    basis = periodic.mode_basis(cert_up, ctx_up)
    guess = periodic.predictor(basis, 1e-3, 8, ctx_up)
    orbit = periodic.newton_solve(guess, ctx_up, basis, max_iter=5)
    assert orbit.residual_norm <= 1e-9
    assert abs(orbit.omega - 1.0) <= 1e-5
    assert abs(orbit.tau - cert_up.tau0) <= 1e-5


def test_newton_eps_zero_returns_zero_orbit(cert_up, ctx_up):
    basis = periodic.mode_basis(cert_up, ctx_up)
    guess = periodic.predictor(basis, 0.0, 8, ctx_up)
    orbit = periodic.newton_solve(guess, ctx_up, basis)
    assert np.max(np.abs(orbit.v)) == 0.0
    assert orbit.omega == 1.0 and orbit.tau == cert_up.tau0


def test_orbit_constraints_hold(super_orbit, cert_down, ctx_down):
    basis = periodic.mode_basis(cert_down, ctx_down)
    proj = basis.projection(super_orbit.v, ctx_down.h)
    assert proj.real / basis.nrm == pytest.approx(super_orbit.eps, abs=1e-10)
    assert proj.imag / basis.nrm == pytest.approx(0.0, abs=1e-10)


def test_phase_circle(super_orbit, cert_down, ctx_down):
    # shifting a converged orbit in time and re-imposing the phase pin
    # reproduces the same orbit
    basis = periodic.mode_basis(cert_down, ctx_down)
    shifted = periodic.PeriodicOrbit(
        v=time_shifted(super_orbit.v, 0.25), omega=super_orbit.omega,
        tau=super_orbit.tau, eps=super_orbit.eps, lam=0.0)
    back = periodic.newton_solve(shifted, ctx_down, basis)
    assert np.max(np.abs(back.v - super_orbit.v)) < 1e-8
    assert back.omega == pytest.approx(super_orbit.omega, abs=1e-8)
    assert back.tau == pytest.approx(super_orbit.tau, abs=1e-8)


def test_branch_scaling_laws(flagship_branch, cert_up):
    # |tau - tau0| grows like eps^2 (log-log slope 2 within 0.1)
    eps = np.array([o.eps for o in flagship_branch.orbits])
    dtau = np.array([abs(o.tau - cert_up.tau0) for o in flagship_branch.orbits])
    slopes = np.diff(np.log(dtau)) / np.diff(np.log(eps))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_branch_frequency_curvature_case():
    # a velocity-argument cubic bends the frequency as well; both laws are
    # quadratic in the amplitude
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u2 - u3 + u3^3/6")
    cert = eigen.certify(spec, 1.4, M=128, K_max=5)
    assert cert.flags["a1"]
    ctx = periodic.operator_context(spec, 0.0, 64)
    br = periodic.continue_branch(cert, [0.02, 0.03, 0.04], ctx, 8)
    eps = np.array([o.eps for o in br.orbits])
    dom = np.array([abs(o.omega - 1.0) for o in br.orbits])
    dtau = np.array([abs(o.tau - cert.tau0) for o in br.orbits])
    for series in (dom, dtau):
        slopes = np.diff(np.log(series)) / np.diff(np.log(eps))
        assert np.all(np.abs(slopes - 2.0) < 0.1)
    assert abs(br.fit_omega_curvature) > 1e-3


def test_branch_requires_valid_grid(cert_up, ctx_up):
    with pytest.raises(ValueError):
        periodic.continue_branch(cert_up, [0.0], ctx_up, 6)
    with pytest.raises(ValueError):
        periodic.continue_branch(cert_up, [0.01, 0.01, 0.02], ctx_up, 6)


def test_lambda_sweep_continuity():
    spec = ProblemSpec.from_expressions(
        a="2/pi", b="-u1^3/6 - u2 - u3 + lambda*u1")
    cert = eigen.certify(spec, 1.4, M=128, K_max=5)
    eps = 0.02
    orbits = {}
    for lam in (0.0, 0.01, 0.02):
        ctx = periodic.operator_context(spec, lam, 64)
        basis = periodic.mode_basis(cert, ctx)
        guess = periodic.predictor(basis, eps, 6, ctx)
        orbits[lam] = periodic.newton_solve(guess, ctx, basis)
    d_small = np.max(np.abs(orbits[0.01].v - orbits[0.0].v))
    d_large = np.max(np.abs(orbits[0.02].v - orbits[0.0].v))
    assert d_small < d_large
    assert d_large < 0.05


def test_branch_at_nonzero_lambda():
    # off the reference parameter the fit keeps a free intercept; the
    # quadratic laws still hold around the shifted root
    spec = ProblemSpec.from_expressions(
        a="2/pi", b="-u1^3/6 - u2 - u3 + lambda*u1")
    cert = eigen.certify(spec, 1.4, M=128, K_max=5)
    ctx = periodic.operator_context(spec, 0.01, 64)
    br = periodic.continue_branch(cert, [0.02, 0.03, 0.04], ctx, 6)
    assert all(o.residual_norm <= 1e-9 for o in br.orbits)
    # curvature close to the lambda = 0 value, continuity in the parameter
    assert br.fit_tau_curvature == pytest.approx((3 / 16) * (2 / np.pi) ** 2,
                                                 rel=0.2)


def test_fit_with_free_intercept_recovers_quadratic():
    eps = [0.01, 0.02, 0.03]
    intercept, slope, curvature = 1.5, -0.3, 0.7
    values = [intercept + slope * e + 0.5 * curvature * e ** 2 for e in eps]
    c, s = periodic._fit_slope_curvature(eps, values, None)
    assert c == pytest.approx(curvature, abs=1e-9)
    assert s == pytest.approx(slope, abs=1e-9)
    # the intercept the free fit absorbed is the one a fixed base removes
    assert periodic._fit_slope_curvature(eps, values, intercept) == pytest.approx(
        (c, s), abs=1e-9)


def test_reconstruct_boundary_conditions(super_orbit, ctx_down):
    rec = reconstruct_u(super_orbit, ctx_down, n_times=40)
    assert np.max(np.abs(rec.u[:, 0])) == 0.0            # Dirichlet edge
    assert np.max(np.abs(rec.u_x[:, -1])) < 1e-7          # Neumann edge
    # scaled-time derivative identity against spectral differentiation
    ks = np.arange(len(super_orbit.v))
    w = np.where(ks == 0, 1.0, 2.0)
    ph = np.exp(1j * np.outer(rec.times, ks)) * w
    u_t_spectral = (ph @ (1j * ks[:, None] * rec.u_hat)).real
    assert np.max(np.abs(rec.u_t - u_t_spectral)) < 1e-9


def test_pde_residual_zero_orbit(ctx_down, cert_down):
    orbit = periodic.predictor(periodic.mode_basis(cert_down, ctx_down), 0.0, 6,
                               ctx_down)
    assert periodic.pde_residual_check(orbit, ctx_down) == 0.0


def test_pde_residual_converges_with_grid(cert_down, spec_cubic_down):
    # quartic convergence of the space discretization: halving h cuts the
    # equation residual by at least 8x until the truncation floor
    eps = 0.08
    res = {}
    for M in (32, 64):
        ctx = periodic.operator_context(spec_cubic_down, 0.0, M)
        basis = periodic.mode_basis(cert_down, ctx)
        guess = periodic.predictor(basis, eps, 6, ctx)
        orbit = periodic.newton_solve(guess, ctx, basis)
        res[M] = periodic.pde_residual_check(orbit, ctx)
    assert res[32] / res[64] >= 8.0


def test_negative_delay_branch():
    # the delay enters the periodic problem only through phase factors, so
    # a negative critical delay continues the same way
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u1^3/6 - u2 - u3")
    co = eigen.linearize(spec, 0.0, 128)
    tau_neg = eigen.find_tau0(np.pi / 2 - 2 * np.pi, co)
    assert tau_neg == pytest.approx(np.pi / 2 - 2 * np.pi, abs=1e-6)
    cert = eigen.certify(spec, tau_neg, M=128, K_max=4)
    assert cert.flags["a1"]
    assert cert.tau0 < 0
    ctx = periodic.operator_context(spec, 0.0, 32)
    basis = periodic.mode_basis(cert, ctx)
    orbit = periodic.newton_solve(periodic.predictor(basis, 0.02, 6, ctx), ctx,
                                  basis)
    assert orbit.tau == pytest.approx(tau_neg, abs=1e-3)
    assert orbit.residual_norm <= 1e-9


def test_no_convergence_names_iteration_limit(cert_down, ctx_down):
    basis = periodic.mode_basis(cert_down, ctx_down)
    guess = periodic.predictor(basis, 0.3, 4, ctx_down)
    with pytest.raises(NoConvergence,
                       match=r"iteration limit 1 after 1 iterations and 1 "
                             r"preconditioner builds"):
        periodic.newton_solve(guess, ctx_down, basis, max_iter=1)


def test_no_convergence_names_line_search():
    # past eps = 0.03 the displacement leaves the domain 1 + 50 u1 > 0 of
    # the square root: trial steps there fail, the line search halves them
    # and finds no descent
    spec = ProblemSpec.from_expressions(
        a="2/pi", b="-u2 - u3 + 0.01*(sqrt(1 + 50*u1) - 1 - 25*u1)")
    cert = eigen.certify(spec, 1.4, M=128, K_max=4)
    ctx = periodic.operator_context(spec, 0.0, 32)
    with pytest.raises(NoConvergence,
                       match=r"line search after \d+ iterations and \d+ "
                             r"preconditioner builds"
                       ) as info:
        periodic.continue_branch(cert, [0.01, 0.02, 0.03, 0.04], ctx, 4)
    assert info.value.last_good == 0.03


def test_dissipative_branch_converges(cert_down, ctx_down):
    # the configs/benchmark_super.json branch: at eps = 0.02 a step with a
    # stale Jacobian barely lowers the residual (3.7e-8 -> 3.3e-8)
    br = periodic.continue_branch(cert_down, [0.01, 0.02, 0.03, 0.04, 0.05],
                                  ctx_down, 8)
    assert all(o.residual_norm <= periodic.TOL_ORBIT for o in br.orbits)
    # below TOL_ORBIT Newton stops at the first step that contracts less
    # than the one before; iterating on rounding noise took up to 9 steps
    assert all(o.stats.iterations <= 5 for o in br.orbits)
    assert all(o.stats.stop in ("roundoff floor", "no decrease")
               for o in br.orbits)
    # the secant through the trivial orbit (eps = 0, omega = 1, tau0) starts
    # the second amplitude as close as the secants start the later ones
    steps = [o.stats.iterations for o in br.orbits]
    assert steps[1] <= min(steps[2:])


def test_flagship_branch_tangent_products(flagship_branch):
    # the secant predictor and the roundoff-floor stop; 179 products
    # without either
    assert sum(o.stats.matvecs for o in flagship_branch.orbits) <= 120
    steps = [o.stats.iterations for o in flagship_branch.orbits]
    assert steps[1] <= min(steps[2:])


@pytest.mark.parametrize("error", [EvalDomainError("not finite"),
                                   NoConvergence("line search")],
                         ids=["domain", "convergence"])
def test_secant_failure_solves_from_previous_orbit(cert_down, spec_cubic_down,
                                                   monkeypatch, error):
    # a failed solve from the secant guess is repeated from the previous
    # orbit, which gives the orbits of a march without the predictor
    ctx = periodic.operator_context(spec_cubic_down, 0.0, 32)
    eps_grid, N = [0.01, 0.02, 0.03, 0.04], 4
    basis = periodic.mode_basis(cert_down, ctx)
    guess = periodic.predictor(basis, eps_grid[0], N, ctx)
    want = []
    for eps in eps_grid:
        guess = periodic.newton_solve(replace(guess, eps=eps), ctx, basis)
        want.append(guess)
    secants, secant, solve = [], periodic._secant, periodic.newton_solve

    def recording(*args):
        secants.append(secant(*args))
        return secants[-1]

    def failing(guess, *args, **kwargs):
        if any(guess is s for s in secants):
            raise error
        return solve(guess, *args, **kwargs)

    monkeypatch.setattr(periodic, "_secant", recording)
    monkeypatch.setattr(periodic, "newton_solve", failing)
    br = periodic.continue_branch(cert_down, eps_grid, ctx, N)
    assert [s.eps for s in secants] == eps_grid[1:]
    for got, ref in zip(br.orbits, want, strict=True):
        assert got.v.tobytes() == ref.v.tobytes()
        assert (got.omega, got.tau) == (ref.omega, ref.tau)
        # distinct rcond arrays: compared apart from the other counts
        assert replace(got.stats, rconds=()) == replace(ref.stats, rconds=())
        assert np.array_equal(got.stats.rconds, ref.stats.rconds)


def test_wrong_odd_verdict_ends_on_all_harmonics(monkeypatch):
    # b with a quadratic term is not odd; forced onto the odd harmonics, the
    # first orbit fails the full residual, is solved again on all
    # harmonics, and the branch ends as the unforced run does
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u2 - u3 + 0.5*u1^2 - u1^3/6")
    cert = eigen.certify(spec, 1.4, M=128, K_max=4)
    ctx = periodic.operator_context(spec, 0.0, 32)
    assert not ctx.odd
    eps_grid, N = [0.01, 0.02, 0.03], 4
    want = periodic.continue_branch(cert, eps_grid, ctx, N)
    carried, newton = [], periodic._newton

    def recording(guess, ks, *args):
        carried.append(len(ks))
        return newton(guess, ks, *args)

    monkeypatch.setattr(periodic, "_newton", recording)
    got = periodic.continue_branch(cert, eps_grid, replace(ctx, odd=True), N)
    assert carried == [2, 5, 5, 5]
    for g, w in zip(got.orbits, want.orbits, strict=True):
        assert g.stats.harmonics == w.stats.harmonics == "all"
        assert g.v.tobytes() == w.v.tobytes()
        assert (g.omega, g.tau, g.residual_norm) == (w.omega, w.tau, w.residual_norm)


def test_newton_resolves_tau_near_hopf_point(cert_up, ctx_up):
    # at eps = 1e-3 the predictor's residual is already small; Newton must
    # still iterate to roundoff to resolve tau - tau0 ~ d2tau eps^2 / 2
    eps = 1e-3
    basis = periodic.mode_basis(cert_up, ctx_up)
    guess = periodic.predictor(basis, eps, 8, ctx_up)
    orbit = periodic.newton_solve(guess, ctx_up, basis)
    assert orbit.residual_norm <= 1e-14
    d2tau = (3 / 16) * (2 / np.pi) ** 2
    assert (orbit.tau - cert_up.tau0) / (d2tau * eps ** 2 / 2) \
        == pytest.approx(1.0, abs=0.15)


def _count_builds(monkeypatch):
    calls = []
    build = periodic.block_preconditioner

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(periodic, "block_preconditioner", counting)
    return calls


def test_flagship_branch_factors_once(cert_up, ctx_up, monkeypatch):
    calls = _count_builds(monkeypatch)
    eps_grid = [0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05]
    periodic.continue_branch(cert_up, eps_grid, ctx_up, 8)
    assert len(calls) == 1


def test_rebuilt_preconditioner_serves_later_amplitudes(cert_down, ctx_down,
                                                         monkeypatch):
    # a stale first build makes GMRES fail; the rebuild inside the first
    # solve goes on with the branch instead of one rebuild per amplitude
    N, calls = 8, []
    build = periodic.block_preconditioner

    def stale_first(*args):
        calls.append(1)
        if len(calls) == 1:
            return SimpleNamespace(matvec=np.zeros_like, rcond=np.ones(N + 1))
        return build(*args)

    monkeypatch.setattr(periodic, "block_preconditioner", stale_first)
    br = periodic.continue_branch(cert_down, [0.01, 0.02, 0.03, 0.04, 0.05],
                                  ctx_down, N)
    assert len(calls) == 2
    assert all(o.residual_norm <= periodic.TOL_ORBIT for o in br.orbits)
    # only the newest orbit keeps a preconditioner
    assert [o.precond is None for o in br.orbits] == [True] * 4 + [False]


def test_gmres_failure_rebuilds_preconditioner_once(cert_down, ctx_down,
                                                    monkeypatch):
    # a zero preconditioner leaves GMRES short of its tolerance; the solve
    # rebuilds the preconditioner at the current point once and converges
    calls = _count_builds(monkeypatch)
    failed = []
    gmres = periodic.gmres

    def recording(*args):
        step, converged, products = gmres(*args)
        failed.append(not converged)
        return step, converged, products

    monkeypatch.setattr(periodic, "gmres", recording)
    basis = periodic.mode_basis(cert_down, ctx_down)
    guess = periodic.predictor(basis, 0.02, 8, ctx_down)
    zero = SimpleNamespace(matvec=np.zeros_like)
    orbit = periodic.newton_solve(replace(guess, precond=zero), ctx_down, basis)
    assert failed[0]
    assert len(calls) == 1
    assert orbit.residual_norm <= periodic.TOL_ORBIT
    # at the roundoff floor a GMRES shortfall is no reason to rebuild
    again = periodic.newton_solve(replace(orbit, precond=zero), ctx_down, basis)
    assert failed[-1]
    assert len(calls) == 1
    assert again.residual_norm <= orbit.residual_norm


def test_gmres_on_dense_nonsymmetric_system():
    rng = np.random.default_rng(3)
    n, rtol = 40, 1e-10
    A = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    identity = SimpleNamespace(matvec=lambda r: r)
    x, converged, products = periodic.gmres(lambda v: A @ v, b, identity,
                                            rtol, n)
    assert converged and 1 < products < n
    assert np.linalg.norm(b - A @ x) <= rtol * np.linalg.norm(b)
    # the exact inverse as preconditioner leaves one Krylov direction
    exact = SimpleNamespace(matvec=lambda r: np.linalg.solve(A, r))
    x, converged, one = periodic.gmres(lambda v: A @ v, b, exact, rtol, n)
    assert converged and one == 1
    assert np.linalg.norm(b - A @ x) <= rtol * np.linalg.norm(b)
    # a budget below what the solve needs ends unconverged at the budget
    _, converged, short = periodic.gmres(lambda v: A @ v, b, identity, rtol,
                                         products - 1)
    assert not converged and short == products - 1

    def never(v):
        raise AssertionError("no product is needed for b = 0")

    x, converged, none = periodic.gmres(never, np.zeros(n), None, rtol, n)
    assert converged and none == 0 and not np.any(x)


def test_jacobian_matches_central_differences():
    # a non-polynomial b in x, lambda and all four u_j, at lambda != 0
    lam, eps, N, M = 0.02, 0.1, 4, 32
    spec = ProblemSpec.from_expressions(
        a="2/pi", b="-u2 - u3 + 0.1*sin(u1)*u4 + lambda*exp(x)*u1^2", lam=lam)
    cert = eigen.certify(spec, 1.4, M=128, K_max=4)
    ctx = periodic.operator_context(spec, lam, M)
    basis = periodic.mode_basis(cert, ctx)
    orbit = periodic.newton_solve(periodic.predictor(basis, eps, N, ctx), ctx,
                                  basis)
    J, anorm = jacobian(orbit, ctx, basis)
    assert J.flags.f_contiguous
    assert anorm == pytest.approx(np.max(np.sum(np.abs(J), axis=0)), rel=1e-12)
    z, ks = periodic._pack(orbit), np.arange(N + 1)
    J_cd = np.empty_like(J)
    for j in range(len(z)):        # includes the omega and tau columns
        dz = np.zeros(len(z))
        dz[j] = 1e-6 * (1.0 + abs(z[j]))
        r_plus, r_minus = (
            periodic.residual(periodic._unpack(z + dz_s, ks, M, eps, lam), ctx, basis)
            for dz_s in (dz, -dz))
        J_cd[:, j] = (r_plus - r_minus) / (2.0 * dz[j])
    assert np.max(np.abs(J - J_cd)) <= 1e-8 * np.max(np.abs(J))
    assert np.max(np.abs(J[:, -2:] - J_cd[:, -2:])) <= 1e-8 * np.max(np.abs(J))


def test_resonance_detected_with_live_delay_column():
    # u_tt = a^2 u_xx - u + u(t - tau) at tau = 2 pi: the delay cancels the
    # restoring term on every integer harmonic, so +-i and +-3i are both
    # eigenvalues. Unlike b = 0*u1, b_u2 = 1 keeps the tau column nonzero,
    # so the singular Newton matrix can only come from the k = 3 resonance.
    spec = ProblemSpec.from_expressions(a="2/pi", b="u2 - u1")
    co = linearize(spec, 0.0, 128)
    tau0 = 2 * np.pi
    assert abs(eigen.shoot_evp(3j, tau0, co).D) < 1e-6
    shot = eigen.shoot_evp(1j, tau0, co)
    u_star, u_star_prime, U_star = eigen.solve_adjoint(tau0, co)
    cert = eigen.HopfCertificate(
        tau0=tau0, u0=shot.u, u0_prime=shot.u_prime, u_star=u_star,
        u_star_prime=u_star_prime, U_star=U_star,
        sigma=1.0, sigma_raw=1.0, rho=0.0, fredholm=0.0, a2_scan=[],
        flags={"pass": False}, coeffs=co)
    ctx = periodic.operator_context(spec, 0.0, 32)
    basis = periodic.mode_basis(cert, ctx)
    guess = periodic.predictor(basis, 0.01, 4, ctx)
    J, _ = jacobian(guess, ctx, basis)
    assert np.max(np.abs(J[:, -1])) > 1e-3
    # the numerical null space lives on harmonic 3 alone
    _, s, vh = np.linalg.svd(J)
    assert s[-1] < 1e-12 * s[0] and s[-2] < 1e-12 * s[0]
    for vec in vh[-2:]:
        energy = np.sum(np.abs(periodic.unflatten(vec[:-2], np.arange(5), 32)) ** 2,
                        axis=(1, 2))
        assert energy[3] > (1 - 1e-12) * np.sum(np.abs(vec) ** 2)
    with pytest.raises(JacobianSingular):
        periodic.newton_solve(guess, ctx, basis)


def _live_delay_resonance():
    """u_tt = a^2 u_xx - u + u(t - tau) at tau = 2 pi: resonant at +-i and
    +-3i, with a certificate-like mode basis at k = 1 (M_solve 32, N 4)."""
    spec = ProblemSpec.from_expressions(a="2/pi", b="u2 - u1")
    co = linearize(spec, 0.0, 128)
    tau0 = 2 * np.pi
    shot = eigen.shoot_evp(1j, tau0, co)
    u_star, u_star_prime, U_star = eigen.solve_adjoint(tau0, co)
    cert = eigen.HopfCertificate(
        tau0=tau0, u0=shot.u, u0_prime=shot.u_prime, u_star=u_star,
        u_star_prime=u_star_prime, U_star=U_star,
        sigma=1.0, sigma_raw=1.0, rho=0.0, fredholm=0.0, a2_scan=[],
        flags={"pass": False}, coeffs=co)
    ctx = periodic.operator_context(spec, 0.0, 32)
    return cert, ctx, periodic.mode_basis(cert, ctx)


def test_resonance_error_names_harmonic():
    cert, ctx, basis = _live_delay_resonance()
    guess = periodic.predictor(basis, 0.01, 4, ctx)
    with pytest.raises(JacobianSingular, match=r"harmonic 3 \(.*resonance at 3i"
                       ) as info:
        periodic.newton_solve(guess, ctx, basis)
    # the bordered k = 1 block is regular: only the k = 3 block failed
    assert "harmonic 1 " not in str(info.value)


def test_block_preconditioner_inverts_harmonic_diagonal_tangent(
        super_orbit, cert_down, ctx_down):
    # the preconditioner is the exact inverse of the harmonic-diagonal
    # tangent with the exact (omega, tau) columns; a wrong colouring or
    # packing offset breaks the round trip
    basis = periodic.mode_basis(cert_down, ctx_down)
    precond = periodic.block_preconditioner(super_orbit, ctx_down, basis)
    tangent, _ = periodic._tangent(super_orbit, ctx_down, basis,
                                   harmonic_diagonal=True)
    rng = np.random.default_rng(8)
    n = len(periodic._pack(super_orbit))
    for z in rng.normal(size=(3, n)):
        back = precond.matvec(tangent(z))
        assert np.linalg.norm(back - z) <= 1e-10 * np.linalg.norm(z)
    # rcond is each block's exact reciprocal 1-norm condition, not an
    # estimate; the k = 1 block is bordered by the amplitude and phase rows
    # and the (omega, tau) columns
    slices = periodic._harmonic_slices(np.arange(9), 64)
    for k in (0, 1, 8):
        idx = np.r_[slices[k], [n - 2, n - 1] if k == 1 else []].astype(int)
        blk = tangent(np.eye(n)[idx])[:, idx].T
        assert precond.rcond[k] == pytest.approx(1 / np.linalg.cond(blk, 1),
                                                 rel=1e-12)
    # at v = 0 the harmonic-diagonal tangent is the exact tangent
    trivial = periodic.predictor(basis, 0.0, 8, ctx_down)
    z = rng.normal(size=(2, n))
    exact = periodic._tangent(trivial, ctx_down, basis)[0](z)
    diag = periodic._tangent(trivial, ctx_down, basis, harmonic_diagonal=True)[0](z)
    assert np.max(np.abs(diag - exact)) <= 1e-14 * np.max(np.abs(exact))
    # on the odd harmonics alone there is no k = 0 block and k = 1 comes
    # first; the round trip holds, and each block is the full build's
    ks = periodic.harmonics(8, True)
    odd = replace(super_orbit, v=super_orbit.v[ks])
    odd_precond = periodic.block_preconditioner(odd, ctx_down, basis, ks)
    tangent, _ = periodic._tangent(odd, ctx_down, basis, ks, harmonic_diagonal=True)
    n = len(periodic._pack(super_orbit, ks))
    assert odd_precond.inv0 is None and n == 4 * 4 * 65 + 2
    for z in rng.normal(size=(3, n)):
        back = odd_precond.matvec(tangent(z))
        assert np.linalg.norm(back - z) <= 1e-10 * np.linalg.norm(z)
    assert odd_precond.rcond == pytest.approx(precond.rcond[ks], rel=1e-8)


def test_block_build_probe_count(super_orbit, cert_down, ctx_down, monkeypatch):
    directions = []
    tangent = periodic._tangent

    def counting(*args, **kwargs):
        apply, omega_tau = tangent(*args, **kwargs)

        def counted(dz):
            directions.append(int(np.prod(np.shape(dz)[:-1])))
            return apply(dz)
        return counted, omega_tau

    monkeypatch.setattr(periodic, "_tangent", counting)
    basis = periodic.mode_basis(cert_down, ctx_down)
    periodic.block_preconditioner(super_orbit, ctx_down, basis)
    assert sum(directions) == 4 * (ctx_down.coeffs.M + 1)


def test_branch_at_fine_grid_without_dense_matrix(cert_down, spec_cubic_down):
    # N 16 and M_solve 128: a dense Newton matrix would be 8514^2 doubles
    ctx = periodic.operator_context(spec_cubic_down, 0.0, 128)
    br = periodic.continue_branch(cert_down, [0.01, 0.02, 0.03], ctx, 16)
    assert all(o.residual_norm <= periodic.TOL_ORBIT for o in br.orbits)
    dres = direction.compute_direction(spec_cubic_down, cert_down)
    assert abs(br.fit_tau_curvature - dres.d2tau) / abs(dres.d2tau) < 0.05
