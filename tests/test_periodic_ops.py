import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hopfwave import exprlang, periodic
from hopfwave.model import ProblemSpec, displacement
from hopfwave.quadrature import cumulative_integral, integral
from oracles import (analyze, apply_D_unplanned, apply_JK, inner_product,
                     interp_periodic, kernels, oracle_C, oracle_D, plan_at,
                     random_field, reconstruct_u, synthesize, time_shifted)

# a problem with x-dependent speed, damping and transport so the kernels
# are nontrivial (b1 != b2, curved characteristics)
GENERAL = dict(a="2/pi*(1 + 0.2*sin(pi*x))",
               b="-u3*(1 + x/2) + 0.3*cos(pi*x)*u4 - 0.7*u2 + 0.25*x*u1")


@pytest.fixture(scope="module")
def gctx():
    spec = ProblemSpec.from_expressions(**GENERAL)
    return periodic.operator_context(spec, 0.0, 64)


# per-node loops: the references for the vectorized oracles in oracles.py

def _oracle_C_per_node(v, omega, ctx, T):
    """oracle_C one node x_m at a time: the reference for its vectorization."""
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(v, t)
    ke = kernels(ctx.coeffs)
    M = v.shape[-1] - 1
    out = np.empty_like(vals)
    for m in range(M + 1):
        xm = ctx.x[m]
        out[:, 0, m] = -ke.c1(xm, 0.0) * interp_periodic(
            vals[:, 1, 0], t + omega * ke.A(xm, 0.0))
        out[:, 1, m] = ke.c2(xm, 1.0) * interp_periodic(
            vals[:, 0, M], t - omega * ke.A(xm, 1.0))
    return analyze(out, v.shape[-3] - 1)


def _oracle_D_per_node(f, omega, ctx, T):
    """oracle_D one node pair (x_m, x_j) at a time: the reference for its
    vectorization."""
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(f, t)
    ke = kernels(ctx.coeffs)
    M = f.shape[-1] - 1
    out = np.zeros_like(vals)
    for m in range(M + 1):
        xm = ctx.x[m]
        # component 1: integral over [0, x_m] along the left-going family
        integ1 = np.empty((T, M + 1))
        integ2 = np.empty((T, M + 1))
        for j in range(M + 1):
            xj = ctx.x[j]
            integ1[:, j] = ke.c1(xm, xj) / ctx.a[j] * interp_periodic(
                vals[:, 0, j], t + omega * ke.A(xm, xj))
            integ2[:, j] = ke.c2(xm, xj) / ctx.a[j] * interp_periodic(
                vals[:, 1, j], t - omega * ke.A(xm, xj))
        cum1 = cumulative_integral(integ1, ctx.h)
        cum2 = cumulative_integral(integ2, ctx.h)
        out[:, 0, m] = -cum1[:, m]
        out[:, 1, m] = -(cum2[:, -1] - cum2[:, m])
    return analyze(out, f.shape[-3] - 1)


def test_oracles_equal_their_per_node_loops():
    # the vectorized oracles do the same arithmetic on every point, so they
    # agree bit for bit; coarse grids keep the loops cheap, and 17 nodes
    # leave oracle_D a partial last block of target nodes
    ctx = periodic.operator_context(ProblemSpec.from_expressions(**GENERAL), 0.0, 16)
    rng = np.random.default_rng(7)
    v = random_field(rng, 6, 16)
    omega = rng.uniform(0.8, 1.2)
    assert np.array_equal(oracle_C(v, omega, ctx, T=256),
                          _oracle_C_per_node(v, omega, ctx, T=256))
    assert np.array_equal(oracle_D(v, omega, ctx, T=256),
                          _oracle_D_per_node(v, omega, ctx, T=256))


@pytest.mark.parametrize("ctx_name", ["ctx_up", "gctx"])
def test_kernel_oracle_tables_match_operator_context(request, ctx_name):
    # the point-query oracle behind oracle_C / oracle_D reads the same
    # antiderivative tables as the harmonic operators, bit for bit
    ctx = request.getfixturevalue(ctx_name)
    ke = kernels(ctx.coeffs)
    assert np.array_equal(ke.F_nodes, ctx.F)
    assert np.array_equal(np.exp(ke.logE1_nodes), ctx.E1)
    assert np.array_equal(np.exp(ke.logE2_nodes), ctx.E2)
    # and its cubic queries at the nodes return those tables
    assert np.allclose(ke.A(ctx.x, 0.0), ctx.F, rtol=0, atol=1e-14)
    assert np.allclose(ke.c1(0.0, ctx.x), ctx.E1, rtol=1e-14, atol=0)
    assert np.allclose(ke.c2(ctx.x, 0.0), ctx.E2, rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_apply_C_matches_time_domain_oracle(gctx, seed):
    rng = np.random.default_rng(seed)
    v = random_field(rng, 6, 64)
    omega = rng.uniform(0.8, 1.2)
    fast = periodic.apply_C(v, plan_at(gctx, np.arange(7), omega))
    slow = oracle_C(v, omega, gctx)
    assert np.max(np.abs(fast - slow)) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_apply_D_matches_time_domain_oracle(gctx, seed):
    rng = np.random.default_rng(100 + seed)
    f = random_field(rng, 6, 64)
    omega = rng.uniform(0.8, 1.2)
    fast = periodic.apply_D(f, plan_at(gctx, np.arange(7), omega))
    slow = oracle_D(f, omega, gctx)
    assert np.max(np.abs(fast - slow)) < 1e-8


def test_apply_C_trivial_cases():
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    ctx = periodic.operator_context(spec, 0.0, 32)
    v, ks = np.zeros((3, 2, 33), dtype=complex), np.arange(3)
    v[0, 1, :] = 0.7                            # constant k = 0 content
    out = periodic.apply_C(v, plan_at(ctx, ks, 1.3))
    assert np.allclose(out[0, 0, :], -0.7)
    assert np.allclose(out[0, 1, :], v[0, 0, -1].real)
    # half-period shift: a = 1/pi makes omega*A(1,0) = pi at omega = 1
    spec2 = ProblemSpec.from_expressions(a="1/pi", b="0*u1")
    ctx2 = periodic.operator_context(spec2, 0.0, 32)
    v2 = np.zeros((3, 2, 33), dtype=complex)
    v2[1, 1, :] = 0.5 + 0.25j
    out2 = periodic.apply_C(v2, plan_at(ctx2, ks, 1.0))
    assert out2[1, 0, -1] == pytest.approx(v2[1, 1, 0], rel=1e-9)


def test_apply_D_trivial_cases():
    spec = ProblemSpec.from_expressions(a="1", b="0*u1")
    ctx = periodic.operator_context(spec, 0.0, 32)
    f, ks = np.zeros((3, 2, 33), dtype=complex), np.arange(3)
    out = periodic.apply_D(f, plan_at(ctx, ks, 1.0))
    assert np.max(np.abs(out)) == 0.0
    f[0, 0, :] = 1.0
    out = periodic.apply_D(f, plan_at(ctx, ks, 1.0))
    assert np.max(np.abs(out[0, 0, :] - (-ctx.x))) < 1e-12


def test_apply_B_zero_field(gctx):
    v = np.zeros((6, 2, 65), dtype=complex)
    at = plan_at(gctx, np.arange(6), 1.0, 0.7)
    assert np.max(np.abs(periodic.apply_B(v, at))) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_apply_B_linear_equals_JK(gctx, seed):
    rng = np.random.default_rng(200 + seed)
    v = random_field(rng, 6, 64)
    omega, tau = rng.uniform(0.8, 1.2), rng.uniform(-1.0, 2.0)
    lin = apply_JK(v, omega, tau, gctx)
    full = periodic.apply_B(v, plan_at(gctx, np.arange(7), omega, tau))
    assert np.max(np.abs(lin - full)) < 1e-10


def test_apply_B_cubic_harmonic_content():
    spec = ProblemSpec.from_expressions(a="1", b="u1^3")
    ctx = periodic.operator_context(spec, 0.0, 32)
    rng = np.random.default_rng(9)
    v = np.zeros((6, 2, 33), dtype=complex)
    prof = rng.normal(size=33) + 1j * rng.normal(size=33)
    v[1, 0, :] = prof
    v[1, 1, :] = -np.conj(prof) * 0.4
    out = periodic.apply_B(v, plan_at(ctx, np.arange(6), 1.0, 0.5))
    for k in (0, 2, 4, 5):
        assert np.max(np.abs(out[k])) < 1e-13, f"harmonic {k} leaked"
    assert np.max(np.abs(out[1])) > 1e-3
    assert np.max(np.abs(out[3])) > 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_shift_equivariance(gctx, seed):
    rng = np.random.default_rng(300 + seed)
    v = random_field(rng, 5, 64)
    omega, tau, phi = rng.uniform(0.8, 1.2), rng.uniform(0.2, 2.0), rng.uniform(0, 2 * np.pi)
    ks = np.arange(6)
    a = periodic.apply_B(time_shifted(v, phi), plan_at(gctx, ks, omega, tau))
    b = time_shifted(periodic.apply_B(v, plan_at(gctx, ks, omega, tau)), phi)
    assert np.max(np.abs(a - b)) < 1e-11


def test_operations_preserve_conjugate_symmetry(gctx):
    # the stored representation pins k = 0 to be real; a synthesized field
    # is therefore real since negative harmonics are conjugates
    rng = np.random.default_rng(77)
    v, ks = random_field(rng, 5, 64), np.arange(6)
    for out in (periodic.apply_C(v, plan_at(gctx, ks, 1.1)),
                periodic.apply_D(v, plan_at(gctx, ks, 1.1)),
                periodic.apply_B(v, plan_at(gctx, ks, 1.1, 0.6))):
        assert np.max(np.abs(out[0].imag)) == 0.0
        t = 2 * np.pi * np.arange(11) / 11
        vals = synthesize(out, t)
        assert np.isrealobj(vals)


def test_inner_product_matches_brute_force(gctx):
    rng = np.random.default_rng(55)
    v = random_field(rng, 4, 64)
    w = random_field(rng, 4, 64)
    T = 512
    t = 2 * np.pi * np.arange(T) / T
    vv, ww = synthesize(v, t), synthesize(w, t)
    brute = integral(np.einsum("tjm,tjm->tm", vv, ww), gctx.h).mean()
    assert inner_product(v, w, gctx.h) == pytest.approx(brute, rel=1e-10)


def test_predictor_properties(cert_up, ctx_up):
    basis = periodic.mode_basis(cert_up, ctx_up)
    orb0 = periodic.predictor(basis, 0.0, 6, ctx_up)
    assert np.max(np.abs(orb0.v)) == 0.0 and orb0.omega == 1.0 and orb0.tau == cert_up.tau0
    eps = 0.01
    orb = periodic.predictor(basis, eps, 6, ctx_up)
    proj = basis.projection(orb.v, ctx_up.h, np.arange(7))
    assert proj.real / basis.nrm == pytest.approx(eps, abs=1e-12)
    assert proj.imag == pytest.approx(0.0, abs=1e-14)
    # reconstructed displacement is eps * Re(e^{it} u0) at leading order
    rec = reconstruct_u(orb, ctx_up)
    u0 = cert_up.u0[::4]
    for i, t in enumerate(rec.times[:5]):
        expect = eps * (np.exp(1j * t) * u0).real
        assert np.max(np.abs(rec.u[i] - expect)) < 1e-9


def test_residual_of_zero_predictor(cert_up, ctx_up):
    basis = periodic.mode_basis(cert_up, ctx_up)
    orb = periodic.predictor(basis, 0.0, 6, ctx_up)
    r = periodic.residual(orb, periodic.harmonic_plan(ctx_up, np.arange(7)), basis)
    field_part = r[:-2]
    assert np.max(np.abs(field_part)) == 0.0


def test_critical_mode_is_linear_fixed_point(cert_up, ctx_up):
    orb = periodic.predictor(periodic.mode_basis(cert_up, ctx_up), 1.0, 6, ctx_up)
    v, ks = orb.v, np.arange(7)
    lin = (v
           - periodic.apply_C(v, plan_at(ctx_up, ks, 1.0))
           - periodic.apply_D(
               apply_JK(v, 1.0, cert_up.tau0, ctx_up), plan_at(ctx_up, ks, 1.0)))
    assert np.max(np.abs(lin)) < 5e-9


def test_omega_sensitivity_matches_unit_imaginary(cert_up, ctx_up):
    # directional derivative in omega of the k = 1 residual block (in its
    # differential form: transport operator minus the linearized source),
    # projected on the adjoint field, must be the unit imaginary number
    # when the adjoint pairing is normalized to 1
    cert, ctx = cert_up, ctx_up
    co = cert.coeffs
    stride = co.M // ctx.coeffs.M
    us = cert.u_star[::stride]
    Us = cert.U_star[::stride]
    h = ctx.h
    vstar = np.stack([us + 1j * Us, us - 1j * Us])
    basis = periodic.mode_basis(cert, ctx)

    def project(coef1):
        return complex(integral(np.sum(coef1 * np.conj(vstar), axis=0), h))

    def jk_k1(omega):
        v = np.zeros((4, 2, ctx.coeffs.M + 1), dtype=complex)
        v[1] = 0.5 * basis.v0
        return apply_JK(v, omega, cert.tau0, ctx)[1]

    # d/d omega of the transport part is the plain time derivative: the
    # k = 1 block picks up i * v0 / 2
    d = 1e-6
    d_source = (jk_k1(1.0 + d) - jk_k1(1.0 - d)) / (2 * d)
    dH = project(1j * 0.5 * basis.v0 - d_source)
    assert dH == pytest.approx(1j, abs=2e-5)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(N=st.integers(0, 4), M=st.integers(3, 9), data=st.data())
def test_packing_round_trip(N, M, data):
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    n = 2 * (M + 1) * (2 * N + 1)
    z = data.draw(hnp.arrays(np.float64, n, elements=finite))
    ks = np.arange(N + 1)
    assert np.array_equal(periodic.flatten(periodic.unflatten(z, ks, M), ks), z)
    shape = (N + 1, 2, M + 1)
    v = (data.draw(hnp.arrays(np.float64, shape, elements=finite))
         + 1j * data.draw(hnp.arrays(np.float64, shape, elements=finite)))
    back = periodic.unflatten(periodic.flatten(v, ks), ks, M)
    want = v.copy()
    want[0] = v[0].real
    assert np.array_equal(back, want)
    assert np.all(back[0].imag == 0.0)


def test_packing_round_trip_odd_harmonics():
    # without a k = 0 block every harmonic keeps its imaginary part
    ks, M = periodic.harmonics(7, True), 4
    rng = np.random.default_rng(5)
    v = rng.normal(size=(4, 2, M + 1)) + 1j * rng.normal(size=(4, 2, M + 1))
    z = periodic.flatten(v, ks)
    assert len(z) == 4 * 4 * (M + 1)
    assert np.array_equal(periodic.unflatten(z, ks, M), v)


@pytest.mark.parametrize("b, odd", [
    ("u1^3/6 + u2 + u3", True), ("sin(u1)", True), ("x*u3^3", True),
    ("u1*u2^2", True), ("u1^2", False), ("cos(u1)", False),
    ("u1 + 1e-3*u1^2", False), ("sqrt(1 + 50*u1)", False)])
def test_oddness_verdict(b, odd):
    # sqrt(1 + 50 u1) leaves its domain on the samples: "not odd", no error
    assert periodic.odd_in_u(exprlang.parse(b), 0.0) is odd


def test_packing_order():
    # Re v_0, then Re v_k and Im v_k per harmonic, each (component, node)
    N, M = 2, 3
    v = np.zeros((N + 1, 2, M + 1), dtype=complex)
    v[2, 1, 3] = 2.0 - 5.0j
    z = periodic.flatten(v, np.arange(N + 1))
    blk = 2 * (M + 1)
    assert z[blk + 2 * blk + 1 * (M + 1) + 3] == 2.0
    assert z[blk + 2 * blk + blk + 1 * (M + 1) + 3] == -5.0
    assert np.count_nonzero(z) == 2


def test_operators_accept_batch_axis(gctx):
    rng = np.random.default_rng(41)
    fields = [random_field(rng, 5, 64) for _ in range(3)]
    batch = np.stack(fields)
    omega, tau, ks = 1.07, 0.9, np.arange(6)
    for op in (lambda v: periodic.apply_C(v, plan_at(gctx, ks, omega)),
               lambda v: periodic.apply_D(v, plan_at(gctx, ks, omega)),
               lambda v: apply_JK(v, omega, tau, gctx)):
        out = op(batch)
        for i, f in enumerate(fields):
            assert np.allclose(out[i], op(f), rtol=0, atol=1e-13)
    flat = periodic.flatten(batch, ks)
    for i, f in enumerate(fields):
        assert np.array_equal(flat[i], periodic.flatten(f, ks))


def test_operators_leave_inputs_unchanged(gctx):
    # fields are bare arrays, so an operator writing into its input would
    # corrupt the caller's state; an imaginary k = 0 part would also reveal
    # a symmetry enforced in place on the input
    rng = np.random.default_rng(43)
    single = random_field(rng, 5, 64)
    single[0] += 1j * random_field(rng, 0, 64)[0]
    batch = np.stack([single, random_field(rng, 5, 64)])
    basis = periodic.ModeBasis(v0=random_field(rng, 1, 64)[1], nrm=1.0, tau0=0.9)
    orbit = periodic.PeriodicOrbit(v=random_field(rng, 5, 64), omega=1.07,
                                   tau=0.9, eps=0.01, lam=0.0)
    ks = np.arange(6)
    for v in (single, batch):
        before = v.copy()
        periodic.apply_C(v, plan_at(gctx, ks, 1.07))
        periodic.apply_D(v, plan_at(gctx, ks, 1.07))
        periodic.apply_B(v, plan_at(gctx, ks, 1.07, 0.9))
        periodic.flatten(v, ks)
        assert np.array_equal(v, before)
    orbit_v = orbit.v.copy()
    plan = periodic.harmonic_plan(gctx, ks)
    tangent = periodic._linearization(orbit, plan, basis)[0]
    n = len(periodic._pack(orbit, ks))
    for dz in (rng.normal(size=n), rng.normal(size=(3, n))):
        before = dz.copy()
        tangent(dz)
        assert np.array_equal(dz, before)
    assert np.array_equal(orbit.v, orbit_v)


def test_planned_results_alive_at_once_keep_their_bytes(gctx):
    # apply_D twice through one plan, as `_transport_domega` does: both calls
    # run the one rule planned for their shape, and each result keeps the
    # bytes of the unplanned arithmetic after the other call; likewise two
    # displacements
    rng = np.random.default_rng(47)
    ks, omega = np.arange(6), 1.07
    f, g = random_field(rng, 5, 64), random_field(rng, 5, 64)
    at = plan_at(gctx, ks, omega)
    first = periodic.apply_D(f, at)
    kept = first.copy()
    second = periodic.apply_D(g, at)
    assert len(at.plan.rules) == 1
    assert first.tobytes() == kept.tobytes()
    assert first.tobytes() == apply_D_unplanned(f, omega, gctx, ks).tobytes()
    assert second.tobytes() == apply_D_unplanned(g, omega, gctx, ks).tobytes()
    J_f = periodic._displacement(f, at.plan)
    kept = J_f.copy()
    J_g = periodic._displacement(g, at.plan)
    assert len(at.plan.rules) == 1
    assert J_f.tobytes() == kept.tobytes()
    for J, v in ((J_f, f), (J_g, g)):
        want = displacement(v[..., 0, :] - v[..., 1, :], gctx.a, gctx.h)
        assert J.tobytes() == want.tobytes()
