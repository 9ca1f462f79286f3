import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hopfwave import eigen, periodic
from hopfwave.model import ProblemSpec, linearize
from hopfwave.periodic import FourierField
from hopfwave.quadrature import cumulative_integral, integral
from oracles import (apply_JK, cubic_interp, inner_product, kernels, reconstruct_u,
                     synthesize, time_shifted)

# a problem with x-dependent speed, damping and transport so the kernels
# are nontrivial (b1 != b2, curved characteristics)
GENERAL = dict(a="2/pi*(1 + 0.2*sin(pi*x))",
               b="-u3*(1 + x/2) + 0.3*cos(pi*x)*u4 - 0.7*u2 + 0.25*x*u1")


@pytest.fixture(scope="module")
def gctx():
    spec = ProblemSpec.from_expressions(**GENERAL)
    return periodic.operator_context(spec, 0.0, 64)


def random_field(rng, N, M, decay=1.6):
    f = FourierField.zeros(N, M)
    x = np.linspace(0, 1, M + 1)
    for k in range(N + 1):
        amp = decay ** (-k)
        for j in range(2):
            prof = (rng.normal() + rng.normal() * x
                    + rng.normal() * np.sin(np.pi * x)
                    + rng.normal() * np.cos(2 * np.pi * x))
            prof2 = (rng.normal() * np.cos(np.pi * x) + rng.normal() * x ** 2)
            f.coef[k, j, :] = amp * (prof + (0.0 if k == 0 else 1j * prof2))
    return f.enforce_symmetry()


# ---------------------------------------------------------------------------
# brute-force time-domain oracles: fine time grid, cubic interpolation for
# the characteristic shifts, same x-quadrature weights

def _interp_periodic(samples, t_query):
    """Cubic interpolation of periodic samples over [0, 2pi)."""
    T = len(samples)
    dt = 2 * np.pi / T
    ext = np.concatenate([samples[-2:], samples, samples[:3]])
    return cubic_interp(ext, -2 * dt, dt, np.mod(t_query, 2 * np.pi))


def oracle_C(v, omega, ctx, T=4096):
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(v, t)                    # (T, 2, M+1)
    ke = kernels(ctx.coeffs)
    M = v.M
    xm = ctx.x[:, None]                        # one query row per node
    out = np.empty_like(vals)
    out[:, 0] = (-ke.c1(xm, 0.0) * _interp_periodic(
        vals[:, 1, 0], t + omega * ke.A(xm, 0.0))).T
    out[:, 1] = (ke.c2(xm, 1.0) * _interp_periodic(
        vals[:, 0, M], t - omega * ke.A(xm, 1.0))).T
    return FourierField.analyze(out, v.N)


def oracle_D(f, omega, ctx, T=4096):
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(f, t)
    ke = kernels(ctx.coeffs)
    M = f.M
    out = np.zeros_like(vals)
    # eight target nodes x_m at a time, one source node x_j per pass
    for m0 in range(0, M + 1, 8):
        xm = ctx.x[m0:m0 + 8, None]
        integ = np.empty((2, len(xm), M + 1, T))
        for j in range(M + 1):
            xj = ctx.x[j]
            # component 1: integral over [0, x_m] along the left-going family
            integ[0, :, j] = ke.c1(xm, xj) / ctx.a[j] * _interp_periodic(
                vals[:, 0, j], t + omega * ke.A(xm, xj))
            integ[1, :, j] = ke.c2(xm, xj) / ctx.a[j] * _interp_periodic(
                vals[:, 1, j], t - omega * ke.A(xm, xj))
        cum1, cum2 = cumulative_integral(integ.swapaxes(-1, -2), ctx.h)
        for i in range(len(xm)):
            out[:, 0, m0 + i] = -cum1[i, :, m0 + i]
            out[:, 1, m0 + i] = -(cum2[i, :, -1] - cum2[i, :, m0 + i])
    return FourierField.analyze(out, f.N)


def _oracle_C_per_node(v, omega, ctx, T):
    """oracle_C one node x_m at a time: the reference for its vectorization."""
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(v, t)
    ke = kernels(ctx.coeffs)
    M = v.M
    out = np.empty_like(vals)
    for m in range(M + 1):
        xm = ctx.x[m]
        out[:, 0, m] = -ke.c1(xm, 0.0) * _interp_periodic(
            vals[:, 1, 0], t + omega * ke.A(xm, 0.0))
        out[:, 1, m] = ke.c2(xm, 1.0) * _interp_periodic(
            vals[:, 0, M], t - omega * ke.A(xm, 1.0))
    return FourierField.analyze(out, v.N)


def _oracle_D_per_node(f, omega, ctx, T):
    """oracle_D one node pair (x_m, x_j) at a time: the reference for its
    vectorization."""
    t = 2 * np.pi * np.arange(T) / T
    vals = synthesize(f, t)
    ke = kernels(ctx.coeffs)
    M = f.M
    out = np.zeros_like(vals)
    for m in range(M + 1):
        xm = ctx.x[m]
        # component 1: integral over [0, x_m] along the left-going family
        integ1 = np.empty((T, M + 1))
        integ2 = np.empty((T, M + 1))
        for j in range(M + 1):
            xj = ctx.x[j]
            integ1[:, j] = ke.c1(xm, xj) / ctx.a[j] * _interp_periodic(
                vals[:, 0, j], t + omega * ke.A(xm, xj))
            integ2[:, j] = ke.c2(xm, xj) / ctx.a[j] * _interp_periodic(
                vals[:, 1, j], t - omega * ke.A(xm, xj))
        cum1 = cumulative_integral(integ1, ctx.h)
        cum2 = cumulative_integral(integ2, ctx.h)
        out[:, 0, m] = -cum1[:, m]
        out[:, 1, m] = -(cum2[:, -1] - cum2[:, m])
    return FourierField.analyze(out, f.N)


def test_oracles_equal_their_per_node_loops():
    # the vectorized oracles do the same arithmetic on every point, so they
    # agree bit for bit; coarse grids keep the loops cheap, and 17 nodes
    # leave oracle_D a partial last block of target nodes
    ctx = periodic.operator_context(ProblemSpec.from_expressions(**GENERAL), 0.0, 16)
    rng = np.random.default_rng(7)
    v = random_field(rng, 6, 16)
    omega = rng.uniform(0.8, 1.2)
    assert np.array_equal(oracle_C(v, omega, ctx, T=256).coef,
                          _oracle_C_per_node(v, omega, ctx, T=256).coef)
    assert np.array_equal(oracle_D(v, omega, ctx, T=256).coef,
                          _oracle_D_per_node(v, omega, ctx, T=256).coef)


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
    fast = periodic.apply_C(v, omega, gctx)
    slow = oracle_C(v, omega, gctx)
    assert np.max(np.abs(fast.coef - slow.coef)) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_apply_D_matches_time_domain_oracle(gctx, seed):
    rng = np.random.default_rng(100 + seed)
    f = random_field(rng, 6, 64)
    omega = rng.uniform(0.8, 1.2)
    fast = periodic.apply_D(f, omega, gctx)
    slow = oracle_D(f, omega, gctx)
    assert np.max(np.abs(fast.coef - slow.coef)) < 1e-8


def test_apply_C_trivial_cases():
    spec = ProblemSpec.from_expressions(a="2/pi", b="0*u1")
    ctx = periodic.operator_context(spec, 0.0, 32)
    v = FourierField.zeros(2, 32)
    v.coef[0, 1, :] = 0.7                       # constant k = 0 content
    out = periodic.apply_C(v, 1.3, ctx)
    assert np.allclose(out.coef[0, 0, :], -0.7)
    assert np.allclose(out.coef[0, 1, :], v.coef[0, 0, -1].real)
    # half-period shift: a = 1/pi makes omega*A(1,0) = pi at omega = 1
    spec2 = ProblemSpec.from_expressions(a="1/pi", b="0*u1")
    ctx2 = periodic.operator_context(spec2, 0.0, 32)
    v2 = FourierField.zeros(2, 32)
    v2.coef[1, 1, :] = 0.5 + 0.25j
    out2 = periodic.apply_C(v2, 1.0, ctx2)
    assert out2.coef[1, 0, -1] == pytest.approx(v2.coef[1, 1, 0], rel=1e-9)


def test_apply_D_trivial_cases():
    spec = ProblemSpec.from_expressions(a="1", b="0*u1")
    ctx = periodic.operator_context(spec, 0.0, 32)
    f = FourierField.zeros(2, 32)
    out = periodic.apply_D(f, 1.0, ctx)
    assert out.max_abs() == 0.0
    f.coef[0, 0, :] = 1.0
    out = periodic.apply_D(f, 1.0, ctx)
    assert np.max(np.abs(out.coef[0, 0, :] - (-ctx.x))) < 1e-12


def test_apply_B_zero_field(gctx):
    v = FourierField.zeros(5, 64)
    assert periodic.apply_B(v, 1.0, 0.7, gctx).max_abs() == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_apply_B_linear_equals_JK(gctx, seed):
    rng = np.random.default_rng(200 + seed)
    v = random_field(rng, 6, 64)
    omega, tau = rng.uniform(0.8, 1.2), rng.uniform(-1.0, 2.0)
    lin = apply_JK(v, omega, tau, gctx)
    full = periodic.apply_B(v, omega, tau, gctx)
    assert np.max(np.abs(lin.coef - full.coef)) < 1e-10


def test_apply_B_cubic_harmonic_content():
    spec = ProblemSpec.from_expressions(a="1", b="u1^3")
    ctx = periodic.operator_context(spec, 0.0, 32)
    rng = np.random.default_rng(9)
    v = FourierField.zeros(5, 32)
    prof = rng.normal(size=33) + 1j * rng.normal(size=33)
    v.coef[1, 0, :] = prof
    v.coef[1, 1, :] = -np.conj(prof) * 0.4
    out = periodic.apply_B(v, 1.0, 0.5, ctx)
    for k in (0, 2, 4, 5):
        assert np.max(np.abs(out.coef[k])) < 1e-13, f"harmonic {k} leaked"
    assert np.max(np.abs(out.coef[1])) > 1e-3
    assert np.max(np.abs(out.coef[3])) > 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_shift_equivariance(gctx, seed):
    rng = np.random.default_rng(300 + seed)
    v = random_field(rng, 5, 64)
    omega, tau, phi = rng.uniform(0.8, 1.2), rng.uniform(0.2, 2.0), rng.uniform(0, 2 * np.pi)
    a = periodic.apply_B(time_shifted(v, phi), omega, tau, gctx)
    b = time_shifted(periodic.apply_B(v, omega, tau, gctx), phi)
    assert np.max(np.abs(a.coef - b.coef)) < 1e-11


def test_operations_preserve_conjugate_symmetry(gctx):
    # the stored representation pins k = 0 to be real; a synthesized field
    # is therefore real since negative harmonics are conjugates
    rng = np.random.default_rng(77)
    v = random_field(rng, 5, 64)
    for out in (periodic.apply_C(v, 1.1, gctx),
                periodic.apply_D(v, 1.1, gctx),
                periodic.apply_B(v, 1.1, 0.6, gctx)):
        assert np.max(np.abs(out.coef[0].imag)) == 0.0
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
    orb0 = periodic.predictor(cert_up, 0.0, 6, ctx_up)
    assert orb0.v.max_abs() == 0.0 and orb0.omega == 1.0 and orb0.tau == cert_up.tau0
    eps = 0.01
    orb = periodic.predictor(cert_up, eps, 6, ctx_up)
    basis = periodic.mode_basis(cert_up, ctx_up)
    proj = basis.projection(orb.v, ctx_up.h)
    assert proj.real / basis.nrm == pytest.approx(eps, abs=1e-12)
    assert proj.imag == pytest.approx(0.0, abs=1e-14)
    # reconstructed displacement is eps * Re(e^{it} u0) at leading order
    rec = reconstruct_u(orb, ctx_up)
    u0 = cert_up.eigenpair.u0[::4]
    for i, t in enumerate(rec.times[:5]):
        expect = eps * (np.exp(1j * t) * u0).real
        assert np.max(np.abs(rec.u[i] - expect)) < 1e-9


def test_residual_of_zero_predictor(cert_up, ctx_up):
    basis = periodic.mode_basis(cert_up, ctx_up)
    orb = periodic.predictor(cert_up, 0.0, 6, ctx_up)
    r = periodic.residual(orb, ctx_up, basis)
    field_part = r[:-2]
    assert np.max(np.abs(field_part)) == 0.0


def test_critical_mode_is_linear_fixed_point(cert_up, ctx_up):
    orb = periodic.predictor(cert_up, 1.0, 6, ctx_up)
    v = orb.v
    lin = (v.coef
           - periodic.apply_C(v, 1.0, ctx_up).coef
           - periodic.apply_D(
               apply_JK(v, 1.0, cert_up.tau0, ctx_up), 1.0, ctx_up).coef)
    assert np.max(np.abs(lin)) < 5e-9


def test_omega_sensitivity_matches_unit_imaginary(cert_up, ctx_up):
    # directional derivative in omega of the k = 1 residual block (in its
    # differential form: transport operator minus the linearized source),
    # projected on the adjoint field, must be the unit imaginary number
    # when the adjoint pairing is normalized to 1
    cert, ctx = cert_up, ctx_up
    co = cert.coeffs
    stride = co.M // ctx.coeffs.M
    adj = cert.adjoint
    us = adj.u_star[::stride]
    Us = adj.U_star[::stride]
    h = ctx.h
    vstar = np.stack([us + 1j * Us, us - 1j * Us])
    basis = periodic.mode_basis(cert, ctx)

    def project(coef1):
        return complex(integral(np.sum(coef1 * np.conj(vstar), axis=0), h))

    def jk_k1(omega):
        v = FourierField.zeros(3, ctx.coeffs.M)
        v.coef[1] = 0.5 * basis.v0
        return apply_JK(v, omega, cert.tau0, ctx).coef[1]

    # d/d omega of the transport part is the plain time derivative: the
    # k = 1 block picks up i * v0 / 2
    d = 1e-6
    d_source = (jk_k1(1.0 + d) - jk_k1(1.0 - d)) / (2 * d)
    dH = project(1j * 0.5 * basis.v0 - d_source)
    assert dH == pytest.approx(1j, abs=2e-5)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 4), M=st.integers(3, 9), data=st.data())
def test_packing_round_trip(N, M, data):
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    n = 2 * (M + 1) * (2 * N + 1)
    z = data.draw(hnp.arrays(np.float64, n, elements=finite))
    assert np.array_equal(FourierField.flatten(FourierField.unflatten(z, N, M)), z)
    shape = (N + 1, 2, M + 1)
    v = FourierField(data.draw(hnp.arrays(np.float64, shape, elements=finite))
                     + 1j * data.draw(hnp.arrays(np.float64, shape, elements=finite)))
    back = FourierField.unflatten(v.flatten(), N, M)
    assert np.array_equal(back.coef, v.copy().enforce_symmetry().coef)
    assert np.all(back.coef[0].imag == 0.0)


def test_packing_order():
    # Re v_0, then Re v_k and Im v_k per harmonic, each (component, node)
    N, M = 2, 3
    v = FourierField.zeros(N, M)
    v.coef[2, 1, 3] = 2.0 - 5.0j
    z = v.flatten()
    blk = 2 * (M + 1)
    assert z[blk + 2 * blk + 1 * (M + 1) + 3] == 2.0
    assert z[blk + 2 * blk + blk + 1 * (M + 1) + 3] == -5.0
    assert np.count_nonzero(z) == 2


def test_operators_accept_batch_axis(gctx):
    rng = np.random.default_rng(41)
    fields = [random_field(rng, 5, 64) for _ in range(3)]
    batch = FourierField(np.stack([f.coef for f in fields]))
    omega, tau = 1.07, 0.9
    for op in (lambda v: periodic.apply_C(v, omega, gctx),
               lambda v: periodic.apply_D(v, omega, gctx),
               lambda v: apply_JK(v, omega, tau, gctx)):
        out = op(batch).coef
        for i, f in enumerate(fields):
            assert np.allclose(out[i], op(f).coef, rtol=0, atol=1e-13)
    flat = batch.flatten()
    for i, f in enumerate(fields):
        assert np.array_equal(flat[i], f.flatten())
