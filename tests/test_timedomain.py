import json
from pathlib import Path

import numpy as np
import pytest

from hopfwave import cli, periodic, timedomain
from hopfwave.errors import (CFLViolation, NegativeDelayUnsupported,
                             NoOscillationDetected)
from hopfwave.model import ProblemSpec
from oracles import seed_from_orbit


def test_zero_state_stays_zero(spec_cubic_down):
    sim = timedomain.Simulator(spec_cubic_down, tau=1.0, M=64)
    state = sim.initial_state()
    for _ in range(200):
        state = sim.step(state)
    assert np.max(np.abs(state.v1)) == 0.0
    assert np.max(np.abs(state.v2)) == 0.0


def test_linear_advection_pulse():
    spec = ProblemSpec.from_expressions(a="1", b="0*u1")
    sim = timedomain.Simulator(spec, tau=0.5, M=256)
    x = sim.x
    v2 = np.exp(-((x - 0.3) / 0.05) ** 2)
    state = sim.initial_state(v2=v2)
    t_target = 0.25
    while state.t < t_target:
        state = sim.step(state)
    peak = x[np.argmax(state.v2)]
    assert peak == pytest.approx(0.3 + t_target, abs=0.02)
    assert np.max(state.v2) < 1.0            # first-order smearing
    assert np.max(state.v2) > 0.5
    assert np.max(np.abs(state.v1[:200])) < 1e-12   # left family untouched


def test_negative_delay_rejected(spec_cubic_down):
    with pytest.raises(NegativeDelayUnsupported):
        timedomain.Simulator(spec_cubic_down, tau=-0.5)
    with pytest.raises(NegativeDelayUnsupported):
        timedomain.Simulator(spec_cubic_down, tau=0.0)


def test_cfl_guard(spec_cubic_down):
    with pytest.raises(CFLViolation):
        timedomain.Simulator(spec_cubic_down, tau=1.0, cfl=1.2)
    sim = timedomain.Simulator(spec_cubic_down, tau=1.0, M=64)
    state = sim.initial_state()
    state.dt = 10 * sim.dt
    with pytest.raises(CFLViolation):
        sim.step(state)


def test_boundary_rows_exact(cert_down, ctx_down, super_orbit):
    sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=64)
    state = seed_from_orbit(sim, super_orbit, ctx_down)
    for _ in range(50):
        state = sim.step(state)
        assert state.v1[0] + state.v2[0] == 0.0
        assert state.v1[-1] - state.v2[-1] == 0.0


def test_period_matches_orbit(cert_down, ctx_down, super_orbit):
    sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=128)
    state = seed_from_orbit(sim, super_orbit, ctx_down)
    period, ts, ys, _ = timedomain.run_to_orbit(sim, state, 120.0)
    expected = 2 * np.pi / super_orbit.omega
    assert abs(period - expected) / expected < 0.02


def test_refinement_consistency(cert_down, ctx_down, super_orbit):
    periods = {}
    for M in (64, 128, 256):
        sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=M)
        state = seed_from_orbit(sim, super_orbit, ctx_down)
        periods[M], *_ = timedomain.run_to_orbit(sim, state, 150.0)
    d_coarse = abs(periods[128] - periods[64])
    d_fine = abs(periods[256] - periods[128])
    assert d_fine <= d_coarse + 1e-4


def test_decay_below_floor_detected():
    # on the stable side of the crossing small data spirals back to zero
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u1^3/6 - u2 - u3")
    sim = timedomain.Simulator(spec, tau=1.0, M=64)
    x = sim.x
    state = sim.initial_state(v1=1e-3 * np.sin(np.pi * x / 2),
                              v2=1e-3 * np.sin(np.pi * x / 2))
    with pytest.raises(NoOscillationDetected) as err:
        timedomain.run_to_orbit(sim, state, 250.0, noise_floor=1e-4)
    assert err.value.settled is True


def test_conservative_case_flagged_unsettled():
    # without a source the amplitude only follows the scheme dissipation:
    # no attractor, so the envelope keeps drifting and the run is flagged
    spec = ProblemSpec.from_expressions(a="1", b="0*u1")
    sim = timedomain.Simulator(spec, tau=0.5, M=48)
    x = sim.x
    state = sim.initial_state(v2=np.sin(np.pi * x) ** 2)
    with pytest.raises(NoOscillationDetected) as err:
        timedomain.run_to_orbit(sim, state, 120.0, settle_tol=0.02)
    assert err.value.settled is False
    assert err.value.amplitude > 1e-3


def test_history_interpolation_accuracy(spec_cubic_down):
    # seeded history is reproduced through the ring buffer lookup
    sim = timedomain.Simulator(spec_cubic_down, tau=1.3, M=64)
    state = sim.initial_state(history_fn=lambda t: np.full(65, np.cos(3 * t)))
    u_del = sim._delayed_displacement(state)
    assert np.max(np.abs(u_del - np.cos(3 * (-1.3)))) < 5e-4


def test_delay_on_exact_multiple_of_dt_reads_stored_row(spec_cubic_down):
    # 32 dt is exact in binary, so tau / dt = 32 with zero weight and the
    # delayed displacement is the stored row itself, not a blend
    dt = timedomain.Simulator(spec_cubic_down, tau=1.0, M=64).dt
    sim = timedomain.Simulator(spec_cubic_down, tau=32 * dt, M=64)
    assert (sim.lag, sim.w) == (32, 0.0)
    x = sim.x
    state = sim.initial_state(v1=0.01 * np.sin(np.pi * x / 2),
                              history_fn=lambda t: np.cos(3 * t) + x)
    assert np.array_equal(sim._delayed_displacement(state),
                          np.cos(3 * -sim.tau) + x)
    for _ in range(40):
        stored = state.history[(state.head - 32) % sim.n_hist].copy()
        assert np.array_equal(sim._delayed_displacement(state), stored)
        state = sim.step(state)


def test_head_row_is_displacement_of_fields(spec_cubic_down):
    # step reads u(t) from the head row instead of integrating again
    sim = timedomain.Simulator(spec_cubic_down, tau=1.3, M=64)
    kick = 0.01 * np.sin(np.pi * sim.x / 2)
    state = sim.initial_state(v1=kick, v2=0.5 * kick,
                              history_fn=lambda t: np.zeros(65))
    for _ in range(100):
        assert np.array_equal(
            state.history[state.head],
            periodic.displacement(state.v1, state.v2, sim.a, sim.h))
        state = sim.step(state)


def _unfused_step(sim, state):
    """The step written out term by term: B, both upwind updates and the
    boundary rows, as they stood before the arithmetic was fused."""
    v1, v2, a, h, dt = state.v1, state.v2, sim.a, sim.h, sim.dt
    env = {"x": sim.x, "lambda": sim.spec.lam, "u1": state.history[state.head],
           "u2": sim._delayed_displacement(state), "u3": 0.5 * (v1 + v2),
           "u4": 0.5 * (v1 - v2) / a}
    B = np.broadcast_to(sim.spec.b.eval(env), sim.x.shape) - 0.5 * sim.ax * (v1 - v2)
    new_v1, new_v2 = v1.copy(), v2.copy()
    new_v1[:-1] = v1[:-1] + dt * (a[:-1] * (v1[1:] - v1[:-1]) / h + B[:-1])
    new_v2[1:] = v2[1:] + dt * (-a[1:] * (v2[1:] - v2[:-1]) / h + B[1:])
    new_v1[-1] = new_v2[-1]
    new_v2[0] = -new_v1[0]
    return new_v1, new_v2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_step_matches_unfused_formula(seed):
    # a(x) varies, so the ax term of B and the per-node upwind gains are
    # exercised (benchmark_super has ax = 0); fields and history are random
    spec = ProblemSpec.from_expressions(a="1 + x^2/2 + sin(3*x)/4",
                                        b="-u1^3/6 - u2 - u3 + x*u4")
    sim = timedomain.Simulator(spec, tau=0.7, M=64)
    rng = np.random.default_rng(seed)
    state = sim.initial_state(v1=rng.standard_normal(65),
                              v2=rng.standard_normal(65),
                              history_fn=lambda t: rng.standard_normal(65))
    assert np.ptp(sim.ax) > 0.5
    want_v1, want_v2 = _unfused_step(sim, state)
    got = sim.step(state)
    for got_v, want_v in ((got.v1, want_v1), (got.v2, want_v2)):
        assert np.max(np.abs(got_v - want_v)) <= 1e-13 * np.max(np.abs(want_v))


def test_step_refuses_foreign_dt(spec_cubic_down):
    # the ring offsets are fixed by the simulator's dt
    sim = timedomain.Simulator(spec_cubic_down, tau=1.0, M=64)
    state = sim.initial_state()
    state.dt = 0.5 * sim.dt
    with pytest.raises(ValueError):
        sim.step(state)


def test_benchmark_period_pinned(tmp_path):
    # value of the stepper before the delay lookup moved to fixed offsets
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark_super.json"
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", str(config), "--tau", "1.6", "--T", "200",
                     "--out", str(out)]) == 0
    period = json.loads(out.read_text())["period_estimate"]
    assert period == pytest.approx(6.330693643560994, rel=1e-9)
