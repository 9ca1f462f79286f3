import json
from pathlib import Path

import numpy as np
import pytest

from hopfwave import cli, model, timedomain
from hopfwave.errors import EvalDomainError, NegativeDelayUnsupported, NoOscillationDetected
from hopfwave.model import ProblemSpec
from oracles import ReferenceState, ReferenceStepper, seed_from_orbit, state_with_history

SUPER = Path(__file__).resolve().parents[1] / "configs" / "benchmark_super.json"


def _delayed_displacement(sim, state):
    """u(t - tau) as the run loop reads it: its u2 buffer after one step
    from a copy of state."""
    sim.step(timedomain.SimState(v=state.v.copy(), diff=state.diff.copy(), t=state.t,
                                 history=state.history.copy(), head=state.head))
    return sim._u2.copy()


def test_zero_state_stays_zero(spec_cubic_down):
    sim = timedomain.Simulator(spec_cubic_down, tau=1.0, M=64)
    state = sim.initial_state()
    for _ in range(200):
        sim.step(state)
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
        sim.step(state)
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


def test_boundary_rows_exact(cert_down, ctx_down, super_orbit):
    sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=64)
    state = seed_from_orbit(sim, super_orbit, ctx_down)
    for _ in range(50):
        sim.step(state)
        assert state.v1[0] + state.v2[0] == 0.0
        assert state.v1[-1] - state.v2[-1] == 0.0


def test_period_matches_orbit(cert_down, ctx_down, super_orbit):
    sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=128)
    state = seed_from_orbit(sim, super_orbit, ctx_down)
    period = timedomain.run_to_orbit(sim, state, 120.0).period
    expected = 2 * np.pi / super_orbit.omega
    assert abs(period - expected) / expected < 0.02


def test_refinement_consistency(cert_down, ctx_down, super_orbit):
    periods = {}
    for M in (64, 128, 256):
        sim = timedomain.Simulator(ctx_down.spec, tau=super_orbit.tau, M=M)
        state = seed_from_orbit(sim, super_orbit, ctx_down)
        periods[M] = timedomain.run_to_orbit(sim, state, 150.0).period
    d_coarse = abs(periods[128] - periods[64])
    d_fine = abs(periods[256] - periods[128])
    assert d_fine <= d_coarse + 1e-4


def test_decay_below_floor_detected(monkeypatch):
    # on the stable side of the crossing small data spirals back to zero
    monkeypatch.setattr(timedomain, "NOISE_FLOOR", 1e-4)
    spec = ProblemSpec.from_expressions(a="2/pi", b="-u1^3/6 - u2 - u3")
    sim = timedomain.Simulator(spec, tau=1.0, M=64)
    x = sim.x
    state = sim.initial_state(v1=1e-3 * np.sin(np.pi * x / 2),
                              v2=1e-3 * np.sin(np.pi * x / 2))
    with pytest.raises(NoOscillationDetected) as err:
        timedomain.run_to_orbit(sim, state, 250.0)
    assert err.value.settled is True


def test_conservative_case_flagged_unsettled(monkeypatch):
    # without a source the amplitude only follows the scheme dissipation:
    # no attractor, so the envelope keeps drifting and the run is flagged
    monkeypatch.setattr(timedomain, "SETTLE_TOL", 0.02)
    spec = ProblemSpec.from_expressions(a="1", b="0*u1")
    sim = timedomain.Simulator(spec, tau=0.5, M=48)
    x = sim.x
    state = sim.initial_state(v2=np.sin(np.pi * x) ** 2)
    with pytest.raises(NoOscillationDetected) as err:
        timedomain.run_to_orbit(sim, state, 120.0)
    assert err.value.settled is False
    assert err.value.amplitude > 1e-3


def test_history_interpolation_accuracy(spec_cubic_down):
    # seeded history is reproduced through the ring buffer lookup
    sim = timedomain.Simulator(spec_cubic_down, tau=1.3, M=64)
    state = state_with_history(sim, lambda t: np.full(65, np.cos(3 * t)))
    u_del = _delayed_displacement(sim, state)
    assert np.max(np.abs(u_del - np.cos(3 * (-1.3)))) < 5e-4


def test_delay_on_exact_multiple_of_dt_reads_stored_row(spec_cubic_down):
    # 32 dt is exact in binary, so tau / dt = 32 with zero weight and the
    # delayed displacement is the stored row itself, not a blend
    dt = timedomain.Simulator(spec_cubic_down, tau=1.0, M=64).dt
    sim = timedomain.Simulator(spec_cubic_down, tau=32 * dt, M=64)
    assert (sim.lag, sim.w) == (32, 0.0)
    x = sim.x
    state = state_with_history(sim, lambda t: np.cos(3 * t) + x,
                               v1=0.01 * np.sin(np.pi * x / 2))
    assert np.array_equal(_delayed_displacement(sim, state),
                          np.cos(3 * -sim.tau) + x)
    for _ in range(40):
        stored = state.history[(state.head - 32) % sim.n_hist].copy()
        assert np.array_equal(_delayed_displacement(sim, state), stored)
        sim.step(state)


def test_head_row_is_displacement_of_fields(spec_cubic_down):
    # step reads u(t) from the head row instead of integrating again
    sim = timedomain.Simulator(spec_cubic_down, tau=1.3, M=64)
    kick = 0.01 * np.sin(np.pi * sim.x / 2)
    state = state_with_history(sim, lambda t: np.zeros(65), v1=kick, v2=0.5 * kick)
    for _ in range(100):
        assert np.array_equal(
            state.history[state.head],
            model.displacement(state.v1 - state.v2, sim.a, sim.h))
        sim.step(state)


def _unfused_step(sim, state):
    """The step written out term by term: B, both upwind updates and the
    boundary rows, as they stood before the arithmetic was fused."""
    v1, v2, a, h, dt = state.v1, state.v2, sim.a, sim.h, sim.dt
    env = {"x": sim.x, "lambda": sim.spec.lam, "u1": state.history[state.head],
           "u2": _delayed_displacement(sim, state), "u3": 0.5 * (v1 + v2),
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
    state = state_with_history(sim, lambda t: rng.standard_normal(65),
                               v1=rng.standard_normal(65),
                               v2=rng.standard_normal(65))
    assert np.ptp(sim.ax) > 0.5
    want_v1, want_v2 = _unfused_step(sim, state)
    sim.step(state)
    for got_v, want_v in ((state.v1, want_v1), (state.v2, want_v2)):
        assert np.max(np.abs(got_v - want_v)) <= 1e-13 * np.max(np.abs(want_v))


def _sim_and_state(problem, seed):
    """A simulator on a named problem and a state to step: random fields
    and history from seed, or for seed None the simulate command's kick."""
    varying_a = "1 + x^2/2 + sin(3*x)/4"
    if problem == "super":
        spec, settings = cli.load_problem(str(SUPER))
        sim = timedomain.Simulator(spec, tau=1.6, M=settings.M)
    else:
        b = {"varying-a": "-u1^3/6 - u2 - u3 + x*u4", "constant-b": "0*u1",
             "no-u3-u4": "-u1^3/6 - u2 + x*u1"}[problem]
        spec = ProblemSpec.from_expressions(a=varying_a, b=b)
        sim = timedomain.Simulator(spec, tau=0.7, M=64)
    if seed is None:    # the initial state of the simulate command
        kick = 0.01 * np.sin(np.pi * sim.x / 2.0)
        state = sim.initial_state(v1=kick, v2=kick)
    else:               # random fields and history
        rng, n = np.random.default_rng(seed), len(sim.x)
        state = state_with_history(sim, lambda t: rng.standard_normal(n),
                                   v1=rng.standard_normal(n),
                                   v2=rng.standard_normal(n))
    return sim, state


STEP_CASES = [("varying-a", 0), ("varying-a", 1), ("super", 7), ("super", None)]
STEP_IDS = ["varying-a-0", "varying-a-1", "super-random", "super-kick"]


@pytest.mark.parametrize("problem, seed", STEP_CASES, ids=STEP_IDS)
def test_step_bit_identical_to_reference(problem, seed):
    # the buffered step with its carried v1 - v2 and fused upwind product
    # against the step it replaced, through a full turn of the history ring;
    # bytes, since np.array_equal does not tell -0.0 from +0.0
    sim, state = _sim_and_state(problem, seed)
    ref, ref_state = ReferenceStepper(sim), ReferenceState.copy_of(state)
    for _ in range(sim.n_hist + 50):
        sim.step(state)
        ref.step(ref_state)
        assert (state.t, state.head) == (ref_state.t, ref_state.head)
        assert state.v1.tobytes() == ref_state.v1.tobytes()
        assert state.v2.tobytes() == ref_state.v2.tobytes()
    assert state.history.tobytes() == ref_state.history.tobytes()


@pytest.mark.parametrize("problem, seed", STEP_CASES + [
    ("constant-b", 3), ("no-u3-u4", 4)],
    ids=STEP_IDS + ["constant-b", "no-u3-u4"])
def test_run_loop_bit_identical_to_reference(problem, seed, monkeypatch):
    # run_to_orbit's two advance calls, transient and recorded tail, against
    # the reference stepper; the tail spans a full turn of the history ring
    sim, state = _sim_and_state(problem, seed)
    ref, ref_state = ReferenceStepper(sim), ReferenceState.copy_of(state)
    calls, advance = [], timedomain.Simulator.advance

    def spy(self, state, n, *record):
        calls.append((n, record))
        advance(self, state, n, *record)

    monkeypatch.setattr(timedomain.Simulator, "advance", spy)
    try:
        timedomain.run_to_orbit(sim, state, 5 * (sim.n_hist + 60) * sim.dt)
    except NoOscillationDetected:
        pass    # random fields need not settle; the tail is recorded anyway
    (cut, ()), (n_tail, (tail_t, tail_y, probe)) = calls
    assert n_tail >= sim.n_hist + 50
    for _ in range(cut):
        ref.step(ref_state)
    ref_t, ref_y = np.empty(n_tail), np.empty(n_tail)
    for i in range(n_tail):
        ref.step(ref_state)
        ref_t[i], ref_y[i] = ref_state.t, ref_state.history[ref_state.head][probe]
    assert (state.t, state.head) == (ref_state.t, ref_state.head)
    assert tail_t.tobytes() == ref_t.tobytes()
    assert tail_y.tobytes() == ref_y.tobytes()
    assert state.v1.tobytes() == ref_state.v1.tobytes()
    assert state.v2.tobytes() == ref_state.v2.tobytes()
    assert state.history.tobytes() == ref_state.history.tobytes()


def test_not_finite_b_ends_run_in_callers_error_state():
    # 50 u1^3 overflows mid-run; the run enters numpy's error state once, so
    # none of its operations raise under the caller's "raise", and the
    # caller's state is back after b's finiteness check ends the run
    spec = ProblemSpec.from_expressions(a="2/pi", b="50*u1^3 + u1 - u2 - u3")
    sim = timedomain.Simulator(spec, tau=1.6, M=64)
    kick = 0.01 * np.sin(np.pi * sim.x / 2.0)
    state = sim.initial_state(v1=kick, v2=kick)
    with np.errstate(all="raise"):
        before = np.geterr()
        with pytest.raises(EvalDomainError) as err:
            timedomain.run_to_orbit(sim, state, 200.0)
        assert np.geterr() == before
    assert str(err.value) == ("expression not finite at the given point: "
                              "50.0*u1^3 + u1 - u2 - u3")


def test_step_advances_state_in_place(spec_cubic_down):
    # one state, advanced by the simulator's dt: the head moves one ring
    # slot on and holds the displacement of the new fields
    sim = timedomain.Simulator(spec_cubic_down, tau=1.3, M=64)
    kick = 0.01 * np.sin(np.pi * sim.x / 2)
    state = sim.initial_state(v1=kick, v2=0.5 * kick)
    for _ in range(sim.n_hist + 3):
        t, head, v1 = state.t, state.head, state.v1.copy()
        assert sim.step(state) is None
        assert state.t == t + sim.dt
        assert state.head == (head + 1) % sim.n_hist
        assert not np.array_equal(state.v1, v1)
        assert np.array_equal(state.history[state.head],
                              model.displacement(state.v1 - state.v2, sim.a, sim.h))


def test_benchmark_period_pinned(tmp_path):
    # value of the stepper before the delay lookup moved to fixed offsets
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", str(SUPER), "--tau", "1.6", "--T", "200",
                     "--out", str(out)]) == 0
    period = json.loads(out.read_text())["period_estimate"]
    assert period == pytest.approx(6.330693643560994, rel=1e-9)
