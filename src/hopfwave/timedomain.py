"""Direct time integration of the first-order delayed hyperbolic system.

Cross-checks the harmonic-balance orbits by evolving

    dt v1 - a(x) dx v1 = B(v),   dt v2 + a(x) dx v2 = B(v),
    v1 + v2 = 0 at x = 0,        v1 - v2 = 0 at x = 1,

in unscaled time with first-order upwinding on each characteristic family
and the delayed displacement read from a ring buffer. The Simulator fixes
the step size at CFL number CFL_LIMIT and advances one SimState in place.
Accuracy is first order by design: enough for percent-level period
validation, not for quantitative amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HistoryTooLong, NegativeDelayUnsupported, NoOscillationDetected
from .model import ProblemSpec, displacement, linearize

CFL_LIMIT = 0.9                 # the step is CFL_LIMIT * h / max(a)
MAX_HISTORY_BYTES = 2 ** 30     # largest delay history ring a simulator allocates
MAX_STEPS = np.iinfo(np.intp).max // 8  # a float64 per step fits one numpy array
NOISE_FLOOR = 1e-9              # probe amplitude below which a run has decayed
SETTLE_TOL = 0.05               # largest relative envelope drift of a settled tail


@dataclass
class SimState:
    """Grid fields plus the displacement history needed for the delay,
    advanced in place by Simulator.step; the step size is the simulator's."""

    v1: np.ndarray
    v2: np.ndarray
    t: float
    history: np.ndarray      # ring buffer of u rows dt apart, oldest overwritten
    head: int                # index of the row of u(t), the most recent one


class Simulator:
    """Holds the sampled coefficients and advances SimState.

    tau and dt are fixed, so u(t - tau) always lies lag and lag + 1 rows
    behind the head of the history, with the same interpolation weight.
    """

    def __init__(self, spec: ProblemSpec, tau: float, M: int = 256):
        if tau <= 0.0:
            raise NegativeDelayUnsupported(
                "time stepping needs tau > 0; the periodic solver handles "
                "negative delays")
        self.spec = spec
        coeffs = linearize(spec, spec.lam, M)
        self.a = coeffs.nodes("a")
        self.ax = coeffs.nodes("ax")
        self.x = coeffs.x
        self.h = coeffs.h
        self.tau = float(tau)
        self.dt = CFL_LIMIT * self.h / float(np.max(self.a))
        # per-node constants of step: upwind gains dt a / h, factors of B and u4
        self.gain_v1 = self.dt * self.a[:-1] / self.h
        self.gain_v2 = self.dt * self.a[1:] / self.h
        self.half_ax = 0.5 * self.ax
        self.half_inv_a = 0.5 / self.a
        lag, self.w = divmod(self.tau / self.dt, 1.0)
        self.lag = int(lag)
        self.n_hist = self.lag + 2
        if self.n_hist * len(self.x) * 8 > MAX_HISTORY_BYTES:
            raise HistoryTooLong(
                f"tau = {self.tau:g} spans {self.tau / self.dt:.3g} steps; its "
                f"history ring would exceed {MAX_HISTORY_BYTES} bytes")

    def initial_state(self, v1=None, v2=None) -> SimState:
        """Initial fields with the displacement history over [-tau, 0]: the
        constant extension of the initial displacement (standard
        delay-equation practice; the transient is discarded anyway).
        """
        M = len(self.x) - 1
        v1 = np.zeros(M + 1) if v1 is None else np.array(v1, dtype=float)
        v2 = np.zeros(M + 1) if v2 is None else np.array(v2, dtype=float)
        u0 = displacement(v1, v2, self.a, self.h)
        hist = np.tile(u0, (self.n_hist, 1))
        return SimState(v1=v1, v2=v2, t=0.0, history=hist, head=self.n_hist - 1)

    def _delayed_displacement(self, state: SimState):
        """u(t - tau), linear between the two history rows around it."""
        rows, i0 = state.history, state.head - self.lag
        return (1.0 - self.w) * rows[i0 % self.n_hist] \
            + self.w * rows[(i0 - 1) % self.n_hist]

    def step(self, state: SimState) -> None:
        """Advance state in place by one upwind step of size dt; boundary
        rows are imposed exactly.

        u(t) is the head row of the history, written by the previous step;
        the step moves the head on by one row and writes u(t + dt) there.
        """
        v1, v2, dt = state.v1, state.v2, self.dt
        diff = v1 - v2
        env = {"x": self.x, "lambda": self.spec.lam,
               "u1": state.history[state.head],
               "u2": self._delayed_displacement(state),
               "u3": 0.5 * (v1 + v2), "u4": diff * self.half_inv_a}
        # a fresh grid array even when b is constant in x
        dtB = self.spec.b.eval(env) - self.half_ax * diff
        dtB *= dt
        new_v1 = v1 + dtB
        new_v2 = v2 + dtB
        # v1 rides leftward characteristics: upwind from the right
        new_v1[:-1] += self.gain_v1 * (v1[1:] - v1[:-1])
        # v2 rides rightward characteristics: upwind from the left
        new_v2[1:] -= self.gain_v2 * (v2[1:] - v2[:-1])
        new_v1[-1] = new_v2[-1]
        new_v2[0] = -new_v1[0]
        state.v1, state.v2, state.t = new_v1, new_v2, state.t + dt
        state.head = (state.head + 1) % self.n_hist
        state.history[state.head] = displacement(new_v1, new_v2, self.a, self.h)


def _period_from_crossings(ts, ys):
    """Mean spacing of upward zero crossings with sub-step interpolation."""
    sign_change = (ys[:-1] < 0.0) & (ys[1:] >= 0.0)
    idx = np.nonzero(sign_change)[0]
    if len(idx) < 3:
        return None
    frac = -ys[idx] / (ys[idx + 1] - ys[idx])
    crossings = ts[idx] + frac * (ts[idx + 1] - ts[idx])
    gaps = np.diff(crossings)
    return float(np.mean(gaps))


def run_to_orbit(sim: Simulator, state: SimState, T_end: float):
    """Advance state in place with sim for ceil(T_end / dt) steps, record
    the probe over the last 20 percent only, estimate the period.

    The tail record is allocated before the first step, so a horizon too
    long for memory fails at once. Returns (period, tail_times,
    tail_probe). Raises NoOscillationDetected when the tail is too short
    to judge, when the probe amplitude sinks below NOISE_FLOOR (decay to
    the trivial state) or when the amplitude envelope drifts by more than
    SETTLE_TOL across the tail (no settled limit cycle: for instance an
    undamped linear problem whose amplitude only reflects the scheme's
    slow numerical dissipation).
    """
    probe = (len(sim.x) * 2) // 3
    n_steps = int(np.ceil(T_end / sim.dt))
    cut = int(0.8 * n_steps)
    tail_t = np.empty(n_steps - cut)
    tail_y = np.empty(n_steps - cut)
    for _ in range(cut):
        sim.step(state)
    for i in range(n_steps - cut):
        sim.step(state)
        tail_t[i] = state.t
        tail_y[i] = state.history[state.head][probe]
    if len(tail_y) < 2:
        raise NoOscillationDetected(
            f"run too short to judge: its tail holds {len(tail_y)} of "
            f"{n_steps} steps", settled=False)
    amp = float(np.max(np.abs(tail_y)))
    if amp < NOISE_FLOOR:
        raise NoOscillationDetected(
            f"probe amplitude {amp:.2e} below the noise floor", amplitude=amp,
            settled=True)
    half = len(tail_y) // 2
    a_first = float(np.max(np.abs(tail_y[:half])))
    a_second = float(np.max(np.abs(tail_y[half:])))
    drift = abs(a_second - a_first) / max(a_first, a_second)
    if drift > SETTLE_TOL:
        raise NoOscillationDetected(
            f"amplitude envelope still drifting ({100 * drift:.1f}% across the "
            "tail): oscillation has not settled onto an orbit (amplitude is "
            "not decaying to zero either)", amplitude=amp, settled=False)
    period = _period_from_crossings(tail_t, tail_y)
    if period is None:
        raise NoOscillationDetected("too few zero crossings in the tail",
                                    amplitude=amp, settled=False)
    return period, tail_t, tail_y
