"""Direct time integration of the first-order delayed hyperbolic system.

Cross-checks the harmonic-balance orbits by evolving

    dt v1 - a(x) dx v1 = B(v),   dt v2 + a(x) dx v2 = B(v),
    v1 + v2 = 0 at x = 0,        v1 - v2 = 0 at x = 1,

in unscaled time with first-order upwinding on each characteristic family
and the delayed displacement read from a ring buffer. The Simulator fixes
the step size at CFL number CFL_LIMIT and advances one SimState in place
in one run loop, Simulator.advance, which binds its buffers and views and
enters numpy's error state once per call, not once per step. Accuracy is
first order by design: enough for percent-level period validation, not
for quantitative amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HistoryTooLong, NegativeDelayUnsupported, NoOscillationDetected
from .model import ProblemSpec, displacement, linearize
from .quadrature import cumulative_rule

CFL_LIMIT = 0.9                 # the step is CFL_LIMIT * h / max(a)
MAX_HISTORY_BYTES = 2 ** 30     # largest delay history ring a simulator allocates
MAX_STEPS = np.iinfo(np.intp).max // 8  # a float64 per step fits one numpy array
NOISE_FLOOR = 1e-9              # probe amplitude below which a run has decayed
SETTLE_TOL = 0.05               # largest relative envelope drift of a settled tail


@dataclass
class SimState:
    """Grid fields plus the displacement history needed for the delay,
    advanced in place by Simulator.advance; the step size is the simulator's.
    Made by Simulator.initial_state: a step reads v1 - v2 from diff and keeps
    it up to date, so fields changed by hand need diff changed too."""

    v: np.ndarray            # (2, M+1): the rows v1 and v2
    diff: np.ndarray         # v1 - v2, carried from one step to the next
    t: float
    history: np.ndarray      # ring buffer of u rows dt apart, oldest overwritten
    head: int                # index of the row of u(t), the most recent one

    @property
    def v1(self):
        return self.v[0]

    @property
    def v2(self):
        return self.v[1]


class Simulator:
    """Holds the sampled coefficients and advances SimState.

    tau and dt are fixed, so u(t - tau) always lies lag and lag + 1 rows
    behind the head of the history, with the same interpolation weight.
    A step works in buffers the simulator allocates once, the cumulative
    rule of the displacement included.
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
        # per-node constants of step: the upwind gains dt a / h, signed for
        # v1 (from the right) and v2 (from the left), factors of B and u4
        self.gains = np.stack([self.dt * self.a[:-1] / self.h,
                               -(self.dt * self.a[1:] / self.h)])
        self.half_ax = 0.5 * self.ax
        self.half_inv_a = 0.5 / self.a
        lag, self.w = divmod(self.tau / self.dt, 1.0)
        self.lag = int(lag)
        self.n_hist = self.lag + 2
        if self.n_hist * len(self.x) * 8 > MAX_HISTORY_BYTES:
            raise HistoryTooLong(
                f"tau = {self.tau:g} spans {self.tau / self.dt:.3g} steps; its "
                f"history ring would exceed {MAX_HISTORY_BYTES} bytes")
        # buffers of step: the arguments u2..u4 of b, dt B, the upwind terms
        self._u2, self._u3, self._u4, self._blend, self._dtB = np.empty((5, M + 1))
        self._dv = np.empty((2, M))
        self._env = {"x": self.x, "lambda": spec.lam,
                     "u2": self._u2, "u3": self._u3, "u4": self._u4}
        self._rule = cumulative_rule(self.x.shape, self.h)

    def initial_state(self, v1=None, v2=None) -> SimState:
        """Initial fields with the displacement history over [-tau, 0]: the
        constant extension of the initial displacement (standard
        delay-equation practice; the transient is discarded anyway).
        """
        v = np.zeros((2, len(self.x)))
        for row, field in zip(v, (v1, v2)):
            if field is not None:
                row[:] = field
        diff = v[0] - v[1]
        hist = np.tile(displacement(diff, self.a, self.h), (self.n_hist, 1))
        return SimState(v=v, diff=diff, t=0.0, history=hist, head=self.n_hist - 1)

    def step(self, state: SimState) -> None:
        """Advance state in place by one step: advance(state, 1)."""
        self.advance(state, 1)

    def advance(self, state: SimState, n: int, ts=None, ys=None, probe=0) -> None:
        """Advance state in place by n upwind steps of size dt, boundary rows
        imposed exactly; with ts and ys, step i records its time in ts[i]
        and u at node probe in ys[i]. numpy's floating-point warnings are
        off for the whole call; b's finiteness is checked on every step.

        u(t) is the head row of the history, written by the previous step;
        each step moves the head on by one row and writes u(t + dt) there.
        """
        v, diff, hist, dv = state.v, state.diff, state.history, self._dv
        (v1, v2), (dv1, dv2) = v, dv
        # the nodes each family updates, and the two ends of each difference
        v1_in, v2_in, v_hi, v_lo = v[0, :-1], v[1, 1:], v[:, 1:], v[:, :-1]
        u2, u3, u4, blend, dtB = self._u2, self._u3, self._u4, self._blend, self._dtB
        env, evaluate, rule = self._env, self.spec.b.eval_unguarded, self._rule
        a, h, dt, gains = self.a, self.h, self.dt, self.gains
        half_ax, half_inv_a = self.half_ax, self.half_inv_a
        lag, n_hist, w, w_head = self.lag, self.n_hist, self.w, 1.0 - self.w
        add, subtract, multiply = np.add, np.subtract, np.multiply
        head = state.head
        u1 = hist[head]
        with np.errstate(all="ignore"):
            for i in range(n):
                env["u1"] = u1
                # u(t - tau), linear between the two history rows around it
                i0 = head - lag
                multiply(hist[i0 % n_hist], w_head, out=u2)
                u2 += multiply(hist[(i0 - 1) % n_hist], w, out=blend)
                add(v1, v2, out=u3)
                u3 *= 0.5
                multiply(diff, half_inv_a, out=u4)
                # dt B = dt (b - ax (v1 - v2) / 2), a grid array even for a constant b
                multiply(half_ax, diff, out=dtB)
                subtract(evaluate(env), dtB, out=dtB)
                dtB *= dt
                # upwind differences of the old fields, times the signed gains
                subtract(v_hi, v_lo, out=dv)
                dv *= gains
                v += dtB
                v1_in += dv1    # v1 rides leftward characteristics
                v2_in += dv2    # v2 rides rightward characteristics
                v1[-1] = v2[-1]
                v2[0] = -v1[0]
                subtract(v1, v2, out=diff)
                state.t += dt
                state.head = head = (head + 1) % n_hist
                u1 = hist[head]
                displacement(diff, a, h, out=u1, rule=rule)
                if ts is not None:
                    ts[i] = state.t
                    ys[i] = u1[probe]


def _crossing_gaps(ts, ys):
    """Spacings of the upward zero crossings, with sub-step interpolation."""
    sign_change = (ys[:-1] < 0.0) & (ys[1:] >= 0.0)
    idx = np.nonzero(sign_change)[0]
    frac = -ys[idx] / (ys[idx + 1] - ys[idx])
    crossings = ts[idx] + frac * (ts[idx + 1] - ts[idx])
    return np.diff(crossings)


@dataclass(frozen=True)
class OrbitRun:
    """What run_to_orbit measured: the period, the probe over the tail and
    the counts behind them."""

    period: float            # mean of the zero-crossing gaps
    t: np.ndarray            # tail times
    probe: np.ndarray        # u at the probe node over the tail
    steps: int               # steps taken, ceil(T_end / dt)
    crossings: int           # zero-crossing gaps averaged into period
    period_spread: float     # largest minus smallest of those gaps
    envelope_drift: float    # relative change of the envelope across the tail


def run_to_orbit(sim: Simulator, state: SimState, T_end: float):
    """Advance state in place with sim for ceil(T_end / dt) steps, record
    the probe over the last 20 percent only, estimate the period.

    The tail record is allocated before the first step, so a horizon too
    long for memory fails at once. Returns an OrbitRun. Raises NoOscillationDetected when the tail is too short
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
    sim.advance(state, cut)
    sim.advance(state, n_steps - cut, tail_t, tail_y, probe)
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
    gaps = _crossing_gaps(tail_t, tail_y)
    if len(gaps) < 2:
        raise NoOscillationDetected("too few zero crossings in the tail",
                                    amplitude=amp, settled=False)
    return OrbitRun(period=float(np.mean(gaps)), t=tail_t, probe=tail_y,
                    steps=n_steps, crossings=len(gaps),
                    period_spread=float(np.max(gaps) - np.min(gaps)),
                    envelope_drift=drift)
