"""The harmonic operators of the transported system and their plan.

A field v(t, x) = sum_k vhat_k(x) e^{ikt} is a complex array of shape
(..., len(ks), 2, M+1), as in `periodic`. Here are its Fourier synthesis
and analysis on the 4N+1 collocation times, the real packing of the Newton
unknowns, and the operators of the fixed-point system v = C v + D B(v):
the boundary transport C, the interior transport D (one cumulative
quadrature per harmonic and component) and the nonlinear source B,
evaluated pseudo-spectrally. The operators take a `HarmonicPlan` at one
(omega, tau) (`PlanAt`): the set-up that is fixed within a Newton solve is
planned once, and each planned table is the subexpression the operator
formula evaluates first, so every result keeps the bytes of the unplanned
arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import LinearizedCoeffs, ProblemSpec, b_env, displacement
from .quadrature import cumulative_rule


# ---------------------------------------------------------------------------
# Fourier synthesis and analysis: the one path for every operator

def _synthesis_basis(times, ks):
    """[w cos(kt), -w sin(kt)], shape (len(times), 2 len(ks)): negative
    harmonics are the conjugates, so k >= 1 carries weight w = 2."""
    w = np.where(ks == 0, 1.0, 2.0)
    arg = np.outer(times, ks)
    return np.concatenate([w * np.cos(arg), -w * np.sin(arg)], axis=1)


def _analysis_matrix(T, ks):
    """[cos(kt); -sin(kt)] / T on T equispaced times over one period, shape
    (2 len(ks), T). Content above T - max(ks) - 1 aliases, so T >= 2
    max(ks) + 1 and more for a nonlinearity; a k = 0 harmonic comes back
    real (its sine row is zero)."""
    arg = np.outer(ks, 2.0 * np.pi * np.arange(T) / T)
    return np.concatenate([np.cos(arg), -np.sin(arg)]) / T


def _synthesize(basis, hats):
    """Real values (..., T, X) of the harmonics hats (..., len(ks), X) at the
    times of basis, as one real product basis @ [Re hat; Im hat]."""
    return basis @ np.concatenate([hats.real, hats.imag], axis=-2)


def _analyze(matrix, values):
    """Harmonics (..., len(ks), X) of values (..., T, X) by an analysis matrix."""
    parts = matrix @ values
    n = len(matrix) // 2
    return parts[..., :n, :] + 1j * parts[..., n:, :]


def _collocation_times(ks):
    """4N+1 equispaced times, N the highest harmonic in ks: cubic products
    of the harmonics ks are analyzed back without aliasing."""
    T = 4 * int(ks[-1]) + 1
    return 2.0 * np.pi * np.arange(T) / T


# ---------------------------------------------------------------------------
# coefficient arrays: the real packing of the Newton unknowns

# packing order: Re v_k, Im v_k for each k in ks, each block (component,
# node); Im v_0 is dropped when ks starts at 0, and unflatten zeroes it
def flatten(coef, ks):
    parts = np.stack([coef.real, coef.imag], axis=-3)
    flat = parts.reshape(parts.shape[:-4] + (-1,))
    if ks[0] != 0:
        return flat
    blk = 2 * coef.shape[-1]
    return np.concatenate([flat[..., :blk], flat[..., 2 * blk:]], axis=-1)


def unflatten(vec, ks, M):
    vec = np.asarray(vec)
    lead = vec.shape[:-1]
    blk = 2 * (M + 1)
    if ks[0] == 0:
        vec = np.concatenate([vec[..., :blk], np.zeros(lead + (blk,)),
                              vec[..., blk:]], axis=-1)
    parts = vec.reshape(lead + (len(ks), 2, 2, M + 1))
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


# ---------------------------------------------------------------------------
# operator context and plan

@dataclass(frozen=True)
class OperatorContext:
    """Everything the operators need at a fixed lambda, on the nodes of the
    solve grid (`periodic.operator_context`)."""

    spec: ProblemSpec
    coeffs: LinearizedCoeffs
    lam: float
    x: np.ndarray
    h: float
    a: np.ndarray
    ax: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    F: np.ndarray      # antiderivative of 1/a on nodes
    E1: np.ndarray     # exp of antiderivative of b1/a
    E2: np.ndarray
    odd: bool               # b odd in u1..u4 (`odd_in_u`): Newton on odd harmonics


@dataclass(frozen=True)
class HarmonicPlan:
    """The set-up of the harmonic operators on the harmonics ks of one
    context, fixed within a Newton solve: the synthesis basis and the
    analysis matrix of the 4N+1 collocation times, and one cumulative rule
    per array shape met, planned on first use. A planned rule reuses its
    work buffers but writes each result to a new array, so two results of
    one plan may be alive at once. `at` adds the tables of one (omega, tau).
    """

    ctx: OperatorContext
    ks: np.ndarray
    synthesis: np.ndarray   # (4N+1, 2 len(ks)), see `_synthesis_basis`
    analysis: np.ndarray    # (2 len(ks), 4N+1), see `_analysis_matrix`
    rules: dict = field(default_factory=dict, repr=False)

    def rule(self, shape, dtype):
        """`quadrature.cumulative_rule` on the node grid for one shape and dtype."""
        key = (shape, np.dtype(dtype))
        if key not in self.rules:
            self.rules[key] = cumulative_rule(shape, self.ctx.h, dtype)
        return self.rules[key]

    def at(self, omega, tau) -> PlanAt:
        """The phase tables at (omega, tau). Each is the subexpression that
        the operator formula it serves evaluates first, so the planned
        operators make the same IEEE operations in the same order."""
        ctx, ks = self.ctx, self.ks[:, None]
        ph = np.exp(1j * omega * ks * ctx.F)                     # e^{ik w F(x)}
        tail = np.exp(-1j * omega * ks * (ctx.F - ctx.F[-1]))
        return PlanAt(plan=self, omega=omega, tau=tau,
                      C=(-(1.0 / ctx.E1) * ph, (ctx.E2 / ctx.E2[-1]) * tail),
                      D=(ctx.E1 / ph, -(ph / ctx.E1), ph / ctx.E2, -(ctx.E2 / ph)),
                      delay=_delay_phase(self.ks, omega, tau))


def harmonic_plan(ctx: OperatorContext, ks) -> HarmonicPlan:
    """The plan of the harmonic operators on the harmonics ks of ctx."""
    times = _collocation_times(ks)
    return HarmonicPlan(ctx=ctx, ks=ks, synthesis=_synthesis_basis(times, ks),
                        analysis=_analysis_matrix(len(times), ks))


@dataclass(frozen=True)
class PlanAt:
    """A `HarmonicPlan` at one (omega, tau): the factors of apply_C and
    apply_D, each (len(ks), M+1) with ph = e^{ik omega F(x)}, and the delay."""

    plan: HarmonicPlan
    omega: float
    tau: float
    C: tuple            # -(1/E1) ph, (E2/E2(1)) e^{-ik w (F - F(1))}
    D: tuple            # E1/ph, -(ph/E1), ph/E2, -(E2/ph)
    delay: np.ndarray   # e^{-ik omega tau}, (len(ks), 1)


def apply_C(v: np.ndarray, at: PlanAt) -> np.ndarray:
    """Boundary-transport part: values carried along characteristics from
    the opposite edge, with per-harmonic phase factors for the time shift."""
    out = np.empty_like(v)
    out[..., 0, :] = at.C[0] * v[..., 1, 0][..., None]
    out[..., 1, :] = at.C[1] * v[..., 0, -1][..., None]
    return out


def apply_D(f: np.ndarray, at: PlanAt) -> np.ndarray:
    """Interior-transport part: characteristic integrals of a source field.

    The kernels factorize (c's are ratios of one antiderivative table, the
    shift phases split likewise), so each harmonic costs one cumulative
    quadrature per component. Both components carry a minus sign: it drops
    out of the telescoping along either characteristic family, and the
    critical mode is a fixed point of C + D(J+K) only with this sign
    (enforced by the kernel tests).
    """
    a = at.plan.ctx.a
    g1 = at.D[0] * f[..., 0, :] / a
    rule = at.plan.rule(g1.shape, g1.dtype)
    out = np.empty_like(f)
    out[..., 0, :] = at.D[1] * rule(g1)
    g2 = at.D[2] * f[..., 1, :] / a
    cum2 = rule(g2)
    out[..., 1, :] = at.D[3] * (cum2[..., -1][..., None] - cum2)
    return out


def _transport_domega(v: np.ndarray, f: np.ndarray, at: PlanAt) -> np.ndarray:
    """Coefficients of d/domega (C(omega) v + D(omega) f) at fixed v, f.

    Output component 0 (1) picks up e^{+-ik omega (F(x) - F(xi))} from its
    source point xi, so the derivative is the commutator
    ik s_c [F (Cv + Df) - C(F v) - D(F f)] with s = (+1, -1).
    """
    F = at.plan.ctx.F
    Tv, TF = apply_C(np.stack([v, v * F]), at) + apply_D(np.stack([f, f * F]), at)
    iks = 1j * at.plan.ks[:, None, None] * np.array([1.0, -1.0])[:, None]
    return iks * (F * Tv - TF)


def _displacement(coef, plan: HarmonicPlan):
    """Harmonics of u, shape (..., len(ks), M+1)."""
    diff = coef[..., 0, :] - coef[..., 1, :]
    return displacement(diff, plan.ctx.a, plan.ctx.h,
                        rule=plan.rule(diff.shape, diff.dtype))


def _delay_phase(ks, omega, tau):
    """e^{-ik omega tau}: the delay u(t - tau) on harmonic k, shape (len(ks), 1)."""
    return np.exp(-1j * omega * tau * ks)[:, None]


def _collocate(coef, at: PlanAt):
    """v1, v2 and the arguments u1..u4 of b on the 4N+1 collocation times.

    The displacement harmonics come from one cumulative x-quadrature, the
    delay is a phase factor on them, and all four fields are synthesized
    together. Returns (v1, v2, (u1, u2, u3, u4)), each (..., 4N+1, M+1).
    """
    plan = at.plan
    J = _displacement(coef, plan)
    hats = np.stack([coef[..., 0, :], coef[..., 1, :], J, J * at.delay], axis=-2)
    vals = _synthesize(plan.synthesis, hats.reshape(hats.shape[:-2] + (-1,)))
    vals = vals.reshape(vals.shape[:-1] + hats.shape[-2:])
    v1, v2, u1, u2 = (vals[..., j, :] for j in range(4))
    return v1, v2, (u1, u2, 0.5 * (v1 + v2), 0.5 * (v1 - v2) / plan.ctx.a)


def _source_values(bvals, v1, v2, ctx: OperatorContext) -> np.ndarray:
    """Source (b - a_x (v1 - v2)/2 - b_j v_j)_j on axis -2; pointwise in t or k."""
    Bfull = bvals - 0.5 * ctx.ax * (v1 - v2)
    return np.stack([Bfull - ctx.b1 * v1, Bfull - ctx.b2 * v2], axis=-2)


def _source(bvals, v1, v2, plan: HarmonicPlan) -> np.ndarray:
    """Harmonics ks of `_source_values` from values on the collocation times."""
    vals = _source_values(bvals, v1, v2, plan.ctx)
    coef = _analyze(plan.analysis, vals.reshape(vals.shape[:-2] + (-1,)))
    return coef.reshape(coef.shape[:-1] + vals.shape[-2:])


def apply_B(v: np.ndarray, at: PlanAt) -> np.ndarray:
    """Full nonlinear source, pseudo-spectral with a cubic de-aliasing margin.

    Steps: cumulative x-quadrature gives the displacement harmonics, the
    delay becomes a phase factor, all fields are synthesized on 4N+1
    times, the coefficient expression is evaluated pointwise, and the
    result is analyzed back to the harmonics ks.
    """
    ctx = at.plan.ctx
    v1, v2, u = _collocate(v, at)
    return _source(ctx.spec.b.eval(b_env(ctx.x, ctx.lam, u)), v1, v2, at.plan)
