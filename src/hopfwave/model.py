"""Problem definition and derived coefficient fields.

Holds the wave-equation data (a, b) and produces everything the rest of
the toolkit consumes: the linearization coefficients b_3..b_6 at a given
parameter value, the characteristic combinations b_1, b_2, the
antiderivative tables behind the transport kernels c_1, c_2, A, the
displacement rule and the Fredholm integral.

Conventions (x from 0 to 1, uniform grid):
    b_j(x, lam) = d b / d u_{j-2} at (x, lam, 0, 0, 0, 0), j = 3..6
    b_1 = (-a_x + b_5 + b_6/a) / 2
    b_2 = ( a_x + b_5 - b_6/a) / 2
    A(x, xi)  = integral_xi^x  dz / a(z)
    c_1(x, xi) = exp( integral_x^xi b_1/a dz )   (note the orientation)
    c_2(x, xi) = exp( integral_xi^x b_2/a dz )
so c_1(x,x) = c_2(x,x) = 1 and A(x,x) = 0 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import EvalDomainError, SpecInvalid
from .quadrature import cumulative_integral, integral

_UVARS = ("u1", "u2", "u3", "u4")
_POSITIVITY_SAMPLES = 1024
_POSITIVITY_MARGIN = 1e-10


def _sampled_env(x, lam):
    env = {"x": x, "lambda": lam}
    for u in _UVARS:
        env[u] = 0.0
    return env


@dataclass(frozen=True)
class ProblemSpec:
    """Wave-equation data: wave speed a(x, lambda) and nonlinearity b.

    b may arrive either as one joint expression in (x, lambda, u1..u4) or as
    a list of four single-argument pieces beta_j(x, lambda, u_j); in the
    latter case the joint b is their sum.
    """

    a: exprlang.Expr
    b: exprlang.Expr
    lam: float = 0.0

    @classmethod
    def from_expressions(cls, a, b=None, betas=None, lam=0.0):
        if isinstance(a, str):
            a = exprlang.parse(a)
        extra = exprlang.free_variables(a) - {"x", "lambda"}
        if extra:
            raise SpecInvalid(f"a may only depend on x, lambda; found {sorted(extra)}")
        if betas is not None:
            if b is not None:
                raise SpecInvalid("give either b or beta, not both")
            if len(betas) != 4:
                raise SpecInvalid("beta must list exactly 4 expressions")
            betas = tuple(exprlang.parse(s) if isinstance(s, str) else s for s in betas)
            for j, beta in enumerate(betas):
                extra = exprlang.free_variables(beta) - {"x", "lambda", _UVARS[j]}
                if extra:
                    raise SpecInvalid(
                        f"beta[{j}] may only depend on x, lambda, {_UVARS[j]}; "
                        f"found {sorted(extra)}")
            b = betas[0]
            for beta in betas[1:]:
                b = exprlang.add(b, beta)
        elif b is None:
            raise SpecInvalid("problem needs b or beta")
        elif isinstance(b, str):
            b = exprlang.parse(b)
        spec = cls(a=a, b=b, lam=float(lam))
        spec.validate()
        return spec

    def validate(self):
        """Sampled hard checks: a > 0 and b(x, lam, 0,0,0,0) = 0."""
        x = np.linspace(0.0, 1.0, _POSITIVITY_SAMPLES)
        for lam in {self.lam, 0.0}:
            a_vals = np.broadcast_to(self.a.eval(_sampled_env(x, lam)), x.shape)
            if np.min(a_vals) <= _POSITIVITY_MARGIN:
                raise SpecInvalid(
                    f"a(x, {lam}) must be positive; min sampled value "
                    f"{np.min(a_vals):.3e}")
            b_vals = np.broadcast_to(self.b.eval(_sampled_env(x, lam)), x.shape)
            if np.max(np.abs(b_vals)) > 1e-12:
                raise SpecInvalid(
                    f"b(x, {lam}, 0,0,0,0) must vanish; max sampled value "
                    f"{np.max(np.abs(b_vals)):.3e}")


@dataclass(frozen=True)
class LinearizedCoeffs:
    """Sampled coefficient fields on a uniform grid.

    Arrays live on the refined grid xx (nodes plus midpoints, 2M+1 points)
    so the fixed-step RK4 shooting can evaluate at half steps; the public
    node views slice every other point. Every field is sampled at the lam
    passed to `linearize`.
    """

    M: int
    xx: np.ndarray
    a: np.ndarray
    ax: np.ndarray
    axx: np.ndarray
    b3: np.ndarray
    b4: np.ndarray
    b5: np.ndarray
    b6: np.ndarray
    b6x: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    @property
    def x(self):
        """Node grid (M+1 points)."""
        return self.xx[::2]

    @property
    def h(self):
        return 1.0 / self.M

    def nodes(self, name):
        """Node-grid view of a refined-grid array field."""
        return getattr(self, name)[::2]


def linearize(spec: ProblemSpec, lam: float, M: int) -> LinearizedCoeffs:
    """Sample a, its derivatives, and all linearization coefficients.

    The b_j come from exact expression derivatives evaluated at
    (x, lam, 0, 0, 0, 0); nothing is finite-differenced. A field that is
    not finite on the grid makes the problem invalid (SpecInvalid).
    """
    if M < 16:
        raise ValueError("M must be at least 16")
    xx = np.linspace(0.0, 1.0, 2 * M + 1)
    env = _sampled_env(xx, lam)

    def sample(expr):
        try:
            return np.broadcast_to(expr.eval(env), xx.shape).astype(float)
        except EvalDomainError as err:
            raise SpecInvalid(f"cannot linearize at u = 0: {err}") from err

    a, ax, axx = sample(spec.a), sample(spec.a.diff("x")), sample(spec.a.diff("x", 2))
    b3, b4, b5, b6 = (sample(spec.b.diff(u)) for u in _UVARS)
    return LinearizedCoeffs(
        M=M, xx=xx, a=a, ax=ax, axx=axx,
        b3=b3, b4=b4, b5=b5, b6=b6, b6x=sample(spec.b.diff("u4").diff("x")),
        b1=0.5 * (-ax + b5 + b6 / a), b2=0.5 * (ax + b5 - b6 / a))


def antiderivative_tables(coeffs: LinearizedCoeffs):
    """(F, logE1, logE2): antiderivatives from x = 0 of 1/a, b1/a, b2/a on
    the refined grid. Each kernel is a difference of one table:
    A(x, xi) = F(x) - F(xi), c_1 = exp(logE1(xi) - logE1(x)) and
    c_2 = exp(logE2(x) - logE2(xi)).
    """
    hh = coeffs.xx[1] - coeffs.xx[0]
    return tuple(cumulative_integral(f / coeffs.a, hh)
                 for f in (1.0, coeffs.b1, coeffs.b2))


def displacement(diff, a, h, out=None, rule=None):
    """u = int_0^x diff / (2a) along the last axis, diff = v1 - v2: the one
    displacement rule, shared by the harmonic operators and the time
    stepper. out, if given, receives u as in cumulative_integral; rule, a
    cumulative_rule planned for diff's shape, replaces that function."""
    q = diff / a
    u = cumulative_integral(q, h, out=out) if rule is None else rule(q, out)
    u *= 0.5
    return u


def fredholm_integral(coeffs: LinearizedCoeffs) -> float:
    """integral of b5 / a over [0, 1]; nonzero keeps small divisors away."""
    hh = coeffs.xx[1] - coeffs.xx[0]
    return float(integral(coeffs.b5 / coeffs.a, hh))
