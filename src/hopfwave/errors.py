"""Exception taxonomy shared across the toolkit."""


class HopfwaveError(Exception):
    """Base class for all toolkit errors."""


class ExprError(HopfwaveError):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Malformed expression text.

    Attributes:
        position: 0-based character offset of the offending token.
        expected: short description of what the parser was looking for.
    """

    def __init__(self, message, position, expected=None):
        suffix = f" at position {position}"
        if expected:
            suffix += f" (expected {expected})"
        super().__init__(message + suffix)
        self.position = position
        self.expected = expected


class UnknownIdentifier(ParseError):
    """Identifier outside the known variable/function/constant set."""


class EvalDomainError(ExprError):
    """Evaluation hit a division by zero or a function domain violation."""


class SpecInvalid(HopfwaveError):
    """Problem definition violates a load-time contract (a > 0, b(...,0)=0)."""


class NoConvergence(HopfwaveError):
    """An iteration hit its cap without meeting tolerance."""

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class ResidualAboveTolerance(HopfwaveError):
    """The located minimizer of the shooting mismatch is not a zero."""


class AdjointInconsistent(HopfwaveError):
    """Adjoint Robin condition failed; the critical delay or the grid is off."""


class RhoZero(HopfwaveError):
    """Crossing speed zero or never computed."""


class NotSeparable(HopfwaveError):
    """Nonlinearity has cross terms between different u-arguments."""


class QuadraticTermPresent(HopfwaveError):
    """Nonlinearity has a quadratic term in some u-argument."""


class JacobianSingular(HopfwaveError):
    """Newton matrix is rank deficient (resonance or failed certificate)."""


class NegativeDelayUnsupported(HopfwaveError):
    """Time integration is an initial value problem; it needs tau > 0."""


class HistoryTooLong(HopfwaveError):
    """The delay spans more time steps than the history ring may hold."""


class NoOscillationDetected(HopfwaveError):
    """Simulation tail has no usable limit-cycle signal."""

    def __init__(self, message, amplitude=None, settled=None):
        super().__init__(message)
        self.amplitude = amplitude
        self.settled = settled
