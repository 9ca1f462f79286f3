"""Hopf bifurcation toolkit for damped delayed 1D semilinear wave equations.

Pipeline: parse the coefficient expressions (exprlang), sample the
linearization and the antiderivative tables of the transport kernels
(model), certify the Hopf point by complex shooting (eigen), evaluate the
bifurcation direction for separable cubic nonlinearities (direction),
continue the branch of time-periodic orbits through the characteristic
integral formulation (periodic), and cross-validate by direct time
integration (timedomain). The cli module wires these behind
`hopfwave {certificate,direction,branch,simulate}`.
"""
from . import direction, eigen, exprlang, model, periodic, timedomain
from .errors import HopfwaveError

__all__ = ["direction", "eigen", "exprlang", "model", "periodic",
           "timedomain", "HopfwaveError"]
__version__ = "0.1.0"
