"""Numerical spectral toolkit for the kernel 1/2 + floor(1/xy) - 1/xy.

Nystrom eigenpairs ordered by modulus, the iterated kernel K2 by three
routes and its partial integrals, certified Bernoulli tails and sawtooth
series, and residual checks of the zeta-function identities.
"""

from .bernoulli import bernoulli_tilde, frac, log_factorial
from .kernel import delta_r, h_eval, k_eval
from .quadrature import (
    QuadratureRule,
    composite_rule,
    gauss_legendre,
    kernel_breakpoints,
    uniform_rule,
)

__version__ = "0.1.0"
