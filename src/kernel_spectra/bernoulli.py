"""Periodic Bernoulli polynomials and factorial logarithms.

The kernel 1/2 + floor(1/xy) - 1/xy and everything downstream of it is
built from the sawtooth {t} - 1/2 and its antiderivatives: one table
_B_POLY of B_1..B_4 and one Horner evaluator serve the whole toolkit,
which needs no order past 4.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

__all__ = ["frac", "bernoulli_tilde", "log_factorial"]

# Bernoulli polynomials on [0, 1), the pieces of B~n between integers.  The
# coefficients are literal: scipy.special.bernoulli(4)[4] is 5.7e-14 off -1/30.
_B_POLY = {
    1: Polynomial([-0.5, 1.0]),
    2: Polynomial([1.0 / 6.0, -1.0, 1.0]),
    3: Polynomial([0.0, 0.5, -1.5, 1.0]),
    4: Polynomial([-1.0 / 30.0, 0.0, 1.0, -2.0, 1.0]),
}


def _bernoulli_poly(n: int, u):
    """B_n(u) by Horner on the coefficients of _B_POLY[n]; scalars or arrays."""
    coef = _B_POLY[n].coef
    b = coef[-1]
    for c in coef[-2::-1]:
        b = b * u + c
    return b


def frac(t):
    """Fractional part t - floor(t), in [0, 1).

    Floor convention at negatives: frac(-0.25) == 0.75.  Accepts scalars
    or arrays; non-finite input raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("frac requires finite input")
    out = t - np.floor(t)
    # floor(t) == t makes this exact, but guard the t = -eps case where
    # rounding in the subtraction could yield 1.0.
    out = np.where(out >= 1.0, out - 1.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def bernoulli_tilde(order: int, t):
    """Periodic Bernoulli polynomial B~order({t}) for order in 1..4.

    B~1(t) = {t} - 1/2                                (right-continuous)
    B~2(t) = {t}^2 - {t} + 1/6
    B~3(t) = {t}^3 - (3/2){t}^2 + (1/2){t}
    B~4(t) = {t}^4 - 2{t}^3 + {t}^2 - 1/30

    Scalars or arrays.  Orders outside 1..4 raise ValueError.
    """
    if order not in _B_POLY:
        raise ValueError(f"order must be 1..4, got {order}")
    out = _bernoulli_poly(order, frac(t))
    return float(out) if out.ndim == 0 else out


# Summation/lgamma crossover, and the n from which _stirling_bracket takes
# its cancelled form.  Against mpmath the summed table is 1.6e-16 relative
# up to here and math.lgamma 5.1e-16; above it lgamma is 2.7e-16 up to
# n = 256 and 3.0e-16 past it (glibc).
_STIRLING_THRESHOLD = 32

# Cumulative log k for 0..threshold, so small arguments are O(1) lookups.
_LOG_FACT_TABLE = np.concatenate(
    ([0.0], np.cumsum(np.log(np.arange(1, _STIRLING_THRESHOLD + 1, dtype=float))))
)


def log_factorial(n: int) -> float:
    """log(n!) within 5e-16 relative of mpmath.

    The summed table for n <= 32, math.lgamma(n + 1) above (within 3e-16
    there, on n up to 1e15; tests/test_bernoulli.py::TestLogFactorial).  No
    library path reaches past 32: _stirling_bracket takes its cancelled
    Stirling form from n = 33 on.
    """
    if not (0 <= n < math.inf and n == int(n)):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n <= _STIRLING_THRESHOLD:
        return float(_LOG_FACT_TABLE[n])
    return math.lgamma(n + 1)


def _stirling_bracket(x: float) -> float:
    """n log(1/x) - 1/x + log sqrt(2 pi / x) - log(n!) with n = floor(1/x); x in (0, 1].

    From n = 33 on it is (n + 1/2) log1p(f/n) - f - 1/(12n) + 1/(360n^3)
    - 1/(1260n^5) with f = 1/x - n, its n log n terms cancelled in closed
    form; the first Stirling term left out is 1/(1680 n^7).  Past n = 32
    (_STIRLING_THRESHOLD) the plain form cancels.  iterated.k2_diag_exact and
    zeta.stirling_alt_residual both take it from here.
    """
    n = math.floor(1.0 / x)
    if n <= _STIRLING_THRESHOLD:
        return (n * math.log(1.0 / x) - 1.0 / x + 0.5 * math.log(2.0 * math.pi / x)
                - log_factorial(n))
    f, ni = 1.0 / x - n, 1.0 / n
    return ((n + 0.5) * math.log1p(f * ni) - f
            - ni * (1.0 / 12.0 - ni * ni * (1.0 / 360.0 - ni * ni / 1260.0)))
