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


# Direct-summation/Stirling crossover.  The two branches agree to ~1e-15
# relative here; test_bernoulli pins that.
_STIRLING_THRESHOLD = 256

_LOG_2PI = math.log(2.0 * math.pi)

# Cumulative log k for 0..threshold, so small arguments are O(1) lookups.
_LOG_FACT_TABLE = np.concatenate(
    ([0.0], np.cumsum(np.log(np.arange(1, _STIRLING_THRESHOLD + 1, dtype=float))))
)


def log_factorial(n: int) -> float:
    """log(n!) with relative error below 1e-13.

    Exact log-summation for n <= 256; Stirling series above.  The series
    terms 1/(12z) - 1/(360z^3) + 1/(1260z^5) leave a remainder below
    1/(1680*257^7) ~ 1e-20 at the crossover, so the branches agree there.
    """
    if not (0 <= n < math.inf and n == int(n)):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n <= _STIRLING_THRESHOLD:
        return float(_LOG_FACT_TABLE[n])
    z = float(n + 1)  # log n! = log Gamma(n+1)
    zi = 1.0 / z
    zi2 = zi * zi
    series = zi * (1.0 / 12.0 + zi2 * (-1.0 / 360.0 + zi2 * (1.0 / 1260.0)))
    return (z - 0.5) * math.log(z) - z + 0.5 * _LOG_2PI + series


def _stirling_bracket(x: float) -> float:
    """n log(1/x) - 1/x + log sqrt(2 pi / x) - log(n!) with n = floor(1/x); x in (0, 1].

    From n = 33 on it is (n + 1/2) log1p(f/n) - f - 1/(12n) + 1/(360n^3)
    - 1/(1260n^5) with f = 1/x - n, its n log n terms cancelled in closed
    form; the first Stirling term left out is 1/(1680 n^7).  Past n = 32
    the plain form cancels.  iterated.k2_diag_exact and
    zeta.stirling_alt_residual both take it from here.
    """
    n = math.floor(1.0 / x)
    if n <= 32:
        return (n * math.log(1.0 / x) - 1.0 / x + 0.5 * math.log(2.0 * math.pi / x)
                - log_factorial(n))
    f, ni = 1.0 / x - n, 1.0 / n
    return ((n + 0.5) * math.log1p(f * ni) - f
            - ni * (1.0 / 12.0 - ni * ni * (1.0 / 360.0 - ni * ni / 1260.0)))
