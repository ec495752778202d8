"""The kernel K(x,y) = 1/2 + floor(1/xy) - 1/xy and row metrics.

K is symmetric, bounded by 1/2 in modulus, equals -B~1(1/xy), and jumps
where 1/xy crosses an integer.  delta_r measures L^1-type distance between
two rows against the weight z^r.  In u = 1/(az), a the smaller (denser)
row, the difference of the rows is frac(alpha u) - frac(u) with
alpha = a/b; on each unit interval of u it is linear but for at most one
jump and changes sign once, so delta_r walks those intervals and
integrates each in closed form.  The only approximation is the small-z
cutoff z0, which drops at most z0^(r+1)/(r+1): tol/2 unless cap moves z0
up.  cap bounds the interval count, about 1/(a z0), except where z0 stops
at 1/2; past 2^24 intervals delta_r raises ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .tails import _MAX_TERMS

__all__ = ["k_eval", "h_eval", "delta_r"]

# K = 1/2 for every xy at or below this (1/xy is an integer there)
_XY_FLOOR = 2.0**-53

# ||K||_HS^2, the integral of K(x, y)^2 over the unit square, is
# 1/4 + log(2 pi) + zeta''(0).  The product p = xy has density -log p on
# [0, 1] and K = -B~1(1/p), so with s = 1/p it is the integral of
# B~1(s)^2 log(s) s^-2 over s >= 1.  B~1^2 = B~2 + 1/12; the 1/12 gives
# 1/12, and Euler-Maclaurin gives
#     int_1^inf B~2(s) s^(-sigma-2) ds
#         = 2 (1/(sigma - 1) + 1/2 + sigma/12 - zeta(sigma)) / (sigma (sigma + 1)),
# whose derivative at sigma = 0, negated, is the B~2 part.  mpmath's
# 1/4 + log(2 pi) + zeta(0, derivative=2) is 0.0815206105007606323505594;
# zeta''(0) = gamma^2/2 - pi^2/24 - log(2 pi)^2/2 + gamma_1 agrees to 30 digits.
_HS_NORM_SQ = 0.08152061050076063


def k_eval(x, y):
    """K(x, y) for x, y in [0, 1]; zero on the axes.

    Scalars or broadcastable arrays.  Values lie in (-1/2, 1/2] and the
    evaluation is right-continuous in 1/xy at integers (K = 1/2 there).
    Every float 1/xy >= 2^53 is an integer, so K = 1/2 for 0 < xy <= 2^-53,
    a subnormal xy included.

    One output array of the broadcast shape is written in place: xy, its
    reciprocal u, u - floor(u), then 1/2 minus that.  Besides the output
    only floor(u) is allocated, so a call holds about two arrays of the
    result's size, plus a boolean mask when some xy may be zero.  The
    arguments are never written to.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # min and max propagate NaN, so NaN fails the check; on the arguments,
    # before broadcasting
    x_lo = x.min(initial=1.0)
    y_lo = y.min(initial=1.0)
    if not (0.0 <= x_lo and x.max(initial=0.0) <= 1.0
            and 0.0 <= y_lo and y.max(initial=0.0) <= 1.0):
        raise ValueError("k_eval requires x, y in [0, 1]")
    out = np.multiply(x, y, out=np.empty(np.broadcast(x, y).shape))
    # xy is zero on the axes, and it can underflow to zero next to them only
    # when x_lo * y_lo does; those entries are marked before the reciprocal
    xy_lo = x_lo * y_lo
    zero = out == 0.0 if xy_lo == 0.0 else None
    # raising xy to 2^-53 keeps K = 1/2 and 1/xy finite (a subnormal xy
    # would overflow it); rounding is monotone, so no xy lies below x_lo * y_lo
    if xy_lo < _XY_FLOOR:
        np.maximum(out, _XY_FLOOR, out=out)
    np.divide(1.0, out, out=out)
    out -= np.floor(out)
    np.subtract(0.5, out, out=out)
    if zero is not None:
        out[zero] = 0.0
    if out.ndim == 0:
        return float(out)
    return out


def h_eval(v):
    """h(v) = exp(-v/2) K(1, exp(-v)) for v >= 0 (the log-substituted row)."""
    v = np.asarray(v, dtype=float)
    if not np.all(v >= 0.0):  # NaN fails it too
        raise ValueError("h_eval requires v >= 0")
    out = np.exp(-0.5 * v) * k_eval(1.0, np.exp(-v))
    if np.ndim(out) == 0:
        return float(out)
    return out




def delta_r(a: float, b: float, r: float, tol: float = 1e-7,
            cap: int = 100_000) -> float:
    """Integral over [0,1] of |K(a,z) - K(b,z)| z^r.

    Swap the rows so that a < b and put u = 1/(az), alpha = a/b and
    beta = 1 - alpha.  Then K(a,z) - K(b,z) = frac(alpha u) - frac(u), and
    the integral over [z0, 1] is a^(-r-1) times the integral of
    |frac(alpha u) - frac(u)| u^(-r-2) over u in [1/a, 1/(a z0)].  On a unit
    interval [m, m+1] of u, with theta = frac(alpha m), the difference is
    theta - beta (u - m), less 1 past the b row's jump at
    m + (1 - theta)/alpha, which lies inside when theta >= beta.  It changes
    sign once, at m + theta/beta when theta < beta and at the jump
    otherwise, so every interval integrates in closed form (_delta_r_walk)
    and the only approximation is the small-z cutoff z0.

    The integrand is at most 1, so the dropped tail lies in
    [0, z0^(r+1)/(r+1)] and the result is low by at most that.  z0 is the
    larger of the point where this bound is tol/2 and (1/a + 1/b)/cap, and
    at most 1/2.  The walk takes (1/a)(1/z0 - 1) unit intervals: fewer
    than cap, unless z0 is 1/2, where it takes about 1/min(a, b).  A count
    above 2^24 (tails._MAX_TERMS) raises ValueError naming a and b before
    any work; delta_r(1e-7, 0.5, 0) walks 1e7 intervals in about 0.2 s.
    When cap sets z0 the bound exceeds tol/2: at tol 1e-7 and the default
    cap, delta_r(0.01, 0.02, 0) is 3.7e-4 low (z0 = 1.5e-3).

    Against 40-digit mpmath sums of the same truncated integral, at the
    default cap, the value is within 1.5e-14 on 16 triples with r >= -0.5
    and 1.9e-13 off at (0.123, 0.77, -0.9); the former merged-breakpoint
    panel sum was up to 4.1e-10 off on the first 16 and 5.4e-8 on the last,
    about half the default tol.
    """
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError("delta_r requires a, b in (0, 1]")
    if not -1.0 < r < math.inf:
        raise ValueError(f"delta_r requires r > -1 and finite (the integral may diverge), got {r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"delta_r requires tol > 0 and finite, got {tol}")
    if not 1 <= cap < math.inf:
        raise ValueError(f"delta_r requires cap >= 1 and finite, got {cap}")
    dense = min(a, b)
    alpha = dense / max(a, b)
    if alpha == 1.0:  # equal rows, or rows whose ratio rounds to 1
        return 0.0
    z0 = (0.5 * tol * (r + 1.0)) ** (1.0 / (r + 1.0))
    z0_cap = (1.0 / a + 1.0 / b) / float(cap)
    z0 = min(max(z0, z0_cap), 0.5)
    if not (1.0 / dense) * (1.0 / z0 - 1.0) <= _MAX_TERMS:
        raise ValueError(f"delta_r at a = {a:g}, b = {b:g} needs more than {_MAX_TERMS} unit intervals")
    total = _delta_r_walk(dense, alpha, r, 1.0 / dense, 1.0 / (dense * z0))
    return total / (dense * (r + 1.0))


# unit intervals per block of _delta_r_walk; each of its temporaries is
# 64 kB, under glibc's 128 kB mmap threshold
_BLOCK = 1 << 13


def _delta_r_walk(a: float, alpha: float, r: float, lo: float, hi: float) -> float:
    """(r + 1) a^(-r) times the integral of |frac(alpha u) - frac(u)| u^(-r-2) over [lo, hi].

    For 0 < alpha < 1 and 1 <= lo < hi.  The interval [left, right] of the
    unit interval [m, m+1] (the whole of it but at lo and hi) holds one sign
    change w (delta_r), clipped to it.  With c0 = m - floor(alpha m) the
    difference is c0 - beta u, less 1 past the jump, so with G1' = u^(-r-2)
    and G2' = u^(-r-1) the interval contributes

        c0 (2 G1(w) - G1(left) - G1(right)) - beta (2 G2(w) - G2(left) - G2(right))
            + [theta >= beta] (G1(right) - G1(w)).

    Every bracket's coefficients sum to zero, so G is taken relative to the
    interval's own left end: with y = u/left - 1 and E = expm1(-r log1p(y)),
    that is (u/left)^(-r) - 1,

        G1(u) - G1(left) = left^(-r) (y - E) / ((r + 1) u),
        G2(u) - G2(left) = -left^(-r) E / r  (log1p(y) at r = 0),

    each within a few ulps of itself, with no power of u differenced
    against another and no 1/r at small r.  c0 and beta u grow like m while
    their difference stays below 1, so the two brackets cancel by a factor
    of about m; the relative form keeps that cancellation to the ulps of
    the brackets themselves.  Blocks of _BLOCK intervals are summed in
    ascending u, and the value depends on the block size only through that
    summation.
    """
    beta = 1.0 - alpha
    # the G2 bracket's factor, the G1 brackets' 1/(r + 1) taken out
    g2_factor = -beta if r == 0.0 else beta * (r + 1.0) / r
    total = 0.0
    first, last = math.floor(lo), math.ceil(hi)
    for m0 in range(first, last, _BLOCK):
        m1 = min(m0 + _BLOCK, last)
        edges = np.arange(m0, m1 + 1, dtype=float)
        left, right = edges[:-1], edges[1:]
        theta = alpha * left
        c0 = np.floor(theta)
        theta -= c0
        np.subtract(left, c0, out=c0)
        jump = theta >= beta
        # theta/beta when theta < beta, else (1 - theta)/alpha, the smaller of the two
        w = theta * (1.0 / beta)
        np.subtract(1.0, theta, out=theta)
        theta *= 1.0 / alpha
        np.minimum(w, theta, out=w)
        w += left
        if m0 == first:
            edges[0] = lo
            w[0] = max(w[0], lo)
        if m1 == last:
            edges[-1] = hi
        np.minimum(w, right, out=w)
        g1_right, e_right = _from_left(left, right, r)
        g1_w, e_w = _from_left(left, w, r)
        out = 2.0 * g1_w
        out -= g1_right
        out *= c0
        g1_right -= g1_w
        g1_right *= jump
        out += g1_right
        e_w *= 2.0
        e_w -= e_right
        e_w *= g2_factor
        out += e_w
        if r:
            left *= a
            out *= left ** -r
        total += float(out.sum())
    return total


def _from_left(left: np.ndarray, u: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(r + 1) (G1(u) - G1(left)) and E of _delta_r_walk, both over left^(-r); E is log1p(y) at r = 0."""
    y = u - left
    y /= left
    e = np.log1p(y)
    if r:
        e *= -r
        np.expm1(e, out=e)
        y -= e
    y /= u
    return y, e
