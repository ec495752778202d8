"""The kernel K(x,y) = 1/2 + floor(1/xy) - 1/xy and row metrics.

K is symmetric, bounded by 1/2 in modulus, equals -B~1(1/xy), and jumps
where 1/xy crosses an integer.  delta_r measures L^1-type distance between
two rows against the weight z^r; its integrand is piecewise of the form
|c - d/z| z^r between breakpoints, which integrates in closed form, so the
only approximation is the small-z cutoff z0, which drops at most
z0^(r+1)/(r+1).  That is tol/2 unless the breakpoint cap moves z0 up.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import merged_breakpoint_blocks

__all__ = ["k_eval", "h_eval", "delta_r"]


def k_eval(x, y):
    """K(x, y) for x, y in [0, 1]; zero on the axes.

    Scalars or broadcastable arrays.  Values lie in (-1/2, 1/2] and the
    evaluation is right-continuous in 1/xy at integers (K = 1/2 there).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # written so that NaN fails it, one pass over each argument
    if not (np.all((0.0 <= x) & (x <= 1.0)) and np.all((0.0 <= y) & (y <= 1.0))):
        raise ValueError("k_eval requires x, y in [0, 1]")
    p = x * y
    with np.errstate(divide="ignore"):
        u = np.where(p > 0, 1.0 / np.where(p > 0, p, 1.0), 0.0)
    out = np.where(p > 0, 0.5 - (u - np.floor(u)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def h_eval(v):
    """h(v) = exp(-v/2) K(1, exp(-v)) for v >= 0 (the log-substituted row)."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("h_eval requires v >= 0")
    out = np.exp(-0.5 * v) * k_eval(1.0, np.exp(-v))
    if np.ndim(out) == 0:
        return float(out)
    return out


def delta_r(a: float, b: float, r: float, tol: float = 1e-7,
            cap: int = 100_000) -> float:
    """Integral over [0,1] of |K(a,z) - K(b,z)| z^r.

    Panels split at every breakpoint of either row above a small-z cutoff
    z0; each panel integrates exactly (the integrand is |c - d/z| z^r with
    c, d constant there).  The integrand is at most 1, so the dropped tail
    lies in [0, z0^(r+1)/(r+1)] and the result is low by at most that.
    z0 is the larger of the point where this bound is tol/2 and
    (1/a + 1/b)/cap, which keeps the breakpoint count near cap, and at most
    1/2.  When cap sets z0 the bound exceeds tol/2: at tol 1e-7 and the
    default cap, delta_r(0.01, 0.02, 0) is 3.7e-4 low (z0 = 1.5e-3).
    """
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError("delta_r requires a, b in (0, 1]")
    if not -1.0 < r < math.inf:
        raise ValueError(f"delta_r requires r > -1 and finite (the integral may diverge), got {r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"delta_r requires tol > 0 and finite, got {tol}")
    if not 1 <= cap < math.inf:
        raise ValueError(f"delta_r requires cap >= 1 and finite, got {cap}")
    if a == b:
        return 0.0
    z0 = (0.5 * tol * (r + 1.0)) ** (1.0 / (r + 1.0))
    z0_cap = (1.0 / a + 1.0 / b) / float(cap)
    z0 = min(max(z0, z0_cap), 0.5)
    # per-panel totals in ascending z, summed once, so the sum does not
    # depend on how the panels are blocked
    totals = [_delta_r_panels(cuts, a, b, r) for cuts in merged_breakpoint_blocks(a, b, z0)]
    return float(np.sum(np.concatenate(totals[::-1])))


def _delta_r_panels(cuts: np.ndarray, a: float, b: float, r: float) -> np.ndarray:
    """|int (c - d/z) z^r dz| over each panel between neighbouring cuts, split at its sign change.

    g is the antiderivative of (c - d/z) z^r; its powers of z are taken once
    per cut and shared by the two panels that meet there.
    """
    zl = cuts[:-1]
    zr = cuts[1:]
    zm = 0.5 * (zl + zr)
    c = np.floor(1.0 / (a * zm)) - np.floor(1.0 / (b * zm))
    d = 1.0 / a - 1.0 / b

    if r == 0.0:
        def powers(z):
            return z, np.log(z)

        def g(c, p, q):
            return c * p - d * q
    else:
        def powers(z):
            return z ** (r + 1.0), z ** r

        def g(c, p, q):
            return c * p / (r + 1.0) - d * q / r

    p, q = powers(cuts)
    gl = g(c, p[:-1], q[:-1])
    gr = g(c, p[1:], q[1:])
    total = np.abs(gr - gl)
    # c - d/z changes sign at zs = d/c; only a panel that holds zs strictly
    # inside splits there
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = d / c
    inside = np.flatnonzero((zs > zl) & (zs < zr))
    gs = g(c[inside], *powers(zs[inside]))
    total[inside] = np.abs(gs - gl[inside]) + np.abs(gr[inside] - gs)
    return total
