"""The kernel K(x,y) = 1/2 + floor(1/xy) - 1/xy and row metrics.

K is symmetric, bounded by 1/2 in modulus, equals -B~1(1/xy), and jumps
where 1/xy crosses an integer.  delta_r measures L^1-type distance between
two rows against the weight z^r; its integrand is piecewise of the form
|c - d/z| z^r between breakpoints, which integrates in closed form, so the
only approximation is the certified small-z cutoff.
"""

from __future__ import annotations

import numpy as np

from .quadrature import kernel_breakpoints

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

    Panels split at every breakpoint of either row above a small-z cutoff;
    each panel integrates exactly (the integrand is |c - d/z| z^r with c, d
    constant there).  The dropped tail below the cutoff is bounded by
    z0^(r+1)/(r+1); z0 is chosen so that bound is <= tol/2, escalated when
    the breakpoint count would exceed cap.
    """
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError("delta_r requires a, b in (0, 1]")
    if not r > -1.0:
        raise ValueError(f"delta_r requires r > -1 (the integral may diverge), got {r}")
    if not tol > 0.0:
        raise ValueError(f"delta_r requires tol > 0, got {tol}")
    if a == b:
        return 0.0
    z0 = (0.5 * tol * (r + 1.0)) ** (1.0 / (r + 1.0))
    z0_cap = (1.0 / a + 1.0 / b) / float(cap)
    z0 = min(max(z0, z0_cap), 0.5)

    cuts = np.union1d(kernel_breakpoints(a, z0), kernel_breakpoints(b, z0))
    zl = cuts[:-1]
    zr = cuts[1:]
    keep = zr > zl
    zl, zr = zl[keep], zr[keep]
    zm = 0.5 * (zl + zr)
    c = np.floor(1.0 / (a * zm)) - np.floor(1.0 / (b * zm))
    d = 1.0 / a - 1.0 / b

    if r == 0.0:
        def g(z):
            return c * z - d * np.log(z)
    else:
        def g(z):
            return c * z ** (r + 1.0) / (r + 1.0) - d * z ** r / r

    # sign change of c - d/z inside the panel, clipped to the panel
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = np.where(c != 0.0, d / np.where(c != 0.0, c, 1.0), np.inf)
    zs = np.clip(zs, zl, zr)
    total = np.abs(g(zs) - g(zl)) + np.abs(g(zr) - g(zs))
    return float(np.sum(total))
