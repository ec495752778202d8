"""Composite Gauss-Legendre quadrature with explicit panel control.

The kernel rows are piecewise smooth with jumps at z = 1/(m x), so all
integration here is panel-based: a base Gauss rule on [-1, 1] mapped
affinely into each panel.  Interior Gauss nodes never land on panel
boundaries, which is what keeps kernel evaluations off the jump set.

Integrals of two rows take no Gauss rule: _unit_intervals walks the unit
intervals of the denser row in u = 1/(a z), and the integrand is in closed
form between their ends and the one jump of the other row inside each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gauss_legendre",
    "composite_rule",
    "kernel_breakpoints",
    "uniform_rule",
    "QuadratureRule",
    "DEFAULT_PANELS",
    "DEFAULT_ORDER",
]

# Default spectral grid: 64 uniform panels x order 4 (256 nodes).  The grid
# is deliberately not aligned with any row's breakpoints; alignment would
# bias the quadrature toward particular rows.
DEFAULT_PANELS = 64
DEFAULT_ORDER = 4

_MAX_ORDER = 64


def gauss_legendre(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1], as fresh arrays.

    numpy's leggauss: against mpmath at 40 digits, nodes are within 1.2e-16
    and weights within 5e-15 for every order 1..64.  The nodes ascend and
    are exactly symmetric.  order must be an integer in 1..64.
    """
    if not (1 <= order <= _MAX_ORDER and order == int(order)):
        raise ValueError(f"order must be an integer in 1..{_MAX_ORDER}, got {order!r}")
    return np.polynomial.legendre.leggauss(int(order))


@dataclass(frozen=True)
class QuadratureRule:
    """A composite rule: Gauss nodes/weights mapped into explicit panels."""

    nodes: np.ndarray
    weights: np.ndarray
    panels: np.ndarray  # boundaries, len = n_panels + 1
    order: int

    def integrate(self, f) -> float:
        """Integrate a callable (vectorized over a node array)."""
        return float(np.dot(self.weights, f(self.nodes)))

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "panels", np.asarray(self.panels, dtype=float))


def composite_rule(boundaries, order: int) -> QuadratureRule:
    """Composite Gauss rule over the given ascending panel boundaries.

    Every panel gets the same base order.  Weights sum to the total length;
    polynomials of degree <= 2*order - 1 are integrated exactly panelwise.
    """
    b = np.asarray(boundaries, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise ValueError("boundaries must be a 1-d array with at least 2 entries")
    if not np.all(np.diff(b) > 0):
        raise ValueError("boundaries must be strictly increasing")
    x, w = gauss_legendre(order)
    lo = b[:-1, None]
    hi = b[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, panels=b.copy(), order=int(order))


def uniform_rule(n_panels: int = DEFAULT_PANELS, order: int = DEFAULT_ORDER,
                 lo: float = 0.0, hi: float = 1.0) -> QuadratureRule:
    """Uniform-panel composite rule on [lo, hi]; defaults give the 256-node grid.

    n_panels must be an integer >= 1, and lo < hi both finite.
    """
    if not (isinstance(n_panels, numbers.Integral) and n_panels >= 1):
        raise ValueError(f"n_panels must be an integer >= 1, got {n_panels!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"lo and hi must be finite with lo < hi, got lo = {lo}, hi = {hi}")
    return composite_rule(np.linspace(lo, hi, n_panels + 1), order)


def kernel_breakpoints(x: float, cutoff: float) -> np.ndarray:
    """Ascending panel boundaries for the row z -> K(x, z) on [cutoff, 1].

    The row jumps exactly at z = 1/(m x) for integers m; every such point
    inside (cutoff, 1] becomes a boundary, with cutoff and 1 appended.  No
    library code calls it: the oracle rules of tests/test_quadrature.py
    (test_kernel_row_on_breakpoint_panels), tests/test_kernel.py
    (TestRowIntegrals) and tests/test_tails.py (TestKernelMoment's
    test_direct_quadrature_oracle) are built on it.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0, 1], got {x}")
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    # 1/(m x) falls strictly with m, so descending m gives ascending points
    m = np.arange(math.ceil(1.0 / (x * cutoff)) - 1, math.ceil(1.0 / x) - 1, -1, dtype=float)
    z = 1.0 / (m * x)
    return np.concatenate(([cutoff], z[(z > cutoff) & (z < 1.0)], [1.0]))


# unit intervals per block of _unit_intervals, and zeta.em_identity_residual's
# block of trapezoid defects: each array of a block is 64 kB, under glibc's
# 128 kB mmap threshold, so that it is not mapped and unmapped every block
_BLOCK = 1 << 13


def _unit_intervals(alpha: float, lo: float, hi: float):
    """The unit intervals [m, m+1] of u that meet [lo, hi], _BLOCK at a time, in ascending u.

    For 0 < alpha <= 1 and 1 <= lo < hi.  Yields (edges, k, theta) per
    block: the edges m0, ..., m1, the first and last clipped to lo and hi,
    and for each interval's m, k = floor(alpha m) and theta = alpha m - k.
    Put u = 1/(a z) with a the denser row and alpha = a/b.  Then K(a, .)
    jumps at every integer u and K(b, .) where alpha u is an integer, so
    inside [m, m+1] at most once, at u = (k + 1)/alpha, which lies inside
    when theta >= 1 - alpha.  This is the one enumeration of two rows'
    jumps: kernel.delta_r integrates each interval in closed form, and
    iterated._panel_sum cuts each at that jump into two z-panels.
    """
    first, last = math.floor(lo), math.ceil(hi)
    for m0 in range(first, last, _BLOCK):
        m1 = min(m0 + _BLOCK, last)
        edges = np.arange(m0, m1 + 1, dtype=float)
        theta = alpha * edges[:-1]
        k = np.floor(theta)
        theta -= k
        edges[0] = max(m0, lo)
        edges[-1] = min(m1, hi)
        yield edges, k, theta
