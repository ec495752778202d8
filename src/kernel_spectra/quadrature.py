"""Composite Gauss-Legendre quadrature with explicit panel control.

The kernel rows are piecewise smooth with jumps at z = 1/(m x), so all
integration here is panel-based: a base Gauss rule on [-1, 1] mapped
affinely into each panel.  Interior Gauss nodes never land on panel
boundaries, which is what keeps kernel evaluations off the jump set.
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
    "merged_breakpoint_blocks",
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
    inside (cutoff, 1] becomes a boundary, with cutoff and 1 appended.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must be in (0, 1], got {x}")
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    # 1/(m x) falls strictly with m, so the reversed points ascend
    return np.concatenate(([cutoff], _row_points_between(x, cutoff, cutoff, 1.0)[::-1], [1.0]))


def _row_points_between(x: float, cutoff: float, lo: float, hi: float) -> np.ndarray:
    """The points of kernel_breakpoints(x, cutoff) strictly between lo and hi, cutoff <= lo < hi <= 1."""
    m_lo = max(math.ceil(1.0 / x), math.floor(1.0 / (x * hi)) - 1)
    m_hi = min(math.ceil(1.0 / (x * cutoff)) - 1, math.ceil(1.0 / (x * lo)) + 1)
    if m_hi < m_lo:
        return np.empty(0)
    z = 1.0 / (np.arange(m_lo, m_hi + 1, dtype=float) * x)
    return z[(z > lo) & (z < hi)]


def merged_breakpoint_blocks(x: float, y: float, cutoff: float, size: int = 1 << 14):
    """The union of kernel_breakpoints(x, cutoff) and kernel_breakpoints(y, cutoff) in blocks.

    Yields ascending arrays of about `size` points at most, from high z to
    low; consecutive blocks share their end point, so the panels between
    neighbours inside the blocks are exactly the panels of the union.  The
    block ends are points of the denser row, every size/2-th, so memory
    stays bounded however many points the rows have.  Each row's points in
    a block form one ascending run, so a stable sort merges the two runs in
    linear time and dropping equal neighbours leaves the sorted union.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError(f"x and y must be in (0, 1], got {x}, {y}")
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    if x > y:
        x, y = y, x
    m_lo, m_hi = math.ceil(1.0 / x), math.ceil(1.0 / (x * cutoff)) - 1
    step = max(size // 2, 1)
    ends = 1.0 / (np.arange(m_lo + step, m_hi + 1, step, dtype=float) * x)
    ends = np.concatenate(([1.0], ends[(ends > cutoff) & (ends < 1.0)], [cutoff]))
    for hi, lo in zip(ends[:-1].tolist(), ends[1:].tolist()):
        # _row_points_between yields descending z: [lo, row x, row y, hi] is two ascending runs
        pts = np.concatenate(([lo], _row_points_between(x, cutoff, lo, hi)[::-1],
                              _row_points_between(y, cutoff, lo, hi)[::-1], [hi]))
        pts.sort(kind="stable")
        yield pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
