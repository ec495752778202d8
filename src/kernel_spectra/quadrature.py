"""Composite Gauss-Legendre quadrature with explicit panel control.

The kernel rows are piecewise smooth with jumps at z = 1/(m x), so all
integration here is panel-based: a base Gauss rule on [-1, 1] mapped
affinely into each panel.  Interior Gauss nodes never land on panel
boundaries, which is what keeps kernel evaluations off the jump set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _gauss_legendre_cached(order: int):
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in 1..{_MAX_ORDER}, got {order}")
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1].

    numpy's leggauss: against mpmath at 40 digits, nodes are within 1.2e-16
    and weights within 5e-15 for every order 1..64.  The nodes ascend and
    are exactly symmetric.  order must be 1..64.
    """
    x, w = _gauss_legendre_cached(int(order))
    return x.copy(), w.copy()


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
    x, w = _gauss_legendre_cached(int(order))
    lo = b[:-1, None]
    hi = b[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, panels=b.copy(), order=int(order))


def uniform_rule(n_panels: int = DEFAULT_PANELS, order: int = DEFAULT_ORDER,
                 lo: float = 0.0, hi: float = 1.0) -> QuadratureRule:
    """Uniform-panel composite rule on [lo, hi]; defaults give the 256-node grid."""
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
    m_lo = math.ceil(1.0 / x)          # smallest m with 1/(m x) <= 1
    m_hi = math.ceil(1.0 / (x * cutoff)) - 1   # largest m with 1/(m x) > cutoff
    if m_hi >= m_lo:
        m = np.arange(m_lo, m_hi + 1, dtype=float)
        z = 1.0 / (m * x)
        z = z[(z > cutoff) & (z <= 1.0)]  # guard float edges of the ceil arithmetic
    else:
        z = np.empty(0)
    # 1/(m x) falls strictly with m (adjacent values differ by a factor
    # 1 + 1/m, far above rounding), so reversed z is sorted and unique, and
    # only its last point can repeat an end
    z = z[::-1]
    if z.size and z[-1] == 1.0:
        z = z[:-1]
    return np.concatenate(([cutoff], z, [1.0]))
