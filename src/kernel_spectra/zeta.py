"""Zeta-function connections of the kernel: residual checks for the
Euler-Maclaurin action identity, the zeta partial-sum formula, the
Stirling-type improper integral, the Laplace-transform identity, and the
log-variable Hankel form of the operator.

Every public "residual" operation evaluates both sides of one identity by
independent routes and returns |LHS - RHS|.  The kernel-side integrals go
through the certified tail engine (the substitution t = 1/(xy) turns each
kernel breakpoint into an integer cut, which that engine already splits
panels at), so the kernel route never shares code with the zeta route.
"""

from __future__ import annotations

import math

import numpy as np

from .bernoulli import log_factorial
from .kernel import h_eval, k_eval
from .quadrature import composite_rule
from .tails import _MAX_TERMS, _check_count, _check_tol, kernel_moment, tilde_power_tail

__all__ = [
    "zeta",
    "zeta_connect_residual",
    "euler_limit_residual",
    "stirling_alt_residual",
    "laplace_h_residual",
    "em_identity_residual",
    "hankel_apply",
]

_EULER_GAMMA = float(np.euler_gamma)


def zeta(s: float) -> float:
    """Riemann zeta for real s > -1, s != 1, from scipy.special.zeta (loaded on first call).

    Against mpmath at 8900 points of [-0.9, 8] (step 0.001) the relative
    error is at most 1e-14, the absolute error 4.3e-14 where |s - 1| >= 0.01.
    """
    s = float(s)
    if not s > -1.0:
        raise ValueError(f"zeta requires s > -1, got {s}")
    if s == 1.0:
        raise ValueError("pole at s = 1")
    from scipy.special import zeta as scipy_zeta

    return float(scipy_zeta(s))


def _harmonic_power(n_max: int, p: float) -> float:
    n = np.arange(1, n_max + 1, dtype=float)
    return float(np.sum(n ** (-p)))


def zeta_connect_residual(s: float, x: float, tol: float = 1e-10) -> float:
    """Residual of the partial-sum identity

        (s+1) x^(s+1) int_0^1 K(x,y) y^s dy
            = zeta(s+1) - sum_{n <= 1/x} n^(-s-1) - x^s/s + x^(s+1) K(1,x)

    for s > 0 and 0 < x <= 1.  The left side is the certified kernel
    moment; the right side is scipy zeta plus explicit sums.
    """
    s = float(s)
    x = float(x)
    if not s > 0.0:
        raise ValueError(f"zeta_connect_residual requires s > 0, got {s}")
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    lhs = (s + 1.0) * x ** (s + 1.0) * kernel_moment(x, s, tol)
    rhs = (
        zeta(s + 1.0)
        - _harmonic_power(math.floor(1.0 / x), s + 1.0)
        - x**s / s
        + x ** (s + 1.0) * float(k_eval(1.0, x))
    )
    return abs(lhs - rhs)


def euler_limit_residual(x: float, tol: float = 1e-10) -> float:
    """Residual of the s -> 0+ limit of the partial-sum identity:

        x int_0^1 K(x,y) dy = gamma - sum_{n <= 1/x} 1/n + log(1/x) + x K(1,x).
    """
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    lhs = x * kernel_moment(x, 0.0, tol)
    rhs = (
        _EULER_GAMMA
        - _harmonic_power(math.floor(1.0 / x), 1.0)
        + math.log(1.0 / x)
        + x * float(k_eval(1.0, x))
    )
    return abs(lhs - rhs)


def stirling_alt_residual(x: float, eps: float, tol: float = 1e-10) -> float:
    """Residual of the improper-integral Stirling form

        int_eps^1 K(x,y) y^(-1) dy  vs
        log(floor(1/x)!) - floor(1/x) log(1/x) + 1/x - log sqrt(2 pi / x).

    The epsilon cutoff is the dominant error source; halving eps shrinks
    the residual.  At x = 1 the right side is 1 - log sqrt(2 pi).
    """
    x = float(x)
    eps = float(eps)
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    if not 0.0 < eps < x:
        raise ValueError("eps must satisfy 0 < eps < x")
    # int_eps^1 = int_0^1 - int_0^eps; the lower piece is a pure tail.
    lhs = kernel_moment(x, -1.0, tol) + tilde_power_tail(1, 1.0, 1.0 / (x * eps), tol)
    n = math.floor(1.0 / x)
    rhs = (
        log_factorial(n)
        - n * math.log(1.0 / x)
        + 1.0 / x
        - 0.5 * math.log(2.0 * math.pi / x)
    )
    return abs(lhs - rhs)


def laplace_h_residual(s: float, tol: float = 1e-10) -> float:
    """Residual of the Laplace-transform identity for h(v) = e^(-v/2) K(1, e^-v):

        int_0^1 K(1,y) y^(s-1) dy = (zeta(s) - 1/(s-1) - 1/2) / s,   s > 0.
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"laplace_h_residual requires s > 0, got {s}")
    if s == 1.0:
        raise ValueError("pole at s = 1")
    lhs = kernel_moment(1.0, s - 1.0, tol)
    rhs = (zeta(s) - 1.0 / (s - 1.0) - 0.5) / s
    return abs(lhs - rhs)


def _power_panel_integral(s: float, x: float, a, b):
    """int_a^b (nu x)^(-s-1)/(s+1) d nu in closed form, vectorised over the panels [a, b].

    Written a^-s (1 - e^(-s L))/s with L = log(b/a), through expm1: the
    plain (a^-s - b^-s)/s cancels for small s > 0 (em_identity_residual at
    x = 0.0908, s = 1e-9 would be 1.4e-7 off instead of 5.3e-11).  At
    s == 0 it is the limit L.
    """
    c = x ** (-s - 1.0) / (s + 1.0)
    L = np.log(b / a)
    if s == 0.0:
        return c * L
    return c * a ** (-s) * -np.expm1(-s * L) / s


# em_identity_residual sums its trapezoid defects this many at a time, so its
# memory does not grow with m_cap
_DEFECT_BLOCK = 1 << 14


def em_identity_residual(s: float, x: float, tol: float = 1e-10) -> float:
    """Residual of the Euler-Maclaurin action identity for f(y) = y^s:

        int_0^1 K(x,y) y^s dy
            = sum_{n > 1/x} F(1/(nx)) - int_{1/x}^inf F(1/(nu x)) d nu
              + F(1) K(1,x),

    with F(z) = z^(s+1)/(s+1).  The divergence-cancelling difference is
    summed by trapezoid pairing with a monotone tail bound; the nu-integral
    pieces are in closed form.  A tol that needs more than _MAX_TERMS
    (2^24) trapezoid defects raises ValueError before any work.
    """
    s = float(s)
    x = float(x)
    if not s >= 0.0:
        raise ValueError(f"em_identity_residual requires s >= 0, got {s}")
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    _check_tol(tol)
    n0 = math.floor(1.0 / x) + 1
    # |sum_{n>M} trapezoid defects| <= |G'(M)|/12 with G'(nu) = -x^(-s-1) nu^(-s-2)
    m_top = (x ** (-s - 1.0) / (6.0 * tol)) ** (1.0 / (s + 2.0))
    _check_count(m_top - n0, _MAX_TERMS, tol, "trapezoid defects")
    m_cap = max(n0 + 16, math.ceil(m_top))
    lhs = kernel_moment(x, s, tol)

    def g(nu):
        return (nu * x) ** (-s - 1.0) / (s + 1.0)

    defects = 0.0
    # m_cap reaches 4e5 near x = 0.01, s = 0; the defects are summed a block at a time
    for b0 in range(n0, m_cap + 1, _DEFECT_BLOCK):
        n = np.arange(b0, min(b0 + _DEFECT_BLOCK, m_cap + 1), dtype=float)
        defects += float(np.sum(0.5 * (g(n) + g(n + 1.0)) - _power_panel_integral(s, x, n, n + 1.0)))
    series_minus_integral = (
        0.5 * g(float(n0))
        - float(_power_panel_integral(s, x, 1.0 / x, float(n0)))
        + defects
    )
    rhs = series_minus_integral + (1.0 / (s + 1.0)) * float(k_eval(1.0, x))
    return abs(lhs - rhs)


def hankel_apply(F, u: float, V: float = 40.0) -> float:
    """Log-variable action G(u) = int_0^V h(u+v) F(v) dv of the Hankel form,
    h(w) = e^(-w/2) K(1, e^-w).

    F must be vectorized on [0, V].  Panels are cut where e^(u+v) crosses an
    integer (the jumps of K(1, .)), up to 2^20 cuts; past that point h is
    below ~5e-4 and smooth panels take over.  The x-domain counterpart of
    G(u) is sqrt(x) int_0^1 K(x,y) f(y) dy at x = e^-u.
    """
    u = float(u)
    if not 0.0 <= u < math.inf:
        raise ValueError(f"u must be nonnegative and finite, got {u}")
    if not 0.0 < V < math.inf:
        raise ValueError(f"V must be positive and finite, got {V}")
    m_cap = 1 << 20
    log_cap = math.log(m_cap)
    v_bp = min(V, log_cap - u) if log_cap > u else 0.0
    edges = [np.array([0.0]), np.array([V])]
    if v_bp > 0.0:
        m_lo = math.floor(math.exp(u)) + 1
        m_hi = math.floor(math.exp(u + v_bp))
        if m_hi >= m_lo:
            vm = np.log(np.arange(m_lo, m_hi + 1, dtype=float)) - u
            edges.append(vm[(vm > 0.0) & (vm < V)])
    # keep every panel at most 0.1 wide so Gauss-4 resolves the smooth factor
    edges.append(np.linspace(0.0, V, int(V / 0.1) + 1))
    rule = composite_rule(np.unique(np.concatenate(edges)), 4)
    h = h_eval(u + rule.nodes)
    return float(np.dot(rule.weights, h * np.asarray(F(rule.nodes), dtype=float)))
