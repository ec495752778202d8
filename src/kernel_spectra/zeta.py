"""Zeta-function connections of the kernel: residual checks for the
zeta partial-sum identity in four scalings, the Stirling-type improper
integral, and the log-variable Hankel form of the operator.

The paper's zeta connection is one identity, for 0 < x <= 1:

    (s+1) x^(s+1) int_0^1 K(x,y) y^s dy
        = zeta(s+1) - sum_{n <= 1/x} n^(-s-1) - x^s/s + x^(s+1) K(1,x).

_partial_sum_rhs forms its right side once, and each residual checks it in
its own scaling: zeta_connect_residual as written, euler_limit_residual at
s -> 0+, em_identity_residual divided by (s+1) x^(s+1) (the
Euler-Maclaurin action of y^s), and laplace_h_residual at x = 1 with s - 1
for s (the Laplace transform of h).

Every public "residual" operation evaluates both sides of one identity by
independent routes and returns |LHS - RHS|.  The kernel-side integrals go
through the certified tail engine (the substitution t = 1/(xy) turns each
kernel breakpoint into an integer cut, which that engine already splits
panels at).  The zeta sides take zeta and Hurwitz zeta from _zeta_em,
digamma from tails._z and log(n!) from bernoulli._stirling_bracket, none of
which kernel_moment's pure tail calls, so the kernel route never shares
code with the zeta route.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .bernoulli import _stirling_bracket
from .kernel import h_eval, k_eval
from .quadrature import composite_rule
from .tails import (_EM_BERNOULLI, _EM_SHIFT, _MAX_TERMS, _check_tol, _moment_scale, _z, kernel_moment,
                    tilde_power_tail)

__all__ = [
    "zeta",
    "zeta_connect_residual",
    "euler_limit_residual",
    "stirling_alt_residual",
    "laplace_h_residual",
    "em_identity_residual",
    "hankel_apply",
]


def zeta(s: float) -> float:
    """Riemann zeta for real s >= 0, s != 1, by Euler-Maclaurin; no path loads scipy.

    tails._z's scheme at x = 1 with real s: the powers k^-s, k < _EM_SHIFT,
    plus the tail at y = _EM_SHIFT from the same Bernoulli table.  Against
    mpmath at 600 seeded s in [0, 8] with |s - 1| >= 0.01 the relative
    error is at most 1e-14
    (tests/test_zeta.py::TestZetaValues::test_against_mpmath).
    """
    s = float(s)
    if not s >= 0.0:
        raise ValueError(f"zeta requires s >= 0, got s = {s}")
    if s == 1.0:
        raise ValueError("pole at s = 1")
    return _zeta_em(s, s - 1.0, 1.0)


# _zeta_em's tail: B_2j/(2j)! and the rising factorial's next two factors
_ZETA_TAIL = tuple((b, 2.0 * j + 1.0, 2.0 * j + 2.0) for j, b in enumerate(_EM_BERNOULLI))


def _em_tail(s: float, y: float, rising: float) -> float:
    """sum_{j=1..8} B_2j/(2j)! r_j y^(-2j), r_1 = rising, r_(j+1) = r_j (s + 2j - 1)(s + 2j).

    At rising = s, r_j is (s)_(2j-1) and y^(1-s) times this sum is the
    Euler-Maclaurin tail of zeta(s, y) past y^(1-s)/(s-1) + y^-s/2; at
    rising = 1 it is that tail over s.
    """
    tail, u = 0.0, y**-2.0
    w = u
    for b, c1, c2 in _ZETA_TAIL:
        tail += b * w * rising
        rising *= (s + c1) * (s + c2)
        w *= u
    return tail


def _zeta_em_terms(s: float, d: float, a: float) -> tuple[list[float], float]:
    """The terms of Hurwitz zeta(s, a) but its pole term y^-d/d, and y; d = s - 1 exactly.

    The powers (a + k)^-s for k < _EM_SHIFT - 1, then the Euler-Maclaurin
    tail y^-d (1/(2y) + ...) at y = a + _EM_SHIFT - 1, so that
    zeta(s, a) = fsum(terms) + y^-d/d.  The caller adds the pole term, or
    takes it together with a term of its own that cancels it.
    """
    y = a + (_EM_SHIFT - 1)
    return [*(pow(a + k, -s) for k in range(_EM_SHIFT - 1)), y**-d * (0.5 / y + _em_tail(s, y, s))], y


def _zeta_em(s: float, d: float, a: float) -> float:
    """Hurwitz zeta(s, a) for s >= 0 and a >= 1, given d = s - 1 exactly.

    _zeta_em_terms and the pole term; a = 1 gives zeta(s).  Against mpmath
    at seeded s in [1.25, 4] and a - 1 up to 1e9 it is within 1e-15
    relative (tests/test_zeta.py::TestZetaValues::test_hurwitz_against_mpmath).
    """
    terms, y = _zeta_em_terms(s, d, a)
    return math.fsum([*terms, y**-d / d])


def _partial_sum_rhs(s: float, x: float) -> float:
    """zeta(s+1) - sum_{n <= 1/x} n^(-s-1) - x^s/s + x^(s+1) K(1,x), for s >= -1/2 and 0 < x <= 1.

    The right side of the partial-sum identity, which every residual here
    but stirling_alt_residual scales.  zeta(s+1) less the partial sum is
    the Hurwitz zeta(s+1, floor(1/x) + 1), the terms of one _zeta_em_terms
    call at any x.  Its pole term y^-s/s and -x^s/s are both about 1/s, so
    they are taken together as x^s expm1(-s log(xy))/s; subtracted as
    formed they would cancel for small |s| (8.4e-9 off at x = 0.5,
    s = 1e-9, 7.6e-6 at s = 1e-11).  At s = 0 it is the limit
    gamma - sum_{n <= 1/x} 1/n + log(1/x) + x K(1,x), where gamma less the
    harmonic sum is -digamma(floor(1/x) + 1), one tails._z point.  Against
    a 40-digit mpmath at seeded s in [0, 3] and x in [0.01, 1], at s = 1e-12,
    1e-9, x = 1 and x = 1/n, and at s in [-1/2, 0) with x = 1, it is within
    1e-14 (tests/test_zeta.py::TestPartialSumRhs).
    """
    n = math.floor(1.0 / x)
    if s == 0.0:
        return float(_z(1, 1, np.array([n + 1.0]))[0, 0]) + math.log(1.0 / x) + x * float(k_eval(1.0, x))
    terms, y = _zeta_em_terms(s + 1.0, s, n + 1.0)
    xs = x**s
    # x^(s+1) K(1, x) = x^(s+1)/2 - x^s (1 - n x), where 1 - n x is exact or
    # nearly so, while 1/x would carry half an ulp of n
    return math.fsum([*terms, xs * math.expm1(-s * math.log(x * y)) / s,
                      0.5 * x ** (s + 1.0), -xs * (1.0 - n * x)])


def zeta_connect_residual(s: float, x: float, tol: float = 1e-10) -> float:
    """Residual of the partial-sum identity as written,

        (s+1) x^(s+1) int_0^1 K(x,y) y^s dy
            = zeta(s+1) - sum_{n <= 1/x} n^(-s-1) - x^s/s + x^(s+1) K(1,x),

    for s > 0 and 0 < x <= 1.  The left side is the certified kernel
    moment, the right side _partial_sum_rhs.  An x whose x^(-s-1)
    overflows raises ValueError naming x (kernel_moment).
    """
    s = float(s)
    x = float(x)
    if not s > 0.0:
        raise ValueError(f"zeta_connect_residual requires s > 0, got {s}")
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    lhs = (s + 1.0) * x ** (s + 1.0) * kernel_moment(x, s, tol)
    return abs(lhs - _partial_sum_rhs(s, x))


def euler_limit_residual(x: float, tol: float = 1e-10) -> float:
    """Residual of the partial-sum identity in its s -> 0+ limit:

        x int_0^1 K(x,y) dy = gamma - sum_{n <= 1/x} 1/n + log(1/x) + x K(1,x).

    The right side is _partial_sum_rhs at s = 0.  An x whose 1/x overflows
    raises ValueError naming x (kernel_moment).
    """
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    lhs = x * kernel_moment(x, 0.0, tol)
    return abs(lhs - _partial_sum_rhs(0.0, x))


def stirling_alt_residual(x: float, eps: float, tol: float = 1e-10) -> float:
    """Residual of the improper-integral Stirling form

        int_eps^1 K(x,y) y^(-1) dy  vs
        log(floor(1/x)!) - floor(1/x) log(1/x) + 1/x - log sqrt(2 pi / x).

    The right side is minus bernoulli._stirling_bracket, k2_diag_exact's
    bracket, which keeps it within tol at small x.  The epsilon cutoff is
    the dominant error source; halving eps shrinks the residual.  At x = 1
    the right side is 1 - log sqrt(2 pi).
    """
    x = float(x)
    eps = float(eps)
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    if not 0.0 < eps < x:
        raise ValueError("eps must satisfy 0 < eps < x")
    if not x * eps * sys.float_info.max > 1.0:  # 1/(x eps) below would overflow or divide by 0
        raise ValueError(f"eps = {eps:g} is too small: 1/(x eps) overflows")
    # int_eps^1 = int_0^1 - int_0^eps; the lower piece is a pure tail.
    lhs = kernel_moment(x, -1.0, tol) + tilde_power_tail(1, 1.0, 1.0 / (x * eps), tol)
    return abs(lhs + _stirling_bracket(x))


def laplace_h_residual(s: float, tol: float = 1e-10) -> float:
    """Residual of the Laplace-transform identity for h(v) = e^(-v/2) K(1, e^-v):

        int_0^1 K(1,y) y^(s-1) dy = (zeta(s) - 1/(s-1) - 1/2) / s,   s > 0,

    the partial-sum identity at x = 1 with s - 1 for s, divided by s.  For
    s >= 1/2 the right side is _partial_sum_rhs(s - 1, 1) / s, whose
    expm1 form keeps it within tol next to the pole at s = 1.  Below 1/2
    the division by s would cancel (4.8e-6 off at s = 1e-10, 0.048 at
    1e-14), so there _zeta_em's sum at a = 1 is regrouped so that each O(s)
    piece is divided by s in closed form, with e_k = expm1(-s log k)/s:

        sum_{k=2..7} e_k + (8 e_8 + 7)/(s-1) + e_8/2 + 8^(1-s) tail/s.
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"laplace_h_residual requires s > 0, got {s}")
    if s == 1.0:
        raise ValueError("pole at s = 1")
    lhs = kernel_moment(1.0, s - 1.0, tol)
    if s >= 0.5:
        return abs(lhs - _partial_sum_rhs(s - 1.0, 1.0) / s)
    y = float(_EM_SHIFT)
    e = [math.expm1(-s * math.log(k)) / s for k in range(2, _EM_SHIFT + 1)]
    rhs = math.fsum([*e[:-1], (y * e[-1] + (y - 1.0)) / (s - 1.0), 0.5 * e[-1],
                     y ** (1.0 - s) * _em_tail(s, y, 1.0)])
    return abs(lhs - rhs)


def em_identity_residual(s: float, x: float, tol: float = 1e-10) -> float:
    """Residual of the Euler-Maclaurin action identity for f(y) = y^s:

        int_0^1 K(x,y) y^s dy
            = sum_{n > 1/x} F(1/(nx)) - int_{1/x}^inf F(1/(nu x)) d nu
              + F(1) K(1,x),

    with F(z) = z^(s+1)/(s+1), for s >= 0 and 0 < x <= 1.  Summed in
    closed form, the right side is the partial-sum identity's divided by
    (s+1) x^(s+1), so it is _partial_sum_rhs(s, x) x^(-s-1)/(s+1).  An x
    whose x^(-s-1) or 1/x overflows raises ValueError by name before any
    work.
    """
    s = float(s)
    x = float(x)
    if not s >= 0.0:
        raise ValueError(f"em_identity_residual requires s >= 0, got {s}")
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    _check_tol(tol)
    scale = _moment_scale(x, s)  # first: it rejects an x too small
    lhs = kernel_moment(x, s, tol)
    return abs(lhs - _partial_sum_rhs(s, x) * scale / (s + 1.0))


def hankel_apply(F, u: float, V: float = 40.0) -> float:
    """Log-variable action G(u) = int_0^V h(u+v) F(v) dv of the Hankel form,
    h(w) = e^(-w/2) K(1, e^-w).

    F must be vectorized on [0, V].  Panels are cut where e^(u+v) crosses an
    integer (the jumps of K(1, .)), up to 2^20 cuts; past that point h is
    below ~5e-4 and smooth panels take over.  No panel is wider than 0.1, so
    a V past 0.1 _MAX_TERMS (1.7e6) raises ValueError naming V before any
    work.  The x-domain counterpart of
    G(u) is sqrt(x) int_0^1 K(x,y) f(y) dy at x = e^-u: tests/test_zeta.py
    (TestHankelForm) checks this route against kernel_moment there.
    """
    u = float(u)
    if not 0.0 <= u < math.inf:
        raise ValueError(f"u must be nonnegative and finite, got {u}")
    if not 0.0 < V < math.inf:
        raise ValueError(f"V must be positive and finite, got {V}")
    if int(V / 0.1) + 1 > _MAX_TERMS:  # the points of the 0.1-wide panel grid below
        raise ValueError(f"V = {V:g} needs more than {_MAX_TERMS} panels of width 0.1")
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
