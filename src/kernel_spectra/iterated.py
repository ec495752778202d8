"""The iterated kernel: the z-integral of two kernel rows, by three routes.

K2(x, y) = int_0^1 K(x,z) K(z,y) dz is continuous away from the origin,
positive semidefinite, and small off the diagonal (|K2| is bounded by a
constant times min{x,y}/max{x,y}).  Three independent evaluation routes:

* quadrature: exact per-panel antiderivatives of the product of two
  staircase rows, panels split at every jump of either row, plus a
  certified correction for the (0, eps] tail computed in 1/(xz) space;
* closed form: a four-term formula (boundary product, two tail integrals
  over [1/x, inf), and a sawtooth series) through the certified tail
  engine, one row of columns y at a time (a scalar call is one column);
* diagonal: a Stirling-type expression through log_factorial, valid only
  at x = y.

Route agreement is the main correctness argument; the tests compare all
three against each other and against frozen adaptive-quadrature values.

Also here: the partial integrals int_0^x K2(z,y) dz and
int_x^y K2(z,w) dz/z^2 used by the eigenfunction asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import bernoulli_tilde, log_factorial
from .kernel import k_eval
from .quadrature import composite_rule, kernel_breakpoints
from .tails import (
    _bn_series_vec,
    _direct_sums,
    _tilde_tail_vec,
    b2_series,
    mixed_power_tail,
    tilde_power_tail,
)

__all__ = [
    "K2Evaluator",
    "k2_quadrature",
    "k2_closed",
    "k2_diag_exact",
    "sawtooth_sum",
    "i0_eval",
    "i_eval",
    "OFF_DIAGONAL_BOUND",
    "DIAGONAL_BOUND",
]

# |K2(x,y)| <= OFF_DIAGONAL_BOUND * min{x,y}/max{x,y}
OFF_DIAGONAL_BOUND = 0.25 + 1.0 / (36.0 * math.sqrt(3.0))
# |K2(x,x) - 1/12| <= DIAGONAL_BOUND * x
DIAGONAL_BOUND = 1.0 / 6.0 + 1.0 / (36.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class K2Evaluator:
    """Configuration for the iterated-kernel routes: tol, the absolute target of one evaluation."""

    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")


_DEFAULT = K2Evaluator()


def sawtooth_sum(x: float, y: float, tol: float = 1e-10) -> float:
    """The bare series sum_{m > 1/y} B~2(m y/x) m^(-2) from the closed form."""
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("sawtooth_sum requires x, y in (0, 1]")
    return b2_series(y / x, math.floor(1.0 / y) + 1, tol)


def _k2_row(x: float, ys: np.ndarray, tol: float) -> np.ndarray:
    """The closed form K2(x, y) within tol for one x and every y in ys, all >= x.

    One row of the iterated-kernel matrix in one pass: what depends on
    A = 1/x alone (the pure tails, B~n(A), the window's integer cuts) is
    computed once, the rest as arrays over the columns.  The series t4 and
    the mixed tail's jump series are one drift-class sum per column, each
    with its own convergent and certificate.  The t3 tail is taken once at
    the tightest column tolerance, 2 min(ys) tol/3, which meets every
    column's; t2, t3 and t4 take tol/3 each.
    """
    ys = np.asarray(ys, dtype=float)
    if not (ys.size and 0.0 < x <= float(ys.min()) and float(ys.max()) <= 1.0):
        raise ValueError("_k2_row requires 0 < x <= y <= 1 for every y")
    A = 1.0 / x
    t1 = -0.5 * x * bernoulli_tilde(2, A) * bernoulli_tilde(1, 1.0 / ys)
    t2 = mixed_power_tail(A, x / ys, tol * x / 3.0) / x
    t3 = -0.5 / ys * tilde_power_tail(2, 2.0, A, 2.0 * float(ys.min()) * tol / 3.0)
    pref = 0.5 * x / (ys * ys)
    m_start = np.floor(1.0 / ys).astype(np.int64) + 1
    t4 = pref * _bn_series_vec(2, ys / x, 2, m_start, tol / (3.0 * pref))
    return t1 + t2 + t3 + t4


def _closed_literal(x: float, y: float, tol: float) -> float:
    """The closed form with plain truncations in place of certified tails.

    The series stops at M = ceil(1/(6 tol)) (tail <= 1/(6 M)), the integrals
    at T = 1e4 (tail <= 1/(24 T^2) = 4.2e-10).  Kept as an independent oracle
    for k2_closed, which
    tests/test_iterated.py::TestRouteAgreement::test_literal_route_agrees
    compares with it.
    """
    A = 1.0 / x
    beta = y / x
    T = 1e4
    if A >= T:
        raise ValueError("the literal route needs 1/x below its truncation T = 1e4")
    base = np.arange(math.ceil(A), T + 0.5)
    # the second row's factor jumps where x t / y = t / beta is an integer
    jumps = beta * np.arange(math.ceil(A / beta), math.floor(T / beta) + 1.0)
    cuts = np.unique(np.concatenate(([A, T], base, jumps)))
    cuts = cuts[(cuts >= A) & (cuts <= T)]
    rule = composite_rule(cuts, 8)
    i1 = rule.integrate(
        lambda t: bernoulli_tilde(2, t) * bernoulli_tilde(1, t / beta) * t**-3
    )
    rule2 = composite_rule(np.unique(np.concatenate(([A, T], base))), 8)
    # B~2 has zero mean, so plain truncation at T leaves under T^-2/(36 sqrt 3)
    i2 = rule2.integrate(lambda t: bernoulli_tilde(2, t) * t**-2)
    m0 = math.floor(1.0 / y) + 1
    m_series = math.ceil(1.0 / (6.0 * tol))
    series = float(_direct_sums(2, 2.0, beta, m0, m_series + math.ceil(1.0 / y))[0])
    t1 = -0.5 * x * bernoulli_tilde(2, A) * bernoulli_tilde(1, 1.0 / y)
    return t1 + i1 / x - 0.5 * i2 / y + 0.5 * x / (y * y) * series


def k2_closed(x: float, y: float, evaluator: K2Evaluator | None = None) -> float:
    """Four-term closed form for K2(x, y); x, y in (0, 1].

    A one-column row of _k2_row, the form that fills the iterated-kernel
    matrix; (x, y) is taken as (min, max) by symmetry, which keeps the
    mixed-tail ratio at most 1.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("k2_closed requires x, y in (0, 1]")
    ev = evaluator if evaluator is not None else _DEFAULT
    return float(_k2_row(min(x, y), np.array([max(x, y)]), ev.tol)[0])


def k2_quadrature(x: float, y: float, evaluator: K2Evaluator | None = None) -> float:
    """Definitional integral int_0^1 K(x,z) K(z,y) dz; x, y in [0, 1].

    On [eps, 1] both rows are staircases in 1/z, so each merged panel has
    the exact antiderivative c1 c2 z - (c1/y + c2/x) log z - 1/(x y z).
    The (0, eps] remainder is pushed to [1/(x eps), inf) in t = 1/(xz) and
    integrated by parts once; every resulting piece is a certified tail.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("k2_quadrature requires x, y in [0, 1]")
    if x == 0.0 or y == 0.0:
        return 0.0
    if x > y:
        x, y = y, x
    ev = evaluator if evaluator is not None else _DEFAULT
    tol = ev.tol
    eps = min(max(math.sqrt(6.0 * tol), 1.0 / (x * 4.0e6)), 0.5)
    u = 1.0 / x
    v = 1.0 / y
    cuts = np.union1d(kernel_breakpoints(x, eps), kernel_breakpoints(y, eps))
    lo = cuts[:-1]
    hi = cuts[1:]
    mid = 0.5 * (lo + hi)
    c1 = np.floor(u / mid) + 0.5
    c2 = np.floor(v / mid) + 0.5
    dz = hi - lo
    # stable per-panel differences: the raw antiderivative values are ~1/eps
    # and would cancel catastrophically near the cutoff
    bulk = float(
        np.sum(
            c1 * c2 * dz - (c1 * v + c2 * u) * np.log1p(dz / lo) + u * v * dz / (hi * lo)
        )
    )
    alpha = x / y
    tp = 1.0 / (x * eps)
    sub = 0.25 * tol * x
    corr = -0.5 * bernoulli_tilde(2, tp) * bernoulli_tilde(1, alpha * tp) * tp**-2
    corr -= 0.5 * alpha * tilde_power_tail(2, 2.0, tp, sub)
    corr += (
        0.5
        * alpha**2
        * b2_series(y / x, math.floor(alpha * tp) + 1, 2.0 * sub / alpha**2)
    )
    corr += mixed_power_tail(tp, alpha, sub)
    return bulk + corr / x


def k2_diag_exact(x: float) -> float:
    """K2(x, x) through a Stirling-type identity; x in (0, 1].

    K2(x,x) = K(1,x)^2 + (2/x) [n log(1/x) - 1/x + log sqrt(2 pi / x)
    - log(n!)] with n = floor(1/x).  At x = 1 this is log(2 pi) - 7/4.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("k2_diag_exact requires x in (0, 1]")
    n = math.floor(1.0 / x)
    bracket = (
        n * math.log(1.0 / x)
        - 1.0 / x
        + 0.5 * math.log(2.0 * math.pi / x)
        - log_factorial(n)
    )
    return k_eval(1.0, x) ** 2 + 2.0 * bracket / x


# |int_A^inf B2~(t) t^-q dt| <= _B2_TAIL_SUP * A^-q for every q >= 1:
# one integration by parts against B3~/3 gives B3_MAX/3 from the boundary
# term and another B3_MAX/3 from the remaining integral.
_B2_TAIL_SUP = 1.0 / (18.0 * math.sqrt(3.0))


def _g_tail(a: float, tol: float) -> float:
    """G(a) = int_a^inf B2~(t) t^-3 dt, certified to tol."""
    return tilde_power_tail(2, 3, a, tol)


def _w21(a: float, b: float, tol: float) -> float:
    """int_a^b B2~(t) t^-1 dt as a difference of certified tails.

    The infinite t^-1 tails converge because B2~ has zero mean.
    """
    return tilde_power_tail(2, 1, a, 0.5 * tol) - tilde_power_tail(2, 1, b, 0.5 * tol)


def _g_series(beta: float, m_start: int, tol: float) -> float:
    """sum_{m >= m_start} G(m beta), certified to tol.

    Truncated where the envelope _B2_TAIL_SUP (m beta)^-3 makes the tail
    sum at most tol/2; the other half is split over the summed terms in
    proportion to that same envelope.
    """
    m_hi = m_start + int(math.sqrt(_B2_TAIL_SUP / (beta**3 * tol))) + 1
    a = np.arange(m_start, m_hi + 1, dtype=float) * beta
    env = a**-3
    tol_m = 0.5 * tol * env / float(np.sum(env))
    return float(np.sum(_tilde_tail_vec(2, 3.0, a, tol_m)))


def _u_cuts(u_hi: float, steps: tuple[float, ...]) -> np.ndarray:
    """Panel boundaries on [1, u_hi]: every multiple of every step inside."""
    pts = [np.array([1.0, u_hi])]
    for s in steps:
        j_lo = math.floor(1.0 / s) + 1
        j_hi = math.ceil(u_hi / s) - 1
        if j_hi >= j_lo:
            pts.append(np.arange(j_lo, j_hi + 1, dtype=float) * s)
    cuts = np.concatenate(pts)
    return np.unique(cuts[(cuts >= 1.0) & (cuts <= u_hi)])


def i0_eval(x: float, y: float, tol: float = 1e-8) -> float:
    """int_0^x K2(z, y) dz through termwise antiderivatives.

    Integrating the four-term closed form of K2(z, y) in z term by term
    (substituting t = 1/z or t = m y/z as appropriate) turns every piece
    into certified Bernoulli tails, with no z-quadrature left:

      int_0^x z B2~(1/z) dz            = G(1/x)
      int_0^x H(1/z) dz                = x H(1/x) - G(1/x)
      int_0^x z B2~(m y/z)/m^2 dz      = y^2 G(m y/x)
      int_0^x [mixed-tail term] dz     = int_1^inf B1~(u/y) u^-1 G(u/x) du

    with G(a) = int_a^inf B2~ t^-3 dt and H(a) = int_a^inf B2~ t^-2 dt.
    The direct route (quadrature of z -> k2_closed(z, y)) converges too
    slowly to be usable: K2(z, y) has derivative kinks on the dense set
    z = m y / j, giving its z-derivative unbounded variation.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("i0_eval requires x, y in (0, 1]")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    b1 = bernoulli_tilde(1, 1.0 / y)
    c_g = 0.5 * abs(b1) + 0.5 / y  # G(1/x) enters the boundary and H terms
    g_1x = _g_tail(1.0 / x, 0.25 * tol / c_g)
    h_1x = tilde_power_tail(2, 2, 1.0 / x, 0.25 * tol * y / x)
    t_boundary = -0.5 * b1 * g_1x
    t_h = -(x * h_1x - g_1x) / (2.0 * y)
    t_series = 0.5 * _g_series(y / x, math.floor(1.0 / y) + 1, 0.25 * tol)
    t_mixed = _i0_mixed_term(x, y, 0.25 * tol)
    return t_boundary + t_mixed + t_h + t_series


def _i0_mixed_term(x: float, y: float, tol: float) -> float:
    """int_1^inf B1~(u/y) u^-1 G(u/x) du, certified to tol.

    |G(u/x)| <= _B2_TAIL_SUP (x/u)^3 caps the tail beyond u_hi at
    _B2_TAIL_SUP x^3/(6 u_hi^3).  B1~ jumps at multiples of y and G has
    second-derivative kinks at multiples of x, so both families are panel
    boundaries; panels are smooth inside and Gauss order 12 resolves them.
    """
    u_hi = (x**3 * _B2_TAIL_SUP / (3.0 * tol)) ** (1.0 / 3.0)
    if u_hi <= 1.0:
        return 0.0
    per_node = 0.5 * tol / math.log(max(u_hi, math.e))
    rule = composite_rule(_u_cuts(u_hi, (y, x)), 12)
    g = _tilde_tail_vec(2, 3.0, rule.nodes / x, np.full_like(rule.nodes, per_node))
    vals = bernoulli_tilde(1, rule.nodes / y) / rule.nodes * g
    return float(np.dot(rule.weights, vals))


def i_eval(x: float, y: float, w: float, tol: float = 1e-8) -> float:
    """int_x^y K2(z, w) dz / z^2, antisymmetric in (x, y); w in (0, 1].

    Same termwise antidifferentiation as i0_eval, with the z^-2 weight
    turning the substitutions into t^-1 tails:

      int_x^y z^-1 B2~(1/z) dz         = W(1/y, 1/x)
      int_x^y H(1/z) z^-2 dz           = [v H(v)] + W over v in [1/y, 1/x]
      int_x^y z^-1 B2~(m w/z)/m^2 dz   = W(m w/y, m w/x) / m^2
      int_x^y [mixed-tail term] / z^2  = int_1^inf B1~(u/w) u^-3 W(u/y, u/x) du

    where W(a, b) = int_a^b B2~(t) t^-1 dt.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0 and 0.0 < w <= 1.0):
        raise ValueError("i_eval requires x, y, w in (0, 1]")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if x == y:
        return 0.0
    if x > y:
        return -i_eval(y, x, w, tol)
    a, b = 1.0 / y, 1.0 / x
    b1 = bernoulli_tilde(1, 1.0 / w)
    c_w = 0.5 * abs(b1) + 0.5 / w  # W(1/y, 1/x) enters the boundary and H terms
    w_ab = _w21(a, b, 0.25 * tol / c_w)
    h_a = tilde_power_tail(2, 2, a, 0.125 * tol * w / a)
    h_b = tilde_power_tail(2, 2, b, 0.125 * tol * w / b)
    t_boundary = -0.5 * b1 * w_ab
    t_h = -((b * h_b - a * h_a) + w_ab) / (2.0 * w)
    t_series = _i_series_term(x, y, w, 0.25 * tol)
    t_mixed = _i_mixed_term(x, y, w, 0.25 * tol)
    return t_boundary + t_mixed + t_h + t_series


def _i_series_term(x: float, y: float, w: float, tol: float) -> float:
    """(1/(2w^2)) sum_{m > 1/w} W(m w/y, m w/x) / m^2, certified to tol."""
    m_start = math.floor(1.0 / w) + 1
    # |W(m w/y, m w/x)| <= _B2_TAIL_SUP (x + y)/(m w); tail sum <= tol/2
    m_hi = m_start + int(math.sqrt(_B2_TAIL_SUP * (x + y) / (w**3 * tol))) + 1
    m = np.arange(m_start, m_hi + 1, dtype=float)
    env = m**-3
    tol_m = 0.5 * w**2 * tol * env / float(np.sum(env))  # * m^2 weight later
    w21 = _tilde_tail_vec(2, 1.0, m * (w / y), 0.5 * tol_m) - _tilde_tail_vec(
        2, 1.0, m * (w / x), 0.5 * tol_m
    )
    return float(np.dot(w21, m**-2)) / (2.0 * w**2)


def _i_mixed_term(x: float, y: float, w: float, tol: float) -> float:
    """int_1^inf B1~(u/w) u^-3 W(u/y, u/x) du, certified to tol."""
    u_hi = (_B2_TAIL_SUP * (x + y) / (6.0 * tol)) ** (1.0 / 3.0)
    if u_hi <= 1.0:
        return 0.0
    rule = composite_rule(_u_cuts(u_hi, (w, x, y)), 12)
    per_node = np.full_like(rule.nodes, tol)  # weight integrates to <= 1/4
    w21 = _tilde_tail_vec(2, 1.0, rule.nodes / y, per_node) - _tilde_tail_vec(
        2, 1.0, rule.nodes / x, per_node
    )
    vals = bernoulli_tilde(1, rule.nodes / w) / rule.nodes**3 * w21
    return float(np.dot(rule.weights, vals))
