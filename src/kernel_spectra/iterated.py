"""The iterated kernel: the z-integral of two kernel rows, by three routes.

K2(x, y) = int_0^1 K(x,z) K(z,y) dz is continuous away from the origin,
positive semidefinite, and small off the diagonal (|K2| is bounded by a
constant times min{x,y}/max{x,y}).  Three independent evaluation routes:

* quadrature: exact per-panel antiderivatives of the product of two
  staircase rows on [eps, 1], eps = 2^-8, panels split at every jump of
  either row, plus the closed form of the (0, eps] part (_k2_row at
  eps); that correction is certified to tol at any eps, which sets only
  the share of the definitional bulk (see k2_quadrature);
* closed form: a four-term formula (boundary product, two tail integrals
  over [1/x, inf), and a sawtooth series) through the certified tail
  engine, one row of columns y at a time (a scalar call is one column),
  _k2_row at eps = 1;
* diagonal: a Stirling-type expression through log_factorial, valid only
  at x = y.

Route agreement is the main correctness argument; the tests compare all
three against each other and against frozen adaptive-quadrature values.

Also here: the partial integrals int_0^x K2(z,y) dz (i0_eval) and
int_x^y K2(z,w) dz/z^2 (i_eval), by termwise antiderivatives of the closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import bernoulli_tilde, log_factorial
from .kernel import k_eval
from .quadrature import composite_rule, merged_breakpoint_blocks
from .tails import _bn_series_vec, _tilde_tail_vec, mixed_power_tail, tilde_power_tail

__all__ = [
    "K2Evaluator",
    "k2_quadrature",
    "k2_closed",
    "k2_diag_exact",
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


def _k2_row(x: float, ys: np.ndarray, tol: float, eps: float = 1.0) -> np.ndarray:
    """int_0^eps K(x,z) K(z,y) dz within tol for one x and every y in ys, all >= x.

    The four-term closed form in t = 1/(xz) from A = 1/(x eps): at eps = 1
    K2(x, y), one row of the iterated-kernel matrix (k2_closed), below 1
    k2_quadrature's (0, eps] correction.  What depends on A alone (the pure
    tails, B~n(A), the window's integer cuts) is computed once, the rest as
    arrays over the columns.  The series t4 and the mixed tail's jump
    series are one drift-class sum per column, each with its own
    convergent and certificate.  The t3 tail is taken once at the tightest
    column tolerance, 2 min(ys) tol/3, which meets every column's; t2, t3
    and t4 take tol/3 each.
    """
    ys = np.asarray(ys, dtype=float)
    if not (ys.size and 0.0 < x <= float(ys.min()) and float(ys.max()) <= 1.0):
        raise ValueError("_k2_row requires 0 < x <= y <= 1 for every y")
    A = 1.0 / (x * eps)
    b = 1.0 / (ys * eps)
    t1 = -0.5 * x * eps * eps * bernoulli_tilde(2, A) * bernoulli_tilde(1, b)
    t2 = mixed_power_tail(A, x / ys, tol * x / 3.0) / x
    t3 = -0.5 / ys * tilde_power_tail(2, 2.0, A, 2.0 * float(ys.min()) * tol / 3.0)
    pref = 0.5 * x / (ys * ys)
    m_start = np.floor(b).astype(np.int64) + 1
    t4 = pref * _bn_series_vec(2, ys / x, 2, m_start, tol / (3.0 * pref))
    return t1 + t2 + t3 + t4


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
    The (0, eps] remainder is _k2_row at eps, the closed form from
    1/(x eps), certified to tol for any eps.  So eps only splits the work:
    the bulk costs about 1/(x eps) + 1/(y eps) merged panels, the
    correction hardly depends on eps.  eps is the fixed 2^-8 (1/(x 4e6) for
    x below 6.4e-5, which bounds the panel count): the bulk still covers
    [1/256, 1] from the definition, and the part shared with k2_closed is
    at most eps/4 (|K| <= 1/2; below 5e-6 on 300 seeded pairs in
    [0.01, 1]^2), so the route stays a check on the closed form.  A cutoff
    shrinking with tol would only add panels and their rounding: at tol
    1e-11, eps = sqrt(6 tol) leaves 1.3e5/x panels, whose sum was up to
    3.7e-9 off k2_closed on 16 seeded pairs in [0.02, 1]^2.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("k2_quadrature requires x, y in [0, 1]")
    if x == 0.0 or y == 0.0:
        return 0.0
    if x > y:
        x, y = y, x
    ev = evaluator if evaluator is not None else _DEFAULT
    tol = ev.tol
    eps = min(max(2.0**-8, 1.0 / (x * 4.0e6)), 0.5)
    u = 1.0 / x
    v = 1.0 / y
    bulk = 0.0
    # the merged breakpoints of both rows, a bounded block at a time: near
    # x = 0.002 the rows have ~1/(x eps) = 1.3e5 of them
    for cuts in merged_breakpoint_blocks(x, y, eps):
        lo = cuts[:-1]
        hi = cuts[1:]
        mid = 0.5 * (lo + hi)
        c1 = np.floor(u / mid) + 0.5
        c2 = np.floor(v / mid) + 0.5
        dz = hi - lo
        # stable per-panel differences: the raw antiderivative values are ~1/eps
        # and would cancel catastrophically near the cutoff
        bulk += float(
            np.sum(
                c1 * c2 * dz - (c1 * v + c2 * u) * np.log1p(dz / lo) + u * v * dz / (hi * lo)
            )
        )
    return bulk + float(_k2_row(x, np.array([y]), tol, eps)[0])


def k2_diag_exact(x: float) -> float:
    """K2(x, x) through a Stirling-type identity; x in (0, 1].

    K2(x,x) = K(1,x)^2 + (2/x) [n log(1/x) - 1/x + log sqrt(2 pi / x)
    - log(n!)] with n = floor(1/x).  At x = 1 this is log(2 pi) - 7/4.
    From n = 33 on the bracket is (n + 1/2) log1p(f/n) - f - 1/(12n)
    + 1/(360n^3) - 1/(1260n^5) with f = 1/x - n, its n log n terms
    cancelled in closed form; the next Stirling term adds 1/(840 n^6) after
    the 2/x factor.  Against mpmath at 50 digits this form is within
    9.5e-13 from n = 33 on and the plain bracket within 1.5e-12 below; past
    n = 32 the plain bracket is up to 4.3e-10 off (n = 256), 8.9e-8 at x = 1e-4.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("k2_diag_exact requires x in (0, 1]")
    n = math.floor(1.0 / x)
    if n <= 32:
        bracket = (n * math.log(1.0 / x) - 1.0 / x + 0.5 * math.log(2.0 * math.pi / x)
                   - log_factorial(n))
    else:
        f, ni = 1.0 / x - n, 1.0 / n
        bracket = ((n + 0.5) * math.log1p(f * ni) - f
                   - ni * (1.0 / 12.0 - ni * ni * (1.0 / 360.0 - ni * ni / 1260.0)))
    return k_eval(1.0, x) ** 2 + 2.0 * bracket / x


# |int_A^inf B2~(t) t^-q dt| <= _B2_TAIL_SUP * A^-q for every q >= 1:
# one integration by parts against B3~/3 gives B3_MAX/3 from the boundary
# term and another B3_MAX/3 from the remaining integral.
_B2_TAIL_SUP = 1.0 / (18.0 * math.sqrt(3.0))


def _w21(a, b, tol) -> np.ndarray:
    """int_a^b B2~(t) t^-1 dt within tol for every pair (a, b), a difference of certified tails.

    The infinite t^-1 tails converge because B2~ has zero mean; each takes tol/2.
    """
    half = 0.5 * np.asarray(tol, dtype=float)
    return (_tilde_tail_vec(2, 1.0, np.atleast_1d(a), half)
            - _tilde_tail_vec(2, 1.0, np.atleast_1d(b), half))


def _u_integral(f, u_hi: float, steps: tuple[float, ...]) -> float:
    """int_1^u_hi f(u) du by Gauss order 12 on panels cut at every multiple of every step.

    f is smooth between those cuts (the mixed terms' factors jump or kink
    at multiples of the steps), so each panel is resolved; 0 if u_hi <= 1.
    """
    if u_hi <= 1.0:
        return 0.0
    pts = [np.array([1.0, u_hi])]
    for s in steps:
        j_lo = math.floor(1.0 / s) + 1
        j_hi = math.ceil(u_hi / s) - 1
        if j_hi >= j_lo:
            pts.append(np.arange(j_lo, j_hi + 1, dtype=float) * s)
    cuts = np.concatenate(pts)
    return composite_rule(np.unique(cuts[(cuts >= 1.0) & (cuts <= u_hi)]), 12).integrate(f)


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
    The series over m > 1/y is summed under the integral: with beta = y/x,
    m0 = floor(1/y) + 1 and a = m0 beta > 1/x, the count of m >= m0 with
    m beta <= t is floor(t/beta) - m0 + 1, and floor(u) = u - 1/2 - B1~(u)
    turns the sum into two pure tails and a mixed tail,

      sum_{m >= m0} G(m beta) = H(a)/beta + (1/2 - m0) G(a)
                                - int_a^inf B2~(t) B1~(t/beta) t^-3 dt,

    the last being mixed_power_tail(a, x/y) (_i0_series_term).  Split of
    tol: the boundary, H, series and mixed terms take tol/4 each; the
    series term is half the sum, so the sum may be off by tol/2, and each
    of its three pieces takes a third of that divided by the piece's
    factor (1/beta, m0 - 1/2 and 1).

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
    g_1x = tilde_power_tail(2, 3.0, 1.0 / x, 0.25 * tol / c_g)
    h_1x = tilde_power_tail(2, 2, 1.0 / x, 0.25 * tol * y / x)
    t_boundary = -0.5 * b1 * g_1x
    t_h = -(x * h_1x - g_1x) / (2.0 * y)
    t_series = _i0_series_term(x, y, 0.25 * tol)
    t_mixed = _i0_mixed_term(x, y, 0.25 * tol)
    return t_boundary + t_mixed + t_h + t_series


def _i0_series_term(x: float, y: float, tol: float) -> float:
    """(1/2) sum_{m > 1/y} G(m y/x) by the exchange in i0_eval's docstring, certified to tol.

    Each of the three pieces is certified to 2 tol/3 divided by its factor,
    so the half sum is within tol.  tests/test_iterated.py::TestI0 compares
    it with the termwise sum direct_g_series.
    """
    m0 = math.floor(1.0 / y) + 1
    beta = y / x
    a, third = m0 * beta, 2.0 * tol / 3.0
    total = (tilde_power_tail(2, 2.0, a, third * beta) / beta
             + (0.5 - m0) * tilde_power_tail(2, 3.0, a, third / (m0 - 0.5))
             - mixed_power_tail(a, x / y, third))
    return 0.5 * total


def _i0_mixed_term(x: float, y: float, tol: float) -> float:
    """int_1^inf B1~(u/y) u^-1 G(u/x) du, certified to tol.

    |G(u/x)| <= _B2_TAIL_SUP (x/u)^3 caps the tail beyond u_hi at
    _B2_TAIL_SUP x^3/(6 u_hi^3).  B1~ jumps at multiples of y and G has
    second-derivative kinks at multiples of x.
    """
    u_hi = (x**3 * _B2_TAIL_SUP / (3.0 * tol)) ** (1.0 / 3.0)
    per_node = 0.5 * tol / math.log(max(u_hi, math.e))

    def f(u):
        return bernoulli_tilde(1, u / y) / u * _tilde_tail_vec(2, 3.0, u / x, per_node)

    return _u_integral(f, u_hi, (y, x))


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
    w_ab = float(_w21(a, b, 0.25 * tol / c_w)[0])
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
    return float(np.dot(_w21(m * (w / y), m * (w / x), tol_m), m**-2)) / (2.0 * w**2)


def _i_mixed_term(x: float, y: float, w: float, tol: float) -> float:
    """int_1^inf B1~(u/w) u^-3 W(u/y, u/x) du, certified to tol."""
    u_hi = (_B2_TAIL_SUP * (x + y) / (6.0 * tol)) ** (1.0 / 3.0)

    def f(u):  # each W within 2 tol, and the weight integrates to <= 1/4
        return bernoulli_tilde(1, u / w) / u**3 * _w21(u / y, u / x, 2.0 * tol)

    return _u_integral(f, u_hi, (w, x, y))
