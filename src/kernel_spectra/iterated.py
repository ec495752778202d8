"""The iterated kernel: the z-integral of two kernel rows, by three routes.

K2(x, y) = int_0^1 K(x,z) K(z,y) dz is continuous away from the origin,
positive semidefinite, and small off the diagonal (|K2| is bounded by a
constant times min{x,y}/max{x,y}).  Three independent evaluation routes:

* quadrature: exact per-panel antiderivatives of the product of two
  staircase rows on [eps, 1], eps = 2^-8, panels split at every jump of
  either row, plus the closed form of the (0, eps] part (_k2_row at
  eps); that correction is certified to tol at any eps, which sets only
  the share of the definitional bulk (see k2_quadrature);
* closed form: with t = 1/(xz), K2 is (1/x) times the integral of
  B~1(t) B~1(x t/y) t^-2 over [1/x, inf), which is one by-parts level
  (tails._by_parts_level at n = 2) plus the certified mixed tail, one row
  of columns y at a time (a scalar call is one column), _k2_row at
  eps = 1;
* diagonal: a Stirling-type expression through log_factorial, valid only
  at x = y.

Route agreement is the main correctness argument; the tests compare all
three against each other and against frozen adaptive-quadrature values.

Also here: the partial integrals int_0^x K2(z,y) dz (i0_eval) and
int_x^y K2(z,w) dz/z^2 (i_eval), by Fubini on K2 = int K K: the z-integral
of K(z,t) is a Bernoulli antiderivative in closed form, and what is left
over t is the certified mixed tail int_A^inf B2~(s) B1~(alpha s) s^-3 ds.
i0_eval has k2_quadrature's shape: an exact panel sum on merged
breakpoints down to a cutoff, and that mixed tail below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .bernoulli import bernoulli_tilde, log_factorial
from .kernel import k_eval
from .quadrature import merged_breakpoint_blocks
from .tails import _by_parts_level, mixed_power_tail

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

    With t = 1/(xz) and alpha = x/y it is (1/x) int_A^inf B~1(t)
    B~1(alpha t) t^(-2) dt, A = 1/(x eps): at eps = 1 K2(x, y), one row of
    the iterated-kernel matrix (k2_closed), below 1 k2_quadrature's
    correction.  _by_parts_level at n = 2 (jump series at beta = y/x)
    takes 2 tol x/3 and leaves mixed_power_tail(A, alpha), which takes
    tol x/3.  No column sets another's value (alpha <= 1), so every entry
    equals its one-column call k2_closed bit for bit.
    """
    ys = np.asarray(ys, dtype=float)
    if not (ys.size and 0.0 < x <= float(ys.min()) and float(ys.max()) <= 1.0):
        raise ValueError("_k2_row requires 0 < x <= y <= 1 for every y")
    A = 1.0 / (x * eps)
    b = 1.0 / (ys * eps)  # alpha A
    alpha = x / ys
    level = _by_parts_level(2, A, alpha, ys / x, bernoulli_tilde(1, b),
                            np.floor(b).astype(np.int64) + 1, tol * x / 3.0)
    return (level + mixed_power_tail(A, alpha, tol * x / 3.0)) / x


def k2_closed(x: float, y: float, evaluator: K2Evaluator | None = None) -> float:
    """Closed form for K2(x, y); x, y in (0, 1].

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
# one integration by parts against B3~/3 gives sup|B3~|/3 = 1/(36 sqrt 3)
# from the boundary term and another 1/(36 sqrt 3) from the remaining integral.
_B2_TAIL_SUP = 1.0 / (18.0 * math.sqrt(3.0))


def i0_eval(x: float, y: float, tol: float = 1e-8) -> float:
    """int_0^x K2(z, y) dz by Fubini, z first, in k2_quadrature's shape.

    With n = floor(1/(xt)), the Euler limit (zeta.euler_limit_residual)
    gives Phi(t) = int_0^x K(z,t) dz = (c_n - log t)/t + e, where
    c_n = -psi(n+1) - log x - 1 and e = x (n + 1/2).  Bulk, t in [1/U, 1]:
    on a merged panel [lo, hi] of the rows x and y, K(t,y) = d - v/t with
    v = 1/y, d = floor(v/t) + 1/2, and Phi = (c - log(t/lo))/t + e with
    c = c_n - log lo; with dz = hi - lo and L = log1p(dz/lo), exactly

      int K Phi dt = d (c L - L^2/2 + e dz) - v (((c - 1) dz + lo L)/(hi lo) + e L).

    Tail, t in (0, 1/U]: Phi(t) = [B2~(a)/(2a^2) - G(a)]/t, a = 1/(xt),
    G(a) = int_a^inf B2~ s^-3 ds.  Against K(t,y) = -B1~(1/(ty)) the B2~
    part is -M(U/x, x/y)/2 with M(A, alpha) = int_A^inf B2~(s) B1~(alpha s)
    s^-3 ds, the certified mixed_power_tail (tol/2 after halving).  The G
    part, int_U^inf B1~(u/y) G(u/x) du/u, is at most _B2_TAIL_SUP x^3/(6U^3),
    tol/4 at U = max(1, (_B2_TAIL_SUP x^3/(1.5 tol))^(1/3)), and is dropped;
    at U = 1 there is no bulk.  Quadrature of z -> K2(z, y) converges too
    slowly: K2 has derivative kinks on the dense set z = m y / j.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("i0_eval requires x, y in (0, 1]")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    U = max(1.0, (_B2_TAIL_SUP * x**3 / (1.5 * tol)) ** (1.0 / 3.0))
    v = 1.0 / y
    bulk = 0.0  # on about (U - 1)(1/x + 1/y) panels, U <= 2.8e3 x at tol 1e-12
    for cuts in merged_breakpoint_blocks(x, y, 1.0 / U) if U > 1.0 else ():
        lo = cuts[:-1]
        hi = cuts[1:]
        mid = 0.5 * (lo + hi)
        n = np.floor(1.0 / (x * mid))
        d = np.floor(v / mid) + 0.5
        e = x * (n + 0.5)
        # c_n - log lo is O(1): psi(n+1) and -log(x lo) both lie near log n
        c = -(digamma(n + 1.0) + np.log(x * lo)) - 1.0
        dz = hi - lo
        L = np.log1p(dz / lo)
        bulk += float(np.sum(d * (c * L - 0.5 * L * L + e * dz)
                             - v * (((c - 1.0) * dz + lo * L) / (hi * lo) + e * L)))
    return bulk - 0.5 * mixed_power_tail(U / x, x / y, tol)


def i_eval(x: float, y: float, w: float, tol: float = 1e-8) -> float:
    """int_x^y K2(z, w) dz / z^2, antisymmetric in (x, y); w in (0, 1].

    By Fubini as in i0_eval, the z-integral first: with s = 1/(zt),

      int_x^y K(z,t) z^-2 dz = t int_{1/(xt)}^{1/(yt)} B1~(s) ds
                             = t (B2~(1/(yt)) - B2~(1/(xt)))/2,

    and against K(t,w) = -B1~(1/(tw)), with s = 1/(vt),

      int_0^1 K(t,w) t B2~(1/(vt)) dt = -P(v),  P(v) = v^-2 M(1/v, v/w),

    M the mixed tail of i0_eval, so i_eval = -(P(y) - P(x))/2.  Each M
    takes tol v^2, so each P is within tol and the half difference too.
    Swapping x and y negates the rounded difference exactly; x == y gives
    +0.0.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0 and 0.0 < w <= 1.0):
        raise ValueError("i_eval requires x, y, w in (0, 1]")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if x == y:
        return 0.0

    def p(v):
        return mixed_power_tail(1.0 / v, v / w, tol * v * v) / (v * v)

    return -0.5 * (p(y) - p(x))
