"""The iterated kernel: the z-integral of two kernel rows, by three routes.

K2(x, y) = int_0^1 K(x,z) K(z,y) dz is continuous away from the origin,
positive semidefinite, and small off the diagonal (|K2| is bounded by a
constant times min{x,y}/max{x,y}).  Three independent evaluation routes:

* quadrature: exact per-panel antiderivatives of the product of two
  staircase rows on [eps, 1], eps = 2^-8, over the unit intervals of
  the denser row in 1/(xz), each split at the one jump of the other row
  inside, plus the closed form of the (0, eps] part (_k2_row at eps);
  that correction is certified to tol at any eps, which sets only the
  share of the definitional bulk (see k2_quadrature);
* closed form: with t = 1/(xz), K2 is (1/x) times the integral of
  B~1(t) B~1(x t/y) t^-2 over [1/x, inf), which is one by-parts level
  (tails._by_parts_level at n = 2) plus the certified mixed tail, one row
  of columns y at a time (a scalar call is one column), _k2_row at
  eps = 1; the three jump series of a row share one convergent table;
* diagonal: a Stirling-type expression through log(n!), valid only
  at x = y.

Route agreement is the main correctness argument; the tests compare all
three against each other and against frozen adaptive-quadrature values.

Also here: the partial integrals int_0^x K2(z,y) dz (i0_eval) and
int_x^y K2(z,w) dz/z^2 (i_eval), by Fubini on K2 = int K K: the z-integral
of K(z,t) is a Bernoulli antiderivative in closed form, and what is left
over t is the certified mixed tail int_A^inf B2~(s) B1~(alpha s) s^-3 ds.
i0_eval has k2_quadrature's shape: an exact panel sum down to a cutoff,
on the panels of the same unit-interval walk (_panel_sum), and that mixed
tail below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import _stirling_bracket, bernoulli_tilde
from .kernel import k_eval
from .quadrature import _unit_intervals
from .tails import _MAX_TERMS, _by_parts_level, _check_count, _z, mixed_power_tail

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
    correction.  _by_parts_level at n = 2 takes 2 tol x/3 and leaves
    mixed_power_tail(A, alpha), which takes tol x/3.  All three jump series
    sum at one beta = 1/alpha, the array mixed_power_tail forms itself, so
    they share one convergent table (tails._convergent_table).  This beta
    differs from the rounded y/x by d beta, at most 3 * 2^-53 beta and at
    most one ulp on every pair measured (2e6 random pairs and the grids up
    to N = 512; a quarter differ).  B~2 is 1-Lipschitz, so the level-2
    series moves by at most |d beta| (2 + log(1/|d beta|)) and the entry by
    at most 6.3e-15 alpha/x.
    No column sets another's value (alpha <= 1), so every entry equals its
    one-column call k2_closed bit for bit.
    """
    ys = np.asarray(ys, dtype=float)
    if not (ys.size and 0.0 < x <= float(ys.min()) and float(ys.max()) <= 1.0):
        raise ValueError("_k2_row requires 0 < x <= y <= 1 for every y")
    A = 1.0 / (x * eps)
    b = 1.0 / (ys * eps)  # alpha A
    alpha = x / ys
    tail = mixed_power_tail(A, alpha, tol * x / 3.0)  # first: it rejects a tol too small
    level = _by_parts_level(2, A, alpha, 1.0 / alpha, bernoulli_tilde(1, b),
                            np.floor(b).astype(np.int64) + 1, tol * x / 3.0)
    return (level + tail) / x


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


def _panel_sum(x: float, y: float, cutoff: float, panel) -> float:
    """Sum panel(lo, hi, mid, dz) over the z-panels of [cutoff, 1] on which neither row x nor y jumps.

    With a = min(x, y) and b = max(x, y), quadrature._unit_intervals walks
    the unit intervals [m, m+1] of u = 1/(a z).  Such an interval is the
    z-range [1/(a (m+1)), 1/(a m)], and the row b jumps inside it at most
    at J = 1/((k + 1) b), here clipped into it, so its panels are
    [1/(a (m+1)), J] and [J, 1/(a m)]; where the row b does not jump, one
    of the two is empty, and panel must give exactly 0 on it.  The
    outermost edges are exactly 1 and cutoff.  Per block, the two panels
    of each interval are added, and the block's sum is added to the total
    in ascending u.
    """
    a, b = min(x, y), max(x, y)
    u_lo, u_hi = 1.0 / a, 1.0 / (a * cutoff)
    total = 0.0
    for edges, k, _ in _unit_intervals(a / b, u_lo, u_hi):
        z = 1.0 / (edges * a)
        if edges[0] == u_lo:
            z[0] = 1.0
        if edges[-1] == u_hi:
            z[-1] = cutoff
        lo, hi = z[1:], z[:-1]
        jump = np.clip(1.0 / ((k + 1.0) * b), lo, hi)
        terms = panel(lo, jump, 0.5 * (lo + jump), jump - lo)
        terms += panel(jump, hi, 0.5 * (jump + hi), hi - jump)
        total += float(np.sum(terms))
    return total


# k2_quadrature takes min(x, y) >= sqrt(_QUAD_ROUNDING/tol).  The rounding
# of its bulk was measured at up to 2.6e-14/x^2, so just above this floor
# it can exceed tol by about a third (see k2_quadrature)
_QUAD_ROUNDING = 2e-14


def k2_quadrature(x: float, y: float, evaluator: K2Evaluator | None = None) -> float:
    """Definitional integral int_0^1 K(x,z) K(z,y) dz; x, y in [0, 1].

    On [eps, 1] both rows are staircases in 1/z.  _panel_sum walks the
    unit intervals of 1/(x z), x the smaller argument, and splits each at
    the one jump of the row y inside, so each panel has the exact
    antiderivative c1 c2 z - (c1/y + c2/x) log z - 1/(x y z).  The (0, eps]
    remainder is _k2_row at eps, the closed form from 1/(x eps), certified
    to tol for any eps.  So eps only splits the work: the bulk walks about
    1/(x eps) unit intervals, two panels each, and the correction hardly
    depends on eps.  eps is the fixed 2^-8 (1/(x 4e6) for
    x below 6.4e-5, which bounds the panel count): the bulk still covers
    [1/256, 1] from the definition, and the part shared with k2_closed is
    at most eps/4 (|K| <= 1/2; below 5e-6 on 300 seeded pairs in
    [0.01, 1]^2), so the route stays a check on the closed form: the oracle
    for k2_closed in tests/test_iterated.py (TestRouteAgreement,
    TestBatchedRow) and in the bench's pointwise pairs.  A cutoff
    shrinking with tol would only add panels and their rounding: at tol
    1e-11, eps = sqrt(6 tol) leaves 1.3e5/x panels, whose sum was up to
    3.7e-9 off k2_closed on 16 seeded pairs in [0.02, 1]^2.

    The bulk's panel terms cancel by about 1/(x y z^2), and their rounding
    reaches tol below a floor on the smaller argument: against k2_closed at
    tol 1e-14 it was up to 2.6e-14/x^2 on 320 seeded pairs (x in
    [1e-4, 0.05], y/x from 1 to 20), worst at y = 1.001 x.  math.fsum of
    the terms changes nothing, and the same panels' terms formed and summed
    in np.longdouble come about 50 times closer, so this is the float64
    rounding of the terms.
    min(x, y) below sqrt(_QUAD_ROUNDING/tol) raises ValueError: 1.4e-3 at
    tol 1e-8, 4.5e-4 at 1e-7.  That floor is below the point where the
    rounding bound is tol, and just above it the route misses tol: by
    1.15 tol at tol 1e-7, x = 4.796e-4 (1.0725 times the floor) and
    y = 1.001 x.  A zero argument returns 0.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("k2_quadrature requires x, y in [0, 1]")
    if x == 0.0 or y == 0.0:
        return 0.0
    if x > y:
        x, y = y, x
    ev = evaluator if evaluator is not None else _DEFAULT
    tol = ev.tol
    if x < math.sqrt(_QUAD_ROUNDING / tol):
        raise ValueError(f"k2_quadrature requires min(x, y) >= sqrt({_QUAD_ROUNDING:g}/tol) = "
                         f"{math.sqrt(_QUAD_ROUNDING / tol):.3g} at tol {tol:g}, got x = {x:g}")
    eps = min(max(2.0**-8, 1.0 / (x * 4.0e6)), 0.5)
    u = 1.0 / x
    v = 1.0 / y

    def panel(lo, hi, mid, dz):
        c1 = np.floor(u / mid) + 0.5
        c2 = np.floor(v / mid) + 0.5
        # stable per-panel differences: the raw antiderivative values are ~1/eps
        # and would cancel catastrophically near the cutoff
        return c1 * c2 * dz - (c1 * v + c2 * u) * np.log1p(dz / lo) + u * v * dz / (hi * lo)

    # near x = 0.002 the walk takes ~1/(x eps) = 1.3e5 unit intervals
    return _panel_sum(x, y, eps, panel) + float(_k2_row(x, np.array([y]), tol, eps)[0])


def k2_diag_exact(x: float) -> float:
    """K2(x, x) through a Stirling-type identity; x in (0, 1].

    K2(x,x) = K(1,x)^2 + (2/x) [n log(1/x) - 1/x + log sqrt(2 pi / x)
    - log(n!)] with n = floor(1/x).  At x = 1 this is log(2 pi) - 7/4.
    The bracket is bernoulli._stirling_bracket, whose form from n = 33 on
    cancels the n log n terms in closed form; the first Stirling term it
    leaves out adds 1/(840 n^6) after the 2/x factor.  Against mpmath at
    50 digits this is within 9.5e-13 from n = 33 on and within 1.5e-12
    below; past n = 32 the plain bracket would be up to 4.3e-10 off
    (n = 256), 8.9e-8 at x = 1e-4.  An oracle for the other routes: its
    grid integral is the HS norm and the K2 trace in tests/test_spectra.py
    (test_frobenius_matches_hs_norm, test_spectrum_bounds, TestTraceFormula,
    TestBilinearExpansion), and tests/test_iterated.py (TestRouteAgreement,
    TestBatchedRow) checks k2_closed(x, x) against it.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("k2_diag_exact requires x in (0, 1]")
    return k_eval(1.0, x) ** 2 + 2.0 * _stirling_bracket(x) / x


# |int_A^inf B2~(t) t^-q dt| <= _B2_TAIL_SUP * A^-q for every q >= 1:
# one integration by parts against B3~/3 gives sup|B3~|/3 = 1/(36 sqrt 3)
# from the boundary term and another 1/(36 sqrt 3) from the remaining integral.
_B2_TAIL_SUP = 1.0 / (18.0 * math.sqrt(3.0))


def i0_eval(x: float, y: float, tol: float = 1e-8) -> float:
    """int_0^x K2(z, y) dz by Fubini, z first, in k2_quadrature's shape.

    With n = floor(1/(xt)), the Euler limit (zeta.euler_limit_residual)
    gives Phi(t) = int_0^x K(z,t) dz = (c_n - log t)/t + e, where
    c_n = -psi(n+1) - log x - 1 and e = x (n + 1/2).  Bulk, t in [1/U, 1]:
    on a panel [lo, hi] of _panel_sum, where neither row x nor row y
    jumps, K(t,y) = d - v/t with v = 1/y, d = floor(v/t) + 1/2, and
    Phi = (c - log(t/lo))/t + e with c = c_n - log lo; with dz = hi - lo
    and L = log1p(dz/lo), exactly

      int K Phi dt = d (c L - L^2/2 + e dz) - v (((c - 1) dz + lo L)/(hi lo) + e L).

    Tail, t in (0, 1/U]: Phi(t) = [B2~(a)/(2a^2) - G(a)]/t, a = 1/(xt),
    G(a) = int_a^inf B2~ s^-3 ds.  Against K(t,y) = -B1~(1/(ty)) the B2~
    part is -M(U/x, x/y)/2 with M(A, alpha) = int_A^inf B2~(s) B1~(alpha s)
    s^-3 ds, the certified mixed_power_tail (tol/2 after halving).  The G
    part, int_U^inf B1~(u/y) G(u/x) du/u, is at most _B2_TAIL_SUP x^3/(6U^3),
    tol/4 at U = max(1, (_B2_TAIL_SUP x^3/(1.5 tol))^(1/3)), and is dropped;
    at U = 1 there is no bulk.  The bulk walks (U - 1)/min(x, y) unit
    intervals; a tol where (U - 1)(1/x + 1/y), at least that count, exceeds
    _MAX_TERMS (2^24) raises ValueError before any work.  Quadrature of
    z -> K2(z, y) converges too slowly: K2 has derivative kinks on the
    dense set z = m y / j.
    """
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0):
        raise ValueError("i0_eval requires x, y in (0, 1]")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    U = max(1.0, (_B2_TAIL_SUP * x**3 / (1.5 * tol)) ** (1.0 / 3.0))
    _check_count((U - 1.0) * (1.0 / x + 1.0 / y), _MAX_TERMS, tol, "bulk panels")
    v = 1.0 / y

    def panel(lo, hi, mid, dz):
        n = np.floor(1.0 / (x * mid))
        d = np.floor(v / mid) + 0.5
        e = x * (n + 0.5)
        # c_n - log lo is O(1): psi(n+1) = -_z(1, 1, n+1) and -log(x lo) both lie near log n
        c = (_z(1, 1, n + 1.0)[0] - np.log(x * lo)) - 1.0
        L = np.log1p(dz / lo)
        return d * (c * L - 0.5 * L * L + e * dz) - v * (((c - 1.0) * dz + lo * L) / (hi * lo) + e * L)

    # (U - 1)/min(x, y) unit intervals, two panels each; U <= 2.8e3 x at tol 1e-12
    bulk = _panel_sum(x, y, 1.0 / U, panel) if U > 1.0 else 0.0
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
