"""Certified tails for the improper integrals and series behind the kernel.

Everything downstream (iterated kernel, moments, zeta identities) reduces to
three primitives:

* pure tails int_A^inf B~n(t) t^(-q) dt: an Euler-Maclaurin-style
  recursion at integer T whose boundary terms vanish and whose remainder
  is certified, with T in closed form from tol, plus a numeric window
  [A, T] over integer-cut panels; one batched engine (_tilde_tail_vec)
  takes every lower limit, a scalar call being a one-entry call;
* the sawtooth series sum_{m >= m0} B~n(m beta) m^(-s), by one path for
  every beta: along the residue classes mod q of a continued-fraction
  convergent p/q of beta the argument drifts by eps = q beta - p per step,
  so B~n is a polynomial in m between wraps and each run sums to
  Hurwitz-zeta and digamma differences and a count; past a truncation M
  each class is compared with its integral, and the integrals cancel
  across the classes by the multiplication theorem (_bn_series_vec).  The
  convergents depend on beta alone: one table per beta array
  (_convergent_table) serves every series summed at it;
* the mixed tail int_A^inf B~2(t) B~1(alpha t) t^(-3) dt: two by-parts
  levels (_by_parts_level, one step against B~n/n that emits a boundary
  term, a pure tail and a jump series; K2 is level 2 plus the mixed tail,
  its three series at one beta) and a certified window for what remains,
  whose B~1 factor is split into a column-free part on integer panels and
  one partial panel per jump (_remainder_windows).

All public functions take an absolute tolerance and guarantee the returned
value is within it.  The Hurwitz zeta and digamma of the runs come from one
numpy Euler-Maclaurin pass over a point block (_z), so no path loads scipy.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .bernoulli import _B_POLY, _bernoulli_poly, bernoulli_tilde
from .quadrature import composite_rule

__all__ = [
    "tilde_power_tail",
    "b2_series",
    "bn_series",
    "mixed_power_tail",
    "kernel_moment",
]


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol}")


def _piece_values(p: Polynomial) -> np.ndarray:
    """p at 0, at its real critical points in [0, 1] and at 1, in increasing order."""
    cand = [0.0, 1.0]
    dp = p.deriv()
    if dp.degree() >= 1:
        cand += [min(max(r.real, 0.0), 1.0) for r in dp.roots()
                 if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= 1.0 + 1e-12]
    return p(np.sort(cand))


@lru_cache(maxsize=None)
def _ladder_levels(n: int):
    """The means of the ladder's pieces p_0 .. p_5 and sup|p_6|; see _ladder_poly."""
    p = _B_POLY[n]
    means = []
    for _ in range(6):
        means.append(float(p.integ()(1.0)))  # the mean of p on [0, 1]
        h = (p - means[-1]).integ()
        p = h - h(0.0)
    return tuple(means), float(np.max(np.abs(_piece_values(p))))


def _ladder_poly(n: int, q: float):
    """The by-parts ladder for int_T^inf B~n(t) t^(-q) dt at integer T >= 1.

    Recursion: split the piece p of B~n into its mean m plus an oscillation
    with periodic antiderivative h (h(0) = h(1) = 0, so boundary terms
    vanish at integer T).  The mean integrates exactly; by parts lifts the
    rest to q+1:

        int_T^inf p({t}) t^(-q) = m T^(1-q)/(q-1) + q int_T^inf h({t}) t^(-q-1)

    After six levels the remainder is bounded by sup|p_6| times the power
    tail, with the accumulated q multipliers.  Returns (e, d, c, p): the
    tail at T is sum_i d_i T^(e_i), and the remainder is within c T^(-p).
    The polynomial work depends on n alone and is cached (_ladder_levels);
    a q costs a few float multiplies.
    """
    means, sup = _ladder_levels(n)
    e, d = [], []
    mult = 1.0
    qq = float(q)
    for m in means:
        if qq <= 1.0:
            if abs(m) > 1e-14:
                raise ValueError("divergent tail: q <= 1 with nonzero mean")
        else:
            e.append(1.0 - qq)
            d.append(mult * m / (qq - 1.0))
        mult *= qq
        qq += 1.0
    return np.array(e), np.array(d), abs(mult * sup) / (qq - 1.0), qq - 1.0


def tilde_power_tail(n: int, q: float, A: float, tol: float = 1e-11) -> float:
    """int_A^inf B~n(t) t^(-q) dt for A >= 1, absolute error below tol.

    Any q > 0 converges, B~n having zero mean.  A one-entry call of
    _tilde_tail_vec, whose docstring gives the method and its certificate;
    a tol so small that the window would pass 2^15 panels raises ValueError.
    """
    if not 1.0 <= A < math.inf:
        raise ValueError(f"tilde_power_tail requires A >= 1 and finite, got {A}")
    if not 0.0 < q < math.inf:
        raise ValueError(f"tilde_power_tail requires q > 0 and finite, got {q}")
    if n not in _B_POLY:
        raise ValueError(f"order must be 1..4, got {n}")
    _check_tol(tol)
    return float(_tilde_tail_vec(n, float(q), np.array([float(A)]), np.array([float(tol)]))[0])


# no window is longer than this many unit panels.  A window is built as one
# block of 32 (tail) or 16 (remainder) nodes per panel, so this keeps each
# of its temporaries within 8 MB.  k2_closed(1e-4, 2e-4) at tol 1e-14
# builds a remainder window of 7,199 panels, no other test more than 2,098,
# and the benchmark's seeds 1-3 at most 97
_MAX_PANELS = 1 << 15
# no blocked loop whose length tol or an argument sets (i0_eval's bulk
# panels, delta_r's unit intervals, hankel_apply's panel grid) runs past this
# many terms; i0_eval's bulk would take about 0.8 s there, and the library's
# longest is about 2.8e5
_MAX_TERMS = 1 << 24


def _check_count(count: float, cap: int, tol: float, what: str) -> None:
    """Raise ValueError naming tol, before any work, when tol asks for more than cap of what."""
    if not count <= cap:
        raise ValueError(f"tol {tol:g} needs more than {cap} {what}")


# Gauss order k on each half of [0, 1], keyed by k; a window panel [lo, hi]
# takes the nodes lo + (hi - lo) * nodes and the weights (hi - lo) * weights
_UNIT = {k: composite_rule([0.0, 0.5, 1.0], k) for k in (8, 16)}


def _tilde_tail_vec(n: int, q: float, A: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """int_A^inf B~n(t) t^(-q) dt within tol for every lower limit A >= 1.

    Each entry takes the least integer T >= max(floor A + 1, 2) at which
    the ladder's remainder bound c T^(-p) is within tol/2, in closed form
    (plus one where the float bound still misses); a window [A, T] of more
    than _MAX_PANELS unit panels raises ValueError.  The window is cut at
    the integers; a panel [lo, k] takes _UNIT[16] (Gauss-16 on each half) and
    B~n as the polynomial B_n at t - (k - 1), accurate to roundoff.  All
    the entries' panels are integrated in blocks and summed per entry.
    Batched over a whole grid of lower limits, it is the inner integral of
    the order-swapped oracles for i0_eval and i_eval in
    tests/test_iterated.py (_i0_order_swapped, _i_order_swapped).
    """
    A = np.asarray(A, dtype=float)
    if A.min() < 1.0:
        raise ValueError("tilde tails require A >= 1")
    e, d, c, p = _ladder_poly(n, float(q))
    tol = np.asarray(tol, dtype=float)
    first = np.floor(A)
    least = float(tol.min())
    # the least tol's T less the greatest first bounds the longest window from
    # below; in Python floats 2c/tol goes to inf without the warning numpy gives
    _check_count((2.0 * c / least) ** (1.0 / p) - float(first.max()), _MAX_PANELS, least,
                 "unit panels in a tail window")
    T = np.maximum(first + 1.0, np.ceil(np.maximum((2.0 * c / tol) ** (1.0 / p), 2.0)))
    T += 2.0 * c * T**-p > tol
    panels = T - first  # [A, first + 1], then unit panels up to T
    _check_count(panels.max(), _MAX_PANELS, least, "unit panels in a tail window")
    panels = panels.astype(np.int64)
    val = np.empty(A.shape)
    for sl in _column_blocks(panels, _SUM_BLOCK // 32):  # a panel has 32 nodes
        cnt = panels[sl]
        ent = np.arange(cnt.size).repeat(cnt)
        # panel [lo, k] has k - 1 = left
        left = np.arange(ent.size) + (first[sl] - (cnt.cumsum() - cnt)).repeat(cnt)
        lo = np.maximum(A[sl][ent], left)
        width = left + 1.0 - lo
        t = lo[:, None] + width[:, None] * _UNIT[16].nodes
        f = t**-q * _UNIT[16].weights
        t -= left[:, None]  # now t - (k - 1), in [0, 1]
        window = np.bincount(ent, weights=width * (_bernoulli_poly(n, t) * f).sum(axis=1),
                             minlength=cnt.size)
        val[sl] = (T[sl, None] ** e * d).sum(axis=1) + window  # the ladder's tail at T
    return val


# no temporary of the windows or of one block of series columns holds much
# more than this many entries
_SUM_BLOCK = 1 << 14


# The sawtooth series runs over many columns at once, one row of the
# iterated-kernel matrix; a scalar call is a one-column call.  Each column
# keeps its own convergent, truncation and certificate, so columns do not
# affect each other (tests/test_iterated.py::TestBatchedRow).

# convergent denominators are taken up to this
_Q_MAX = 16384
# a point carries rows of n + 1 coefficients, so a block of points holds
# about _SUM_BLOCK entries
_POINT_BLOCK = _SUM_BLOCK // 4
# share of tol given to the tail certificate; the rest covers rounding
_TAIL_SHARE = 0.5
# no class is summed past this m: there the whole tail is below
# sup|B~n| 2^-62, under the rounding of any sum
_M_CAP = float(1 << 62)


def _var_sup(p: Polynomial) -> tuple[float, float]:
    """Variation per period (the jump at the integers included) and sup of the periodic p."""
    v = _piece_values(p)
    return float(np.sum(np.abs(np.diff(v))) + abs(v[-1] - v[0])), float(np.max(np.abs(v)))


def _tail_constants(n: int) -> tuple:
    """(a, c0, c1, cb, k, cc) of B~n in the tail certificate of _bn_series_vec.

    a is the range of B~n's antiderivative; with V, S the variation per
    period and sup of B~n and V', S' those of its derivative, the midpoint
    rule gives c0 = V/2 + 3S/4, c1 = 0, cb = V/2, k = 1, cc = 0 for B~1,
    which jumps, and c0 = S/4, c1 = (V' + S' + V)/4, cb = V'/4, k = 2,
    cc = (V + S)/4 for the continuous B~n, n >= 2.
    """
    p = _B_POLY[n]
    a = float(np.ptp(_piece_values(p.integ())))
    var, sup = _var_sup(p)
    if n == 1:
        return a, 0.5 * var + 0.75 * sup, 0.0, 0.5 * var, 1, 0.0
    dvar, dsup = _var_sup(p.deriv())
    return a, 0.25 * sup, 0.25 * (dvar + dsup + var), 0.25 * dvar, 2, 0.25 * (var + sup)


_SERIES_TAIL = {n: _tail_constants(n) for n in _B_POLY}
# Taylor coefficients of B_n at a: B_n(a + y) = sum_k (V(a) @ _TAYLOR[n])[k] y^k,
# V(a) = [1, a, ..., a^n]
_TAYLOR = {n: np.array([np.pad((p.deriv(k) / math.factorial(k)).coef, (0, k))
                        for k in range(n + 1)]).T for n, p in _B_POLY.items()}


def _convergents(beta: float) -> list:
    """(p mod q, q, q beta - p) for every convergent p/q of beta with q <= _Q_MAX.

    The continued fraction runs in integers on the float's dyadic value
    num/den, where q beta - p is +-rem/den with rem the Euclidean remainder
    of the step, rounded once.
    """
    num, den = beta.as_integer_ratio()
    scale = den
    p0, q0, p1, q1 = 0, 1, 1, 0
    sign, out = 1, []
    while den:
        a, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > _Q_MAX:
            break
        out.append((p1 % q1, q1, sign * rem / scale))
        num, den, sign = den, rem, -sign
    return out


def _convergent_table(beta: np.ndarray) -> tuple:
    """The convergents of every column as flat read-only arrays (column, p mod q, q, eps).

    One _convergents run per column; the table depends on beta alone, so
    every series that sums at the same beta array shares it: the level-2
    series of a K2 row and the two levels of its mixed tail sum at one beta
    and find it in the one-entry cache of _table_of.
    """
    return _table_of(np.asarray(beta, dtype=float).tobytes())


@lru_cache(maxsize=1)
def _table_of(key: bytes) -> tuple:
    cands = [_convergents(b) for b in np.frombuffer(key).tolist()]
    col = np.repeat(np.arange(len(cands)), [len(c) for c in cands])
    table = (col,) + tuple(np.array(v) for v in zip(*(c for cs in cands for c in cs)))
    for v in table:
        v.flags.writeable = False
    return table


def _series_plans(n: int, s: int, table: tuple, m0: np.ndarray, tol: np.ndarray):
    """Per column, the convergent of table with the fewest points and its truncation M.

    table is _convergent_table(beta); only M and the point count depend on
    (n, s, m0, tol).  Returns (p mod q, q, eps, M, points).  M is the least
    m_max at which each term of the tail certificate (see _bn_series_vec)
    is within _TAIL_SHARE tol/3, never below m0 - 1 nor above _M_CAP; at
    eps = 0 it is _M_CAP.  A class of m = r (mod q) has one run more than
    it has wraps, so a column has about 2q + (M - m0 + 1)|eps| points.
    """
    col, pm, q, eps = table
    qf, e, m0c, tt = q.astype(float), np.abs(eps), m0[col], _TAIL_SHARE * tol[col] / 3.0
    a, c0, c1, cb, k, cc = _SERIES_TAIL[n]
    with np.errstate(divide="ignore"):
        coef_a = a * qf**-n / e + (qf + 1.0) * (c0 + c1 * e)
    x = np.maximum(np.maximum((coef_a / tt) ** (1.0 / s),
                              (cb * e**k / ((s - 1.0) * tt)) ** (1.0 / (s - 1.0))),
                   (cc * s * qf**2 / tt) ** (1.0 / (s + 1.0)))
    M = x + np.maximum(0.5 * qf, 1.0) - 1.0
    M = np.minimum(np.ceil(np.maximum(M, m0c - 1.0)), _M_CAP)
    points = 2.0 * qf + (M - m0c + 1.0) * e
    best = np.lexsort((points, col))
    best = best[np.diff(col[best], prepend=-1) != 0]  # the first of each column
    return pm[best], q[best], eps[best], M[best].astype(np.int64), points[best]


# Euler-Maclaurin for Z: the first _EM_SHIFT powers are summed, and the rest
# of zeta(sigma, x) is the expansion at y = x + _EM_SHIFT, through the
# Bernoulli term B_16; B_2j/(2j)! is formed from the exact fraction
_EM_SHIFT = 8
_EM_BERNOULLI = tuple(float(Fraction(*b) / math.factorial(2 * j)) for j, b in enumerate(
    ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510)), 1))
# x + k for k < _EM_SHIFT, and y
_EM_SHIFTS = np.arange(_EM_SHIFT + 1.0)[:, None]


@lru_cache(maxsize=None)
def _em_coefficients(top: int, count: int) -> np.ndarray:
    """The coefficients of G in _z's rows sigma = top, top - 1, ... >= 1 of count rows, split by parity.

    G = g_0 + g_1 u + ... + g_8 u^8 with g_0 = 1/(sigma - 1) (0 at sigma = 1)
    and g_j = B_2j/(2j)! (sigma)_(2j-1).  Entry [k, row, 0] is g_2k and
    entry [k, rows + row, 0] is g_(2k+1) (0 for k = 4), so that
    G = E(u^2) + u O(u^2) takes one Horner pass of four steps over both.
    """
    sig = np.arange(top, max(top - count, 0), -1.0)
    g, rising = [np.where(sig > 1.0, 1.0 / np.maximum(sig - 1.0, 1.0), 0.0)], sig.copy()
    for j, b in enumerate(_EM_BERNOULLI):
        g.append(b * rising)
        rising = rising * (sig + 2 * j + 1) * (sig + 2 * j + 2)
    g.append(np.zeros_like(sig))
    c = np.array([np.concatenate(g[k:k + 2]) for k in range(0, len(g), 2)])[:, :, None]
    c.flags.writeable = False
    return c


# _z's work space: one float64 buffer per thread, only ever grown (see _z)
_SCRATCH = threading.local()


def _scratch(n: int) -> np.ndarray:
    """The first n entries of this thread's work buffer, which grows to n if it is shorter."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < n:
        buf = _SCRATCH.buf = np.empty(n)
    return buf[:n]


def _z(top: int, count: int, x: np.ndarray) -> np.ndarray:
    """Rows Z(sigma, x) for sigma = top >= 1, top - 1, ..., top - count + 1 >= 0, a column per point.

    Z(x) - Z(x + L) = sum_{i < L} (x + i)^(-sigma) for integer L >= 0: Z is
    the Hurwitz zeta(sigma, x) for sigma >= 2, -digamma(x) for 1 and -x for
    0.  With y = x + _EM_SHIFT, the terms 1/(x + k), k < _EM_SHIFT, and 1/y
    are formed once and raised to each sigma by multiplication, one sigma
    after another in the same slab.  A row is its power sum, over a fixed
    tree so that a point's value does not depend on the others in x, plus
    the Euler-Maclaurin tail at y:

        zeta(sigma, y) = y^(-sigma) (1/2 + y G(u)),  u = y^-2,
        G(u) = 1/(sigma - 1) + sum_{j=1..8} B_2j/(2j)! (sigma)_(2j-1) u^j,

    and -digamma(y) = -log y + y^-1 (1/2 + y G(u)) with no 1/(sigma - 1)
    term.  G of every row is one Horner pass in u^2 over its even and odd
    parts (_em_coefficients).  At y >= 8 the first term left out, j = 9, is
    below 1e-15 zeta(sigma, y) for sigma <= 6 and a smaller share of
    zeta(sigma, x); against mpmath at 2,000 seeded x in [1/16384, 1e15] the
    rows sigma = 2..6 are within 9e-16 relative and -digamma within 9e-16
    max(1, |digamma|) (tests/test_tails.py::TestZ).

    Work space: every intermediate lives in this thread's buffer
    (_scratch), (24 + 2 rows) P doubles for P points and `rows` rows with
    sigma >= 1, 1 MB at the K2 fill's 4096 points.  The buffer is one per
    thread and only ever grown; its contents are undefined between calls,
    and nothing _z calls may use it.  The result is always a fresh array.
    Temporaries of that size, allocated per call, are mapped and trimmed
    back by glibc's allocator at every call; their page faults took about
    half of _z's time in a K2 fill.
    """
    c = _em_coefficients(top, count)
    rows = c.shape[1] // 2  # those with sigma >= 1
    low = top - rows + 1  # the least sigma >= 1
    out = np.empty((count, x.size))
    p = x.size
    sizes = (_EM_SHIFT + 1, _EM_SHIFT + 1, _EM_SHIFT // 2, 2 * rows, 1, 1)  # in rows of p entries
    work = _scratch(sum(sizes) * p)
    views, end = [], 0
    for k in sizes:
        views.append(work[end:end + k * p].reshape(k, p))
        end += k * p
    inv, slab, tree, eo, (u,), (v,) = views
    np.add(x, _EM_SHIFTS, out=inv)
    np.divide(1.0, inv, out=inv)
    yi = inv[-1]
    np.multiply(yi, yi, out=u)
    np.multiply(u, u, out=v)
    np.multiply(c[-1], v, out=eo)  # G's even and odd parts, then G in the even rows
    for ck in c[-2:0:-1]:
        eo += ck
        eo *= v
    eo += c[0]
    eo[rows:] *= u
    g = eo[:rows]
    g += eo[rows:]
    g /= yi
    g += 0.5
    power = np.power(inv, low, out=slab) if low > 1 else inv  # power[k] = (x + k)^-sigma
    for i in range(rows - 1, -1, -1):  # sigma = low, ..., top
        if i < rows - 1:
            power = np.multiply(power, inv, out=slab)
        # a fixed tree, the same for any number of points
        half = _EM_SHIFT // 2
        np.add(power[:half], power[half:-1], out=tree)
        while half > 2:
            half //= 2
            np.add(tree[:half], tree[half:2 * half], out=tree[:half])
        np.add(tree[0], tree[1], out=out[i])
        g[i] *= power[-1]  # y^-sigma
        out[i] += g[i]
    if low == 1:
        out[rows - 1] += np.log(yi, out=u)
    if rows < count:
        np.negative(x, out=out[rows])
    return out


def _drift_class_sums(n: int, s: int, pm, q, eps, m0, M) -> np.ndarray:
    """sum_{m0 <= m <= M} B~n(m beta) m^(-s) per column, run by run, with beta = p/q + eps/q.

    Class r holds m = r + j q for j0 <= j <= j1.  There m beta = k/q + m delta
    modulo 1, with k = r p mod q and delta = eps/q, so the argument drifts
    by eps per step of j and B~n is the polynomial B_n(k/q - K + m delta) on
    each run of j where floor(k/q + m delta) = K.  A run's sum over
    m^(i - s) is q^(i - s) (Z(j_a + r/q) - Z(j_b + 1 + r/q)) with Z of _z, so
    each class is a sum over its points (its ends and the first j of each
    run) of Z times the change of the run polynomial's coefficients there.
    The points are taken _POINT_BLOCK at a time.  Where M < m0 in every
    column no class has a point, and the sums are zeros before any class
    is built.
    """
    if np.all(M < m0):
        return np.zeros(q.size)
    cls = np.repeat(np.arange(q.size), q)  # the column of each class
    r = np.arange(cls.size) - np.repeat(np.cumsum(q) - q, q)
    qc, ec = q[cls], eps[cls]
    k = (r * pm[cls]) % qc
    j0 = -((r - m0[cls]) // qc)
    j1 = (M[cls] - r) // qc
    u = (k + r * ec) / qc  # the argument at j = 0
    lo = np.floor(u + j0 * ec)
    runs = np.abs(np.floor(u + j1 * ec) - lo).astype(np.int64) + 1
    npt = np.where(j1 >= j0, runs + 1, 0)
    first = np.cumsum(npt) - npt
    out = np.zeros(q.size)
    for b0 in range(0, int(first[-1] + npt[-1]), _POINT_BLOCK):
        idx = np.arange(b0, min(b0 + _POINT_BLOCK, int(first[-1] + npt[-1])))
        pc = np.searchsorted(first, idx, side="right") - 1  # the class of each point
        i = idx - first[pc]
        ep, qp = ec[pc], qc[pc].astype(float)
        up = ep > 0.0
        # point i > 0 is the first j past the level crossed by the argument
        # (B~1 is right-continuous); the last point is j1 + 1
        with np.errstate(divide="ignore", invalid="ignore"):  # eps = 0 has no inner points
            t = (lo[pc] + np.where(up, i, 1 - i) - u[pc]) / ep
        j = np.clip(np.where(up, np.ceil(t), np.floor(t) + 1.0), j0[pc], j1[pc] + 1)
        j = np.where(i == 0, j0[pc], np.where(i == runs[pc], j1[pc] + 1, j))
        x = j + r[pc] / qp
        step = np.where(up, 1.0, -1.0)
        a = k[pc] / qp - (lo[pc] + step * i)  # the run from point i is B_n(a + m delta)
        # the change of the coefficients of m^i, times q^(i - s) delta^i = q^-s eps^i
        va, vb, ve = np.vander(np.concatenate((a, a + step, ep)), n + 1,
                               increasing=True).reshape(3, -1, n + 1)
        w = np.where((i < runs[pc])[:, None], va, 0.0) - np.where((i > 0)[:, None], vb, 0.0)
        w = (w @ _TAYLOR[n]) * (qp**-s)[:, None] * ve
        # each point's row summed along itself, the same way at any block size
        total = np.multiply(w, _z(s, n + 1, x).T, out=w).sum(axis=1)
        out += np.bincount(cls[pc], weights=total, minlength=q.size)
    return out


def _bn_series_vec(n: int, beta: np.ndarray, s: int, m_start: np.ndarray,
                   tol: np.ndarray) -> np.ndarray:
    """sum_{m >= m_start[j]} B~n(m beta[j]) m^(-s) within tol[j], for every column j.

    One path for every beta.  Of the continued-fraction convergents p/q of
    beta (q <= _Q_MAX, exact on the float) each column takes the one whose
    drift-class sum needs the fewest points (_series_plans), with
    eps = q beta - p, and sums m0 <= m <= M exactly by runs
    (_drift_class_sums); at eps = 0 every class is a single run out to
    _M_CAP, the exact residue-class sum of a rational beta.

    Tail certificate.  Past M, class r sums g_r(m) = B~n(k_r/q + m delta)
    m^(-s) at m = m1, m1 + q, ... with m1 in (M, M + q].  The midpoint rule
    on panels of width q compares it with (1/q) int g_r from m1 - q/2 >=
    X = M + 1 - max(q/2, 1): to half the variation of g_r on each panel for
    B~1, which jumps, and to q/4 times the variation of g_r' for the
    continuous B~n, n >= 2.  Moving every lower limit to M costs at most
    ((q + 1)/4) sup|B~n| X^(-s) over all classes.  The k_r run over all residues
    (gcd(p, q) = 1), so by the multiplication theorem the integrals from M
    add up to q^(-n) int_M^inf B~n(eps v) v^(-s) dv, at most
    a q^(-n) X^(-s)/|eps| by parts.  With the constants of _tail_constants:

        |tail| <= A X^(-s) + B X^(1-s) + C X^(-s-1),
        A = a q^(-n)/|eps| + (q + 1) (c0 + c1 |eps|),  B = cb |eps|^k/(s - 1),  C = cc q^2 s,

    and M holds each term to _TAIL_SHARE tol/3.  Where M reaches the cap
    2^62 (always at eps = 0, where A is infinite) the plain bound
    sup|B~n| M^(1-s)/(s - 1) < 4e-20 holds instead.

    The rest of tol covers rounding.  Run polynomials are expanded about
    m = 0, so their coefficients grow like K^(n-i) with the wraps K before
    the run, and the Hurwitz, digamma and count terms cancel by that much;
    the plans keep K small, and against mpmath the run sums of the plans in
    tests/test_tails.py::TestSpotTable are off by at most 1e-15.
    """
    pm, q, eps, M, points = _series_plans(n, s, _convergent_table(beta), m_start, tol)
    out = np.empty(beta.shape)
    for sl in _column_blocks(points, _POINT_BLOCK):
        out[sl] = _drift_class_sums(n, s, pm[sl], q[sl], eps[sl], m_start[sl], M[sl])
    return out


def b2_series(beta: float, m_start: int, tol: float = 1e-10) -> float:
    """sum_{m >= m_start} B~2(m beta) m^(-2), absolute error below tol.

    bn_series(2, beta, 2, m_start, tol): a one-column call of the
    drift-class engine _bn_series_vec, which sums every beta by one path.
    """
    return bn_series(2, beta, 2, m_start, tol)


def bn_series(n: int, beta: float, s: int, m_start: int, tol: float = 1e-10) -> float:
    """sum_{m >= m_start} B~n(m beta) m^(-s), absolute error below tol.

    s is an integer >= max(2, n): a run's polynomial of degree n against
    m^(-s) then needs Hurwitz zeta only at exponents >= 2 (it diverges
    below 1), digamma at 1 and counts at 0.  A one-column call of
    _bn_series_vec, whose docstring gives the method and its certificate.
    """
    if n not in _B_POLY:
        raise ValueError(f"order must be 1..4, got {n}")
    if not (s >= max(2, n) and float(s).is_integer()):
        raise ValueError(f"bn_series requires s an integer >= max(2, n) = {max(2, n)}, got {s}")
    if not (m_start >= 1 and float(m_start).is_integer()):
        raise ValueError(f"m_start must be an integer >= 1, got {m_start}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    _check_tol(tol)
    return float(_bn_series_vec(n, np.array([float(beta)]), int(s),
                                np.array([m_start], dtype=np.int64), np.array([float(tol)]))[0])


def _column_blocks(sizes: np.ndarray, cap: int):
    """Slices of consecutive columns whose sizes sum to at most cap (or one column)."""
    end = sizes.cumsum()
    start = 0
    while start < end.size:
        before = end[start - 1] if start else 0
        stop = max(int(end.searchsorted(before + cap, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


def _remainder_windows(A: float, T2: float, alpha: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """mixed_power_tail's window int_A^T2 B~4(t) B~1(alpha_j t) t^(-5) dt for every alpha_j.

    T2 is an integer past A, and m0 = floor(alpha A) + 1.  On (A, T2)
    floor(alpha t) is m0 - 1 plus the number of jumps tau = m/alpha,
    m >= m0, at or below t, and B~1(alpha t) = alpha t - 1/2 - floor(alpha t), so

        window = alpha I4 - (m0 - 1/2) I5 - sum_tau C(tau),

    with I_q = int_A^T2 B~4(t) t^(-q) dt and C(t) = int_t^T2 B~4(s) s^(-5) ds.
    I4, I5 and C at the edges A, floor A + 1, ..., T2 are column-free: one
    _UNIT[16] panel per unit interval, once per call.  C(tau) is C at the
    nearer edge of tau's interval plus one _UNIT[8] partial panel (Gauss-8
    on each half) of width at most 1/2 between them, so a column costs
    about alpha (T2 - A) panels.  Columns are summed whole, in blocks, so a
    column's value does not depend on the others.
    """
    k0 = math.floor(A) + 1
    edges = np.concatenate(([A], np.arange(k0, T2 + 0.5)))
    lo, width = edges[:-1], np.diff(edges)
    t = lo[:, None] + width[:, None] * _UNIT[16].nodes
    f = _bernoulli_poly(4, t - np.floor(lo)[:, None]) * t**-4 * _UNIT[16].weights
    i4 = float(np.sum(width * f.sum(axis=1)))
    C = np.append(np.cumsum((width * (f / t).sum(axis=1))[::-1])[::-1], 0.0)  # C at the edges
    n_jump = np.maximum(np.floor(alpha * T2).astype(np.int64) - m0 + 1, 0)
    out = alpha * i4 - (m0 - 0.5) * C[0]
    for sl in _column_blocks(n_jump, _SUM_BLOCK // 16):  # a jump's panel has 16 nodes
        cnt = n_jump[sl]
        col = np.repeat(np.arange(cnt.size), cnt)
        m = np.arange(col.size) + np.repeat(m0[sl] - (np.cumsum(cnt) - cnt), cnt)
        tau = np.minimum(np.maximum(m / alpha[sl][col], A), T2)
        k = np.minimum(np.maximum(np.ceil(tau), k0), T2)  # tau is in (k - 1, k], edge j is k
        j = (k - k0).astype(np.int64) + 1
        j -= tau - edges[j - 1] < k - tau
        width = edges[j] - tau
        t = tau[:, None] + width[:, None] * _UNIT[8].nodes
        f = _bernoulli_poly(4, t - (k - 1.0)[:, None]) * t**-5 * _UNIT[8].weights
        out[sl] -= np.bincount(col, weights=C[j] + width * f.sum(axis=1), minlength=cnt.size)
    return out


def _by_parts_level(n: int, A: float, alpha: np.ndarray, beta: np.ndarray,
                    b1_at_edge: np.ndarray, m0: np.ndarray, tol: float) -> np.ndarray:
    """int_A^inf B~(n-1)(t) B~1(alpha t) t^(-n) dt less the next level's integral, within 2 tol.

    By parts against B~n/n, per column: the boundary term -B~n(A) B~1(alpha A)
    A^(-n)/n (b1_at_edge = B~1(alpha A)), the pure tail -(alpha/n)
    int_A^inf B~n t^(-n), and the jump series (alpha^n/n) sum_{m >= m0}
    B~n(m beta) m^(-n), beta = 1/alpha as the caller has it.  The next
    integrand is B~n(t) B~1(alpha t) t^(-n-1).  The pure tail is taken once
    at tol min(1, n/max alpha), so its error times alpha/n is within tol and
    no column sets another's value while every alpha <= n.
    """
    an = alpha**n
    pure = tilde_power_tail(n, float(n), A, tol * min(1.0, n / float(alpha.max())))
    return (-bernoulli_tilde(n, A) * b1_at_edge * A**-n / n - (alpha / n) * pure
            + (an / n) * _bn_series_vec(n, beta, n, m0, tol * n / an))


def mixed_power_tail(A: float, alpha, tol: float = 1e-11):
    """int_A^inf B~2(t) B~1(alpha t) t^(-3) dt for A >= 1 and any finite alpha > 0.

    alpha is a float (the result is a float) or a 1-D array (one result per
    entry).  Two levels of _by_parts_level (n = 3, 4, the jump series at
    beta = 1/alpha) take tol/7 each; the final remainder

        R2 = int_A^inf B~4(t) B~1(alpha t) t^(-5) dt

    is integrated numerically out to T2 with its crude tail certified by
    sup|B~4 B~1| = 1/60 to tol/7; a tol that puts T2 more than _MAX_PANELS
    past A raises ValueError before any work.  The pure tails, B~3(A),
    B~4(A), T2 and the window's integer cuts depend on A and tol (and the
    pure tails on max alpha past 3) only and are computed once for every
    alpha.  The windows run through _remainder_windows: its integer panels
    are shared by every alpha, and a window costs one partial panel per
    jump of B~1(alpha t) in (A, T2], about alpha (T2 - A) of them.
    """
    if not 1.0 <= A < math.inf:
        raise ValueError(f"mixed_power_tail requires A >= 1 and finite, got {A}")
    _check_tol(tol)
    scalar = np.ndim(alpha) == 0
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.ndim != 1 or not np.all((alpha > 0.0) & (alpha < math.inf)):
        raise ValueError(f"mixed_power_tail requires alpha in (0, inf), a float or 1-D, got {alpha}")
    tol_i = tol / 7.0
    # the remainder window runs out to T2, past which its crude tail is within tol_i
    t2 = (1.0 / (240.0 * tol_i)) ** 0.25
    _check_count(t2 - A, _MAX_PANELS, tol, "unit panels in the remainder window")
    T2 = max(int(math.ceil(A)) + 1, int(math.ceil(t2)))
    b1_at_edge = bernoulli_tilde(1, alpha * A)  # right-continuous at jumps
    m0 = np.floor(alpha * A).astype(np.int64) + 1  # first jump strictly past A
    beta = 1.0 / alpha  # both levels find its convergent table in one cache entry
    total = sum(_by_parts_level(n, A, alpha, beta, b1_at_edge, m0, tol_i) for n in (3, 4))
    total += _remainder_windows(A, float(T2), alpha, m0)
    return float(total[0]) if scalar else total


def kernel_moment(x: float, s: float, tol: float = 1e-11) -> float:
    """int_0^1 K(x, y) y^s dy for x in (0, 1], s >= -1, error below tol.

    The substitution t = 1/(xy) turns the moment into a pure tail:

        int_0^1 K(x,y) y^s dy = -x^(-s-1) int_{1/x}^inf B~1(t) t^(-s-2) dt

    convergent at s = -1 (conditionally, B~1 having zero mean) and
    absolutely for s > -1; the zeta identities use s >= -1.  An x whose
    x^(-s-1) or 1/x overflows (1e-80 at s = 3, 5e-324 at any s) raises
    ValueError naming x before any work.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("kernel_moment requires x in (0, 1]")
    if not -1.0 <= s < math.inf:
        raise ValueError(f"kernel_moment requires s >= -1 and finite, got {s}")
    _check_tol(tol)
    try:
        scale = x ** (-s - 1.0)
    except OverflowError:
        scale = math.inf
    if not (scale < math.inf and 1.0 / x < math.inf):
        raise ValueError(f"x = {x:g} is too small: x^{-s - 1.0:g} or 1/x overflows")
    return -scale * tilde_power_tail(1, s + 2.0, 1.0 / x, tol / max(scale, 1.0))
