"""Certified tails for the improper integrals and series behind the kernel.

Everything downstream (iterated kernel, moments, zeta identities) reduces to
three primitives:

* pure tails int_A^inf B~n(t) t^(-q) dt: a numeric window [A, T] over
  integer-cut panels plus an Euler-Maclaurin-style recursion at integer T
  whose boundary terms vanish and whose remainder is certified;
* the sawtooth series sum_{m >= m0} B~n(m beta) m^(-s), by one path for
  every beta: along the residue classes mod q of a continued-fraction
  convergent p/q of beta the argument drifts by eps = q beta - p per step,
  so B~n is a polynomial in m between wraps and each run sums to
  Hurwitz-zeta and digamma differences and a count; past a truncation M
  each class is compared with its integral, and the integrals cancel
  across the classes by the multiplication theorem (_bn_series_vec);
* the mixed tail int_A^inf B~2(t) B~1(alpha t) t^(-3) dt: two integration
  by parts against the B~1 factor (each step emits a pure tail and a jump
  series) and a short certified window for what remains.

All public functions take an absolute tolerance and guarantee the returned
value is within it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import digamma
from scipy.special import zeta as hurwitz_zeta

from .bernoulli import bernoulli_tilde
from .quadrature import composite_rule, gauss_legendre

__all__ = [
    "tilde_power_tail",
    "b2_series",
    "bn_series",
    "mixed_power_tail",
    "kernel_moment",
]

# Bernoulli polynomials on [0, 1), the pieces of B~n between integers.
_B_POLY = {
    1: Polynomial([-0.5, 1.0]),
    2: Polynomial([1.0 / 6.0, -1.0, 1.0]),
    3: Polynomial([0.0, 0.5, -1.5, 1.0]),
    4: Polynomial([-1.0 / 30.0, 0.0, 1.0, -2.0, 1.0]),
}

_VEC_BLOCK = 1 << 18


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")


def _piece_values(p: Polynomial) -> np.ndarray:
    """p at 0, at its real critical points in [0, 1] and at 1, in increasing order."""
    cand = [0.0, 1.0]
    dp = p.deriv()
    if dp.degree() >= 1:
        cand += [min(max(r.real, 0.0), 1.0) for r in dp.roots()
                 if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= 1.0 + 1e-12]
    return p(np.sort(cand))


@lru_cache(maxsize=None)
def _tail_ladder(n: int, q: float, depth: int = 6):
    """The by-parts ladder for int_T^inf B~n(t) t^(-q) dt at integer T >= 1.

    Recursion: split the piece p of B~n into its mean m plus an oscillation
    with periodic antiderivative h (h(0) = h(1) = 0, so boundary terms
    vanish at integer T).  The mean integrates exactly; by parts lifts the
    rest to q+1:

        int_T^inf p({t}) t^(-q) = m T^(1-q)/(q-1) + q int_T^inf h({t}) t^(-q-1)

    After `depth` levels the remainder is bounded by sup|p_depth| times the
    power tail, with the accumulated q multipliers.  Returns
    (terms, (bound_coef, bound_q)) with terms = ((coef_i, q_i), ...) so that
    the tail at T is sum coef_i T^(1-q_i)/(q_i - 1) and the remainder bound
    |bound_coef T^(1-bound_q)/(bound_q - 1)|; the polynomial work depends on
    (n, q, depth) alone and is cached.
    """
    p = _B_POLY[n]
    terms = []
    mult = 1.0
    qq = float(q)
    for _ in range(depth):
        m = float(p.integ()(1.0))  # the mean of p on [0, 1]
        if qq <= 1.0:
            if abs(m) > 1e-14:
                raise ValueError("divergent tail: q <= 1 with nonzero mean")
        else:
            terms.append((mult * m, qq))
        h = (p - m).integ()
        h = h - h(0.0)
        mult *= qq
        p = h
        qq += 1.0
    return tuple(terms), (mult * float(np.max(np.abs(_piece_values(p)))), qq)


def _tail_at(n: int, q: float, T: int, depth: int = 6):
    """(value, bound) of the B~n ladder at integer T, via the cached ladder."""
    terms, (bc, bq) = _tail_ladder(n, float(q), depth)
    value = 0.0
    for c, qi in terms:
        value += c * T ** (1.0 - qi) / (qi - 1.0)
    return value, abs(bc * T ** (1.0 - bq) / (bq - 1.0))


def _window_integral(f, a: float, b: float, order: int = 16, extra=None) -> float:
    """Integrate f over [a, b] on panels cut at the integers (plus extras).

    Panels are halved once so that no single Gauss panel spans a full unit
    interval; with piecewise-polynomial-times-power integrands this is
    accurate to roundoff.
    """
    if b <= a:
        return 0.0
    cuts = [a, b]
    k0, k1 = math.floor(a) + 1, math.ceil(b) - 1
    if k1 >= k0:
        cuts.extend(float(k) for k in range(k0, k1 + 1))
    if extra is not None:
        cuts.extend(float(c) for c in extra if a < c < b)
    cuts = np.unique(np.asarray(cuts, dtype=float))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    cuts = np.unique(np.concatenate((cuts, mids)))
    rule = composite_rule(cuts, order)
    return rule.integrate(f)


def tilde_power_tail(n: int, q: float, A: float, tol: float = 1e-11) -> float:
    """int_A^inf B~n(t) t^(-q) dt for A >= 1, absolute error below tol.

    Numeric window [A, T] over integer-cut panels, then the certified
    recursion at integer T, with T grown until its remainder bound fits.
    Any q > 0 converges, B~n having zero mean.
    """
    if not A >= 1.0:
        raise ValueError(f"tilde_power_tail requires A >= 1, got {A}")
    if not q > 0.0:
        raise ValueError(f"tilde_power_tail requires q > 0, got {q}")
    if n not in _B_POLY:
        raise ValueError(f"order must be 1..4, got {n}")
    _check_tol(tol)
    T = max(int(math.ceil(A)), 2)
    for _ in range(64):
        tail, bound = _tail_at(n, q, T)
        if bound <= 0.5 * tol:
            break
        T *= 2
    else:
        raise RuntimeError("tail bound did not converge")
    window = _window_integral(lambda t: bernoulli_tilde(n, t) * t ** (-q), A, float(T))
    return window + tail


def _tilde_tail_vec(n: int, q: float, A: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Vectorized tilde_power_tail over many lower limits A >= 1.

    Fast path: ladder remainder taken at T = max(ceil A, 2) plus a Gauss-16
    window on [A, T] split in half (never longer than one unit, so no
    interior integer cuts are needed).  Entries whose ladder bound at that T
    exceeds tol/2 fall back to the scalar routine, and that is not rare:
    iterated._g_series sends 1151 of them from i0_eval(0.9, 0.1) and 1089
    from i0_eval(0.5, 0.05), and in a traced pointwise bench pass the 90
    i0_eval calls make 14,026 of the 17,096 tilde_power_tail calls.  ROADMAP
    item 3 removes _g_series, and with it most of these fallbacks.
    """
    A = np.asarray(A, dtype=float)
    tol_arr = np.broadcast_to(np.asarray(tol, dtype=float), A.shape)
    if A.size == 0:
        return np.zeros_like(A)
    if float(A.min()) < 1.0:
        raise ValueError("tilde tails require A >= 1")
    if A.size > _VEC_BLOCK:  # bound peak memory of the (len, 16) node arrays
        out = np.empty_like(A)
        for lo in range(0, A.size, _VEC_BLOCK):
            sl = slice(lo, lo + _VEC_BLOCK)
            out[sl] = _tilde_tail_vec(n, q, A[sl], tol_arr[sl])
        return out
    terms, (bc, bq) = _tail_ladder(n, float(q))
    T = np.maximum(np.ceil(A), 2.0)
    bound = np.abs(bc * T ** (1.0 - bq) / (bq - 1.0))
    val = np.zeros_like(A)
    for c, qi in terms:
        val += c * T ** (1.0 - qi) / (qi - 1.0)
    xg, wg = gauss_legendre(16)
    mid = 0.5 * (A + T)
    for a, b in ((A, mid), (mid, T)):
        half = 0.5 * (b - a)
        nodes = (a + half)[:, None] + half[:, None] * xg[None, :]
        vals = bernoulli_tilde(n, nodes) * nodes ** (-q)
        val += np.sum(vals * (half[:, None] * wg[None, :]), axis=1)
    slow = bound > 0.5 * tol_arr
    for i in np.nonzero(slow)[0]:
        val[i] = tilde_power_tail(n, q, float(A[i]), float(tol_arr[i]))
    return val


# no temporary of the direct sums, the windows or one block of series columns
# holds much more than this many entries
_SUM_BLOCK = 1 << 14


def _direct_sums(n: int, s: float, beta, m_lo, m_hi) -> np.ndarray:
    """sum_{m = m_lo[j]}^{m_hi[j]} B~n(m beta[j]) m^(-s) for every j, term by term.

    Not used by the series engine: it is the engine of the literal oracle
    iterated._closed_literal and of the direct-sum oracles in the tests.
    The segments are laid end to end and summed _SUM_BLOCK terms at a time,
    so memory stays bounded however long one segment is.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    m_lo = np.atleast_1d(np.asarray(m_lo, dtype=np.int64))
    m_hi = np.atleast_1d(np.asarray(m_hi, dtype=np.int64))
    length = np.maximum(m_hi - m_lo + 1, 0)
    end = np.cumsum(length)
    start = end - length
    out = np.zeros(beta.shape)
    total = int(end[-1]) if end.size else 0
    for b0 in range(0, total, _SUM_BLOCK):
        b1 = min(b0 + _SUM_BLOCK, total)
        seg = np.arange(np.searchsorted(end, b0, side="right"),
                        np.searchsorted(start, b1, side="left"))
        lo = np.maximum(start[seg], b0)
        cnt = np.minimum(end[seg], b1) - lo
        seg, lo, cnt = seg[cnt > 0], lo[cnt > 0], cnt[cnt > 0]
        m = (np.arange(b0, b1) + np.repeat(m_lo[seg] - start[seg], cnt)).astype(float)
        vals = bernoulli_tilde(n, m * np.repeat(beta[seg], cnt)) * m ** (-s)
        out[seg] += np.add.reduceat(vals, lo - b0)
    return out


# The sawtooth series runs over many columns at once, one row of the
# iterated-kernel matrix; a scalar call is a one-column call.  Each column
# keeps its own convergent, truncation and certificate, so columns do not
# affect each other (tests/test_iterated.py::TestBatchedRow).

# convergent denominators are taken up to this
_Q_MAX = 16384
# a point carries rows of n + 1 coefficients, so a block of points holds
# about as many entries as a block of direct-sum terms
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


def _series_plans(n: int, s: int, beta: np.ndarray, m0: np.ndarray, tol: np.ndarray):
    """Per column, the convergent with the fewest points and its truncation M.

    Returns (p mod q, q, eps, M, points).  M is the least m_max at which
    each term of the tail certificate (see _bn_series_vec) is within
    _TAIL_SHARE tol/3, never below m0 - 1 nor above _M_CAP; at eps = 0 it is
    _M_CAP.  A class of m = r (mod q) has one run more than it has wraps,
    so a column has about 2q + (M - m0 + 1)|eps| points.
    """
    cands = [_convergents(b) for b in beta.tolist()]
    col = np.repeat(np.arange(beta.size), [len(c) for c in cands])
    pm, q, eps = (np.array(v) for v in zip(*(c for cs in cands for c in cs)))
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


def _z(sigma: int, x: np.ndarray) -> np.ndarray:
    """Z with Z(x) - Z(x + L) = sum_{i < L} (x + i)^(-sigma) for integer L >= 0."""
    if sigma >= 2:
        return hurwitz_zeta(sigma, x)
    return -digamma(x) if sigma == 1 else -x


def _drift_class_sums(n: int, s: int, pm, q, eps, m0, M) -> np.ndarray:
    """sum_{m0 <= m <= M} B~n(m beta) m^(-s) per column, run by run, with beta = p/q + eps/q.

    Class r holds m = r + j q for j0 <= j <= j1.  There m beta = k/q + m delta
    modulo 1, with k = r p mod q and delta = eps/q, so the argument drifts
    by eps per step of j and B~n is the polynomial B_n(k/q - K + m delta) on
    each run of j where floor(k/q + m delta) = K.  A run's sum over
    m^(i - s) is q^(i - s) (Z(j_a + r/q) - Z(j_b + 1 + r/q)) with Z of _z, so
    each class is a sum over its points (its ends and the first j of each
    run) of Z times the change of the run polynomial's coefficients there.
    The points are taken _POINT_BLOCK at a time.
    """
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
        w = (np.where((i < runs[pc])[:, None], np.vander(a, n + 1, increasing=True), 0.0)
             - np.where((i > 0)[:, None], np.vander(a + step, n + 1, increasing=True), 0.0))
        w = (w @ _TAYLOR[n]) * (qp**-s)[:, None] * np.vander(ep, n + 1, increasing=True)
        total = sum(w[:, e] * _z(s - e, x) for e in range(n + 1))
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
    pm, q, eps, M, points = _series_plans(n, s, beta, m_start, tol)
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
    m^(-s) then needs Hurwitz zeta only at exponents >= 2 (scipy's is NaN
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
    start, acc = 0, 0
    for j, size in enumerate(sizes.tolist()):
        if acc and acc + size > cap:
            yield slice(start, j)
            start, acc = j, 0
        acc += size
    if start < len(sizes):
        yield slice(start, len(sizes))


def _remainder_windows(A: float, T2: float, alpha: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """mixed_power_tail's R2 window over [A, T2] for every alpha_j.

    Each column's panels are cut at the integers and at its own jumps
    m/alpha_j, then halved, as _window_integral cuts them; cuts that
    coincide leave zero-width panels, which carry zero weight.
    """
    k0, k1 = math.floor(A) + 1, math.ceil(T2) - 1
    base = np.concatenate(([A, T2], np.arange(k0, k1 + 1, dtype=float)))
    m_hi = np.floor(alpha * T2).astype(np.int64)
    n_jump = np.maximum(m_hi - m0 + 1, 0)
    xg, wg = gauss_legendre(8)
    out = np.zeros(alpha.shape)
    # every cut adds at most two order-8 panels
    for sl in _column_blocks(base.size + n_jump, _SUM_BLOCK // 16):
        al, cnt = alpha[sl], n_jump[sl]
        ncol = al.size
        col = np.repeat(np.arange(ncol), cnt)
        m = np.arange(col.size) + np.repeat(m0[sl] - (np.cumsum(cnt) - cnt), cnt)
        jumps = m.astype(float) / al[col]
        inside = (A < jumps) & (jumps < T2)
        cuts = np.concatenate((np.tile(base, ncol), jumps[inside]))
        owner = np.concatenate((np.repeat(np.arange(ncol), base.size), col[inside]))
        order = np.lexsort((cuts, owner))
        cuts, owner = cuts[order], owner[order]
        same = owner[1:] == owner[:-1]
        lo, hi, pc = cuts[:-1][same], cuts[1:][same], owner[1:][same]
        mid = 0.5 * (lo + hi)
        lo, hi, pc = np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.tile(pc, 2)
        half = 0.5 * (hi - lo)
        t = (lo + half)[:, None] + half[:, None] * xg
        f = bernoulli_tilde(4, t) * bernoulli_tilde(1, al[pc][:, None] * t) * t**-5
        out[sl] = np.bincount(pc, weights=np.sum(f * (half[:, None] * wg), axis=1),
                              minlength=ncol)
    return out


def mixed_power_tail(A: float, alpha, tol: float = 1e-11):
    """int_A^inf B~2(t) B~1(alpha t) t^(-3) dt for A >= 1, 0 < alpha <= 1.

    alpha is a float (the result is a float) or a 1-D array (one result per
    entry).  Two integrations by parts against antiderivatives of the B~2
    factor.  Each step emits a boundary term, a pure tail (the smooth part
    of d/dt B~1(alpha t)), and a jump series over the discontinuities of
    B~1(alpha t) at t = m/alpha; the final remainder

        R2 = int_A^inf B~4(t) B~1(alpha t) t^(-5) dt

    is integrated numerically out to T2 with its crude tail certified by
    sup|B~4 B~1| = 1/60.  The pure tails, B~3(A), B~4(A), T2 and the
    window's integer cuts depend on A and tol only and are computed once
    for every alpha.  The jump series sum_m B~n(m/alpha) m^(-n), n = 3, 4,
    are one drift-class sum per alpha (_bn_series_vec), the windows run
    through _remainder_windows.
    """
    if not A >= 1.0:
        raise ValueError(f"mixed_power_tail requires A >= 1, got {A}")
    _check_tol(tol)
    scalar = np.ndim(alpha) == 0
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.ndim != 1 or not np.all((alpha > 0.0) & (alpha <= 1.0)):
        raise ValueError(f"mixed_power_tail requires alpha in (0, 1], a float or 1-D, got {alpha}")
    tol_i = tol / 7.0
    al = alpha.tolist()
    b1_at_edge = bernoulli_tilde(1, alpha * A)  # right-continuous at jumps
    m0 = np.floor(alpha * A).astype(np.int64) + 1  # first jump strictly past A
    inv = 1.0 / alpha
    a3 = np.array([a**3 for a in al])
    a4 = np.array([a**4 for a in al])

    total = -bernoulli_tilde(3, A) * b1_at_edge * A**-3 / 3.0
    total -= (alpha / 3.0) * tilde_power_tail(3, 3.0, A, tol_i)
    total += (a3 / 3.0) * _bn_series_vec(3, inv, 3, m0, tol_i * 3.0 / a3)
    total -= bernoulli_tilde(4, A) * b1_at_edge * A**-4 / 4.0
    total -= (alpha / 4.0) * tilde_power_tail(4, 4.0, A, tol_i)
    total += (a4 / 4.0) * _bn_series_vec(4, inv, 4, m0, tol_i * 4.0 / a4)

    # remainder window: cuts at the integers and at the B~1(alpha t) jumps
    T2 = max(int(math.ceil(A)) + 1, int(math.ceil((1.0 / (240.0 * tol_i)) ** 0.25)))
    total += _remainder_windows(A, float(T2), alpha, m0)
    return float(total[0]) if scalar else total


def kernel_moment(x: float, s: float, tol: float = 1e-11) -> float:
    """int_0^1 K(x, y) y^s dy for x in (0, 1], s > -2, error below tol.

    The substitution t = 1/(xy) turns the moment into a pure tail:

        int_0^1 K(x,y) y^s dy = -x^(-s-1) int_{1/x}^inf B~1(t) t^(-s-2) dt

    convergent down to s = -1 (conditionally, B~1 having zero mean) and
    absolutely for s > -1.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("kernel_moment requires x in (0, 1]")
    if not s >= -1.0:
        raise ValueError(f"kernel_moment requires s >= -1, got {s}")
    scale = x ** (-s - 1.0)
    return -scale * tilde_power_tail(1, s + 2.0, 1.0 / x, tol / max(scale, 1.0))
