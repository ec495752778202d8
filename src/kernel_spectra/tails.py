"""Certified tails for the improper integrals and series behind the kernel.

Everything downstream (iterated kernel, moments, zeta identities) reduces to
three primitives:

* pure tails int_A^inf B~n(t) t^(-q) dt: a numeric window [A, T] over
  integer-cut panels plus an Euler-Maclaurin-style recursion at integer T
  whose boundary terms vanish and whose remainder is certified;
* the sawtooth series sum_{m >= m0} B~n(m beta) m^(-s): Hurwitz-zeta exact
  over residue classes when beta is a rational p/q with a small denominator
  or close enough to one that the certified shift to p/q fits the
  tolerance, otherwise direct chunks with a Fourier-Dirichlet remainder
  bound;
* the mixed tail int_A^inf B~2(t) B~1(alpha t) t^(-3) dt: two integration
  by parts against the B~1 factor (each step emits a pure tail and a jump
  series) and a short certified window for what remains.

All public functions take an absolute tolerance and guarantee the returned
value is within it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import zeta as hurwitz_zeta

from .bernoulli import bernoulli_tilde
from .quadrature import composite_rule, gauss_legendre

__all__ = [
    "tilde_power_tail",
    "b2_series",
    "bn_series",
    "series_remainder_bound",
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

_B_SUP = {1: 0.5, 2: 1.0 / 6.0, 3: 1.0 / (12.0 * math.sqrt(3.0)), 4: 1.0 / 30.0}

_VEC_BLOCK = 1 << 18


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")


def _poly_mean(p: Polynomial) -> float:
    return float(p.integ()(1.0))


def _poly_max_abs(p: Polynomial) -> float:
    """Exact sup of |p| on [0, 1] via critical points."""
    cand = [0.0, 1.0]
    dp = p.deriv()
    if dp.degree() >= 1:
        for r in dp.roots():
            if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= 1.0 + 1e-12:
                cand.append(min(max(r.real, 0.0), 1.0))
    return float(max(abs(p(c)) for c in cand))


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
        m = _poly_mean(p)
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
    return tuple(terms), (mult * _poly_max_abs(p), qq)


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
    exceeds tol/2 fall back to the scalar routine; with per-entry tolerances
    scaled to the tail envelope this is rare.
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


# Fourier frequencies summed by series_remainder_bound by default
_K_MAX = 4096


def series_remainder_bound(beta: float, M: int, k_max: int = _K_MAX) -> float:
    """Certified bound for |sum_{m>M} B~2(m beta) m^(-2)|.

    Fourier side: B~2(t) = (1/pi^2) sum_k cos(2 pi k t)/k^2 (at t = 0 this
    is zeta(2)/pi^2 = 1/6, fixing the constant).  For each k, the inner
    cosine sum over m > M is at most min(1/M, 1/(2 (M+1)^2 ||k beta||)) by
    the zeta tail and the Dirichlet-kernel partial-sum bound with Abel
    summation; frequencies beyond k_max use the 1/M branch.
    """
    k = np.arange(1, k_max + 1, dtype=float)
    dist = np.abs(k * beta - np.round(k * beta))
    with np.errstate(divide="ignore"):
        osc = np.where(dist > 0, 1.0 / (2.0 * (M + 1.0) ** 2 * dist), np.inf)
    per_k = np.minimum(1.0 / M, osc)
    head = float(np.sum(per_k / k**2))
    return (head + 1.0 / (M * k_max)) / math.pi**2


def _as_rational(beta: float, max_den: int = 16384) -> tuple[int, int] | None:
    """The best p/q with q <= max_den when it lies within 1e-13 beta, else None.

    Resonant frequencies (||k beta|| = 0 at multiples of q) kill the Fourier
    bound's decay, so near-rational ratios are summed exactly at p/q
    instead, wherever _rational_path certifies the shift from beta to p/q.
    """
    if not math.isfinite(beta) or beta <= 0.0:
        return None
    fr = Fraction(beta).limit_denominator(max_den)
    p, q = fr.numerator, fr.denominator
    return (p, q) if abs(beta - p / q) <= 1e-13 * beta else None


# sup |d/dt B~n| = n sup |B~(n-1)|; B~1 jumps and has no such constant
_B_LIP = {2: 1.0, 3: 0.5, 4: 1.0 / (3.0 * math.sqrt(3.0))}


def _rational_path(n: int, s: float, beta: float, tol: float, pq) -> tuple[int, int] | None:
    """pq when sum_m B~n(m beta) m^(-s) may be summed exactly at p/q, else None.

    Within 2 ulp of p/q the shift is rounding.  Further out, with
    delta = |beta - p/q|, term m moves by at most L_n m delta m^(-s), and
    for B~2 also by at most its range 1/4, so the series moves by at most
    delta (2 + ln(1/(4 delta))) for B~2 at s = 2 and L_n delta zeta(s - 1)
    for s >= 3; p/q is taken when that shift fits within tol.  B~1 jumps,
    so only the 2 ulp window applies to it.
    """
    if pq is None:
        return None
    delta = abs(beta - pq[0] / pq[1])
    if delta <= 2.0 * math.ulp(beta):
        return pq
    if n == 2 and s == 2.0 and delta <= 1.0 / 16.0:  # the bound needs 1/(4 delta) >= 4
        shift = delta * (2.0 + math.log(0.25 / delta))
    elif n in _B_LIP and s >= 3.0:
        shift = _B_LIP[n] * delta * float(hurwitz_zeta(s - 1.0, 1.0))
    else:
        return None
    return pq if shift <= tol else None


def _rational_series(n: int, p: int, q: int, s: float, m_start: int) -> float:
    """Exact sum_{m >= m_start} B~n(m p/q) m^(-s) via residue classes.

    Along m = r + j q the argument m p/q moves by integer steps of p, so
    B~n is constant on each class and the class sums to a Hurwitz zeta:
    q^(-s) * B~n(((r p) mod q)/q) * zeta(s, j0 + r/q).
    """
    r = np.arange(q, dtype=np.int64)
    b = bernoulli_tilde(n, ((r * p) % q) / q)
    j0 = -((r - m_start) // q)  # smallest j with r + j*q >= m_start
    total = float(np.dot(b, hurwitz_zeta(s, j0 + r / q)))
    return total * q ** (-s)


# no temporary of the batched sums and windows holds more than this many terms
_SUM_BLOCK = 1 << 14
# _b2_truncations gives up doubling the B~2 truncation M beyond this
_M_BUDGET = 1 << 28


def _direct_sums(n: int, s: float, beta, m_lo, m_hi) -> np.ndarray:
    """sum_{m = m_lo[j]}^{m_hi[j]} B~n(m beta[j]) m^(-s) for every j.

    The segments are laid end to end and summed _SUM_BLOCK terms at a time,
    so memory stays bounded however long one segment is; each term is
    computed exactly as a single direct sum computes it.
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


# The series and the mixed tail are computed for many columns at once, one
# row of the iterated-kernel matrix; a scalar call is a one-column call.  Each
# column keeps its own path choice, truncation M and certificate, so columns
# do not affect each other (tests/test_iterated.py::TestBatchedRow checks a
# row against its one-column calls).

# Legendre's theorem needs 1e-13 beta < 1/(2 max_den^2); it holds below this
_CF_BETA_MAX = float(1 << 14)
# below this many entries the exact test on each is cheaper than the prefilter
_CF_MIN_SIZE = 32


def _rational_pairs(beta: np.ndarray, max_den: int = 16384) -> list:
    """_as_rational(b, max_den) for every entry b of beta.

    Fewer than _CF_MIN_SIZE entries each run _as_rational, which is then
    cheaper than the prefilter's fixed cost.  From there on, a
    continued-fraction expansion, exact in int64 over the dyadic value
    of each beta in [1/512, 2^14), flags the entries that have a convergent
    p/q with q <= max_den within 1e-13 relative; only flagged entries (and
    any outside that range) run the exact _as_rational.  No accepted beta
    escapes the flag: _as_rational accepts only p/q within 1e-13 beta, which
    below 2^14 is inside 1/(2 q^2), and by Legendre's theorem such a p/q is
    a convergent of beta.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size < _CF_MIN_SIZE:
        return [_as_rational(b, max_den) for b in beta.tolist()]
    flag = ~((beta >= 1.0 / 512.0) & (beta < _CF_BETA_MAX))
    idx = np.flatnonzero(~flag)
    frac_part, expo = np.frexp(beta[idx])
    num = (frac_part * 2.0**53).astype(np.int64)  # beta = num / den exactly
    den = np.left_shift(np.int64(1), (53 - expo).astype(np.int64))
    h1, h2 = np.ones_like(num), np.zeros_like(num)  # convergent numerators
    k1, k2 = np.zeros_like(num), np.ones_like(num)  # and denominators
    live = np.ones(idx.size, dtype=bool)
    while live.any():
        i = np.flatnonzero(live)
        a, rem = np.divmod(num[i], den[i])
        # a larger partial quotient only pushes the denominator past max_den
        a = np.where(k1[i] == 0, a, np.minimum(a, max_den + 1))
        h = a * h1[i] + h2[i]
        k = a * k1[i] + k2[i]
        num[i], den[i] = den[i], rem
        h2[i], h1[i], k2[i], k1[i] = h1[i], h, k1[i], k
        ok = k <= max_den
        b = beta[idx[i]]
        flag[idx[i[ok]]] |= np.abs(b[ok] - h[ok] / k[ok]) <= 1e-13 * b[ok]
        live[i] = ok & (den[i] != 0)
    pairs = [None] * beta.size
    for j in np.flatnonzero(flag):
        pairs[j] = _as_rational(float(beta[j]), max_den)
    return pairs


_K = np.arange(1, _K_MAX + 1, dtype=float)
_K2 = _K**2
# summands of the cheap lower bound that certifies a doubling in _b2_truncations
_K_HEAD = 64


def _bound_terms(dist: np.ndarray, M: np.ndarray) -> np.ndarray:
    """series_remainder_bound's summands min(1/M, osc_k)/k^2, one row per M.

    dist holds ||k beta|| for the first dist.shape[1] frequencies k; the
    float operations are series_remainder_bound's, so the terms are too.
    """
    scale = np.array([2.0 * (m + 1.0) ** 2 for m in M.tolist()])
    # ||k beta|| = 0 gives 1/0 = inf, the 1/M branch of the minimum
    with np.errstate(divide="ignore"):
        terms = np.divide(1.0, scale[:, None] * dist)
    np.minimum((1.0 / M)[:, None], terms, out=terms)
    return np.divide(terms, _K2[: dist.shape[1]], out=terms)


def _b2_truncations(beta: np.ndarray, m_start: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The direct-sum truncation M of the B~2 series for every column.

    M doubles from max(m_start + 256, 2048) until series_remainder_bound
    (beta, M) <= tol, on that function's float formula, with the distances
    ||k beta|| taken once per column and reused across doublings.  A
    doubling is certified without the full formula while the first _K_HEAD
    of its _K_MAX summands, less a 1e-12 relative margin, already put the
    bound above tol: the summands are nonnegative and the margin exceeds the
    rounding of either sum, so the full formula would exceed tol too.
    """
    M = np.maximum(m_start + 256, 2048)
    for k_used, margin in ((_K_HEAD, 1.0 - 1e-12), (_K_MAX, 1.0)):
        rows = max(1, _SUM_BLOCK // k_used)
        for lo in range(0, beta.size, rows):
            sl = slice(lo, lo + rows)
            kb = beta[sl, None] * _K[:k_used]
            dist = np.abs(kb - np.round(kb), out=kb)
            Mb, tb = M[sl], tol[sl]  # Mb is a view: doubling it doubles M
            todo = np.arange(Mb.size)
            while todo.size:
                m = Mb[todo]
                head = np.sum(_bound_terms(dist[todo], m), axis=1) * margin
                bound = (head + 1.0 / (m * _K_MAX)) / math.pi**2
                todo = todo[bound > tb[todo]]
                Mb[todo] *= 2
                if np.any(Mb[todo] > _M_BUDGET):
                    raise RuntimeError("series truncation exceeded budget")
    return M


def _bn_series_vec(n: int, beta: np.ndarray, s: float, m_start: np.ndarray,
                   tol: np.ndarray, pairs: list) -> np.ndarray:
    """sum_{m >= m_start[j]} B~n(m beta[j]) m^(-s) within tol[j], every column j.

    pairs is _rational_pairs(beta), which callers share between series.
    Columns that _rational_path sends to p/q are summed exactly over residue
    classes; the rest are direct sums out to M, from _b2_truncations for B~2
    at s = 2 and from the crude tail sup|B~n| M^(1-s)/(s-1) <= tol otherwise.
    """
    pairs = [_rational_path(n, s, b, t, pq)
             for b, t, pq in zip(beta.tolist(), tol.tolist(), pairs)]
    out = np.empty(beta.shape)
    for j, pq in enumerate(pairs):
        if pq is not None:
            out[j] = _rational_series(n, pq[0], pq[1], s, int(m_start[j]))
    d = np.array([pq is None for pq in pairs], dtype=bool)
    if not d.any():
        return out
    if n == 2 and s == 2.0:
        M = _b2_truncations(beta[d], m_start[d], tol[d])
    else:
        # the crude certified tail, in scalar arithmetic
        M = [max(int(math.ceil((_B_SUP[n] / (t * (s - 1.0))) ** (1.0 / (s - 1.0)))), m + 16)
             for t, m in zip(tol[d].tolist(), m_start[d].tolist())]
    out[d] = _direct_sums(n, s, beta[d], m_start[d], M)
    return out


def b2_series(beta: float, m_start: int, tol: float = 1e-10) -> float:
    """sum_{m >= m_start} B~2(m beta) m^(-2), absolute error below tol.

    Rational beta (integers included), or beta whose shift to a nearby p/q
    _rational_path certifies, is summed exactly over residue classes mod q.
    Otherwise: direct chunks out to M, with M doubled until the certified
    Fourier remainder bound fits under tol.
    """
    return bn_series(2, beta, 2.0, m_start, tol)


def bn_series(n: int, beta: float, s: float, m_start: int, tol: float = 1e-10) -> float:
    """sum_{m >= m_start} B~n(m beta) m^(-s) for s >= 2, error below tol.

    A one-column call of _bn_series_vec.
    """
    if n not in _B_POLY:
        raise ValueError(f"order must be 1..4, got {n}")
    if not s >= 2.0:
        raise ValueError(f"bn_series requires s >= 2, got {s}")
    if not m_start >= 1:
        raise ValueError(f"m_start must be >= 1, got {m_start}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    _check_tol(tol)
    col = _bn_series_vec(n, np.array([beta], dtype=float), s, np.array([m_start], dtype=np.int64),
                         np.array([tol], dtype=float), [_as_rational(beta)])
    return float(col[0])


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
    for every alpha; the jump series run through _bn_series_vec and the
    windows through _remainder_windows.
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
    pairs = _rational_pairs(inv)
    a3 = np.array([a**3 for a in al])
    a4 = np.array([a**4 for a in al])

    total = -bernoulli_tilde(3, A) * b1_at_edge * A**-3 / 3.0
    total -= (alpha / 3.0) * tilde_power_tail(3, 3.0, A, tol_i)
    total += (a3 / 3.0) * _bn_series_vec(3, inv, 3.0, m0, tol_i * 3.0 / a3, pairs)
    total -= bernoulli_tilde(4, A) * b1_at_edge * A**-4 / 4.0
    total -= (alpha / 4.0) * tilde_power_tail(4, 4.0, A, tol_i)
    total += (a4 / 4.0) * _bn_series_vec(4, inv, 4.0, m0, tol_i * 4.0 / a4, pairs)

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
    if s < -1.0:
        raise ValueError("kernel_moment requires s >= -1")
    scale = x ** (-s - 1.0)
    return -scale * tilde_power_tail(1, s + 2.0, 1.0 / x, tol / max(scale, 1.0))
