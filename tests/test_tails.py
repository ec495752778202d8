"""Tests for the certified tail integrals and sawtooth series."""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import polygamma
from scipy.special import zeta as hurwitz_zeta

from kernel_spectra.bernoulli import bernoulli_tilde
from kernel_spectra.kernel import k_eval
from kernel_spectra.quadrature import composite_rule, kernel_breakpoints
from kernel_spectra.tails import (
    _SUM_BLOCK,
    _bn_series_vec,
    _direct_sums,
    _tail_at,
    _window_integral,
    b2_series,
    bn_series,
    kernel_moment,
    mixed_power_tail,
    tilde_power_tail,
)


def fourier_remainder_bound(beta: float, M: int) -> float:
    """Certified bound for |sum_{m>M} B~2(m beta) m^(-2)|, by Fourier analysis.

    The slack of the truncated direct-sum oracles (TestB2Series and
    TestSpotTable), independent of the series engine's certificate.
    B~2(t) = (1/pi^2) sum_k cos(2 pi k t)/k^2; for each k the cosine sum
    over m > M is at most min(1/M, 1/(2 (M+1)^2 ||k beta||)) by the zeta
    tail and the Dirichlet-kernel partial-sum bound with Abel summation;
    frequencies beyond 4096 take the 1/M branch.
    """
    k = np.arange(1, 4097, dtype=float)
    dist = np.abs(k * beta - np.round(k * beta))
    with np.errstate(divide="ignore"):
        osc = np.where(dist > 0, 1.0 / (2.0 * (M + 1.0) ** 2 * dist), np.inf)
    per_k = np.minimum(1.0 / M, osc)
    head = float(np.sum(per_k / k**2))
    return (head + 1.0 / (M * k.size)) / math.pi**2


def window_oracle(n, q, A, T=3000.0):
    """Plain panel quadrature of B~n(t) t^-q out to T, with a crude tail slack."""
    val = _window_integral(lambda t: bernoulli_tilde(n, t) * t ** (-q), A, T)
    return val, (1.0 / 6.0) * T ** (-q)


class TestTildePowerTail:
    def test_matches_window_oracle(self):
        for n in (1, 2, 3, 4):
            for q in (2.0, 3.0, 4.0):
                for A in (1.0, 1.37, 2.0, 7.25):
                    mine = tilde_power_tail(n, q, A, tol=1e-12)
                    ref, slack = window_oracle(n, q, A)
                    assert abs(mine - ref) <= slack + 1e-11, (n, q, A)

    def test_zeta_identity(self):
        # int_1^inf B~1(t) t^(-s-1) dt = (1/(s-1) + 1/2 - zeta(s)) / s
        for s in (1.5, 2.0, 3.0, 4.0):
            mine = tilde_power_tail(1, s + 1.0, 1.0, tol=1e-13)
            ref = (1.0 / (s - 1.0) + 0.5 - float(hurwitz_zeta(s, 1))) / s
            assert mine == pytest.approx(ref, abs=5e-13)

    def test_frozen_values(self):
        assert tilde_power_tail(1, 3.0, 1.5, tol=1e-13) == pytest.approx(
            0.010866299909219642, abs=1e-12
        )
        assert tilde_power_tail(2, 2.0, 1.0, tol=1e-13) == pytest.approx(
            0.004543733076011877, abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tilde_power_tail(1, 2.0, 0.5)
        with pytest.raises(ValueError):
            tilde_power_tail(7, 2.0, 1.0)
        with pytest.raises(ValueError, match="q > 0"):
            tilde_power_tail(1, 0.0, 2.0)
        with pytest.raises(ValueError, match="A >= 1"):
            tilde_power_tail(1, 2.0, math.nan)
        for tol in (0.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="tol must be > 0"):
                tilde_power_tail(2, 2.0, 3.0, tol)

    @given(
        a=st.floats(min_value=1.0, max_value=40.0),
        gap=st.floats(min_value=0.5, max_value=30.0),
        n=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_splitting_at_interior_point(self, a, gap, n):
        # tail(A) = window[A, B] + tail(B)
        b = a + gap
        whole = tilde_power_tail(n, 3.0, a, tol=1e-12)
        part = _window_integral(
            lambda t: bernoulli_tilde(n, t) * t**-3, a, b
        ) + tilde_power_tail(n, 3.0, b, tol=1e-12)
        assert whole == pytest.approx(part, abs=5e-12)


class TestPeriodicPowerTail:
    # the by-parts ladder behind tilde_power_tail, evaluated at integer T
    def test_depth_consistency(self):
        v6, b6 = _tail_at(2, 2.0, 3, depth=6)
        v8, b8 = _tail_at(2, 2.0, 3, depth=8)
        assert abs(v6 - v8) <= b6 + b8

    def test_shift_consistency(self):
        v3, b3 = _tail_at(2, 2.0, 3, depth=8)
        w = _window_integral(lambda t: bernoulli_tilde(2, t) * t**-2, 3.0, 6.0)
        v6, b6 = _tail_at(2, 2.0, 6, depth=8)
        assert abs(v3 - (w + v6)) <= b3 + b6 + 1e-14

    def test_q_one_zero_mean(self):
        # conditionally convergent case, only legal for zero-mean pieces
        v, b = _tail_at(1, 1.0, 5, depth=6)
        w = _window_integral(lambda t: bernoulli_tilde(1, t) / t, 5.0, 3000.0)
        assert abs(v - w) <= b + 1.0 / (6.0 * 3000.0)

    def test_q_one_nonzero_mean_rejected(self):
        # from q = 0 the second level reaches q = 1 with (B~2 - 1/6)/2, of mean -1/12
        with pytest.raises(ValueError, match="nonzero mean"):
            _tail_at(1, 0.0, 4)


class TestB2Series:
    def test_integer_beta_is_trigamma(self):
        for m0 in (1, 3, 17):
            assert b2_series(2.0, m0) == pytest.approx(
                float(polygamma(1, m0)) / 6.0, abs=1e-15
            )

    def test_frozen_values(self):
        assert b2_series(math.pi, 1, tol=1e-12) == pytest.approx(
            0.024596139069547177, abs=1e-11
        )
        assert b2_series(3.2, 1) == pytest.approx(-0.013423206896432107, abs=1e-12)
        assert b2_series(math.sqrt(2.0), 4, tol=1e-12) == pytest.approx(
            -0.0012197346280938515, abs=1e-11
        )

    def test_matches_direct_sums(self):
        # rational ratios take the exact residue-class route; slack covers
        # the truncation of the direct oracle itself
        for beta in (math.pi, 3.2, 1.618033988749895, 2.75):
            m = np.arange(1, 4_000_001, dtype=float)
            direct = float(np.dot(bernoulli_tilde(2, m * beta), m**-2))
            slack = fourier_remainder_bound(beta, 4_000_000)
            mine = b2_series(beta, 1, tol=1e-11)
            assert abs(mine - direct) <= 1e-11 + slack, beta

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError, match="m_start"):
            b2_series(2.5, 0)
        for beta in (math.nan, math.inf, 0.0, -2.5):
            with pytest.raises(ValueError, match="beta must be finite and > 0"):
                b2_series(beta, 1)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol must be > 0"):
                b2_series(3.3, 1, tol=tol)

    @given(
        p=st.integers(min_value=1, max_value=40),
        q=st.integers(min_value=1, max_value=12),
        m0=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_rational_route_matches_direct(self, p, q, m0):
        beta = p / q
        mine = b2_series(beta, m0)
        m = np.arange(m0, 400_001, dtype=float)
        direct = float(np.dot(bernoulli_tilde(2, m * beta), m**-2))
        # residue-class mean decay: |tail| <= sup|B~2| / M
        assert abs(mine - direct) <= (1.0 / 6.0) / 400_000 + 1e-12


class TestRemainderBound:
    def test_bound_dominates_true_remainder(self):
        # beta = 16/5 exercises the resonant modes (zero cancellation)
        for beta in (math.pi, 3.2, 0.7310585786300049):
            m = np.arange(1, 4_000_001, dtype=float)
            terms = bernoulli_tilde(2, m * beta) * m**-2
            csum = np.cumsum(terms[::-1])[::-1]
            for M in (128, 1024, 16384, 262144):
                actual = abs(csum[M])
                assert actual <= fourier_remainder_bound(beta, M), (beta, M)

    def test_monotone_in_M(self):
        for beta in (math.pi, 3.2):
            bounds = [fourier_remainder_bound(beta, M) for M in (1000, 10_000, 100_000)]
            assert bounds[0] > bounds[1] > bounds[2]


class TestBatchedSeries:
    def test_direct_sums_match_plain_dot(self):
        # ragged segments, one longer than a block, one empty, one of a term
        lo = np.array([1, 5, 2048, 9, 3])
        hi = np.array([4096, 3 * _SUM_BLOCK + 17, 70_000, 8, 3])
        beta = np.array([math.pi, 3.2, math.sqrt(2.0), 1.5, 0.77])
        for n, s in ((2, 2.0), (3, 3.0), (4, 4.0)):
            got = _direct_sums(n, s, beta, lo, hi)
            for j in range(beta.size):
                m = np.arange(lo[j], hi[j] + 1, dtype=float)
                ref = float(np.dot(bernoulli_tilde(n, m * beta[j]), m**-s))
                assert got[j] == pytest.approx(ref, rel=1e-13, abs=1e-16), (n, j)

    # a scalar call is a one-column call of the same engine, so a column must
    # not depend on the others; only the summation order may differ
    def test_series_vec_matches_scalar(self):
        beta = np.array([1.0, 2.5, math.pi, 7.0 / 3.0, 13.37, 250.01])
        m_start = np.array([1, 3, 2, 5, 1, 40])
        for n, s, tol in ((2, 2.0, 1e-9), (3, 3.0, 1e-10), (4, 4.0, 1e-10)):
            tols = np.full(beta.size, tol)
            got = _bn_series_vec(n, beta, int(s), m_start, tols)
            ref = [bn_series(n, b, s, int(m), tol) for b, m in zip(beta, m_start)]
            assert np.max(np.abs(got - ref)) <= 1e-15

    def test_series_vec_follows_scalar_path_near_rationals(self):
        # 2 (1 + 9e-14) is 9e-14 relative off p/q = 2: a slow drift whose
        # sums at tol 1e-10 and 1e-14 must agree with each other and with the
        # one-column calls
        beta = np.full(2, 2.0 * (1.0 + 9e-14))
        tols = np.array([1e-10, 1e-14])
        got = _bn_series_vec(3, beta, 3, np.ones(2, dtype=np.int64), tols)
        ref = [bn_series(3, float(b), 3.0, 1, float(t)) for b, t in zip(beta, tols)]
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert abs(ref[0] - ref[1]) <= 1e-10

    def test_mixed_tail_vec_matches_scalar(self):
        # an array alpha against element-wise float calls
        for A, tol in ((1.0, 1e-9), (3.7, 1e-11), (41.5, 1e-12), (900.25, 1e-13)):
            alpha = np.array([1.0, 0.999, 0.5, 1.0 / 3.0, 0.123, 0.01])
            got = mixed_power_tail(A, alpha, tol)
            ref = [mixed_power_tail(A, float(a), tol) for a in alpha]
            assert isinstance(ref[0], float) and got.shape == alpha.shape
            assert np.max(np.abs(got - ref)) <= 1e-15, A


def residue_class_sum(n, p, q, s, m0):
    """sum_{m >= m0} B~n(m p/q) m^-s, exact over the residue classes mod q (scipy Hurwitz zeta)."""
    r = np.arange(q)
    j0 = -((r - m0) // q)
    b = bernoulli_tilde(n, ((r * p) % q) / q)
    return float(np.dot(b, hurwitz_zeta(s, j0 + r / q))) * q**-s


class TestBnSeries:
    def test_matches_direct_sums(self):
        # 3.2 = 16/5 (the float lies above it) also gets its residue-class
        # tail past the direct range, which at s = 2 is ~1e-8; at pi the
        # dropped tail is below 1e-11
        for n, s in ((3, 3.0), (4, 4.0), (2, 3.0), (1, 2.0)):
            for beta in (math.pi, 3.2):
                mine = bn_series(n, beta, s, 2, tol=1e-11)
                m = np.arange(2, 3_000_001, dtype=float)
                direct = float(np.dot(bernoulli_tilde(n, m * beta), m**-s))
                if beta == 3.2:
                    direct += residue_class_sum(n, 16, 5, s, 3_000_001)
                assert abs(mine - direct) < 1e-9, (n, s, beta)

    def test_integer_beta_closed_forms(self):
        assert bn_series(3, 2.0, 3.0, 5) == 0.0
        ref = (-1.0 / 30.0) * float(hurwitz_zeta(4.0, 2))
        assert bn_series(4, 3.0, 4.0, 2) == pytest.approx(ref, abs=1e-15)

    def test_frozen_value(self):
        assert bn_series(3, math.pi, 3.0, 2, tol=1e-12) == pytest.approx(
            0.005488540869769886, abs=1e-11
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bn_series(5, 2.5, 3.0, 1)
        for n, s in ((2, 1.5), (2, 2.5), (3, 2.0), (4, 3.0), (2, math.nan), (2, math.inf)):
            with pytest.raises(ValueError, match="s an integer >= max"):
                bn_series(n, 2.5, s, 1)
        for m_start in (0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="m_start"):
                bn_series(3, 2.5, 3.0, m_start)
        for beta in (math.nan, -1.0):
            with pytest.raises(ValueError, match="beta must be finite and > 0"):
                bn_series(3, beta, 3.0, 1)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol must be > 0"):
                bn_series(3, 2.5, 3.0, 1, tol)


class TestMixedPowerTail:
    def test_matches_brute_window(self):
        def oracle(A, alpha, T=20000.0):
            jumps = (
                np.arange(math.floor(alpha * A) + 1, int(alpha * T) + 2, dtype=float)
                / alpha
            )
            val = _window_integral(
                lambda t: bernoulli_tilde(2, t) * bernoulli_tilde(1, alpha * t) * t**-3,
                A,
                T,
                order=8,
                extra=jumps,
            )
            return val, T**-2 / 24.0

        for A in (1.0, 1.37, 2.0, 9.3):
            for alpha in (1.0, 0.7, 0.3125, 0.05):
                mine = mixed_power_tail(A, alpha, tol=1e-11)
                ref, slack = oracle(A, alpha)
                assert abs(mine - ref) <= slack + 2e-11, (A, alpha)

    def test_frozen_values(self):
        assert mixed_power_tail(1.37, 0.3125, tol=1e-12) == pytest.approx(
            0.0008528329737546515, abs=1e-11
        )
        assert mixed_power_tail(2.0, 1.0, tol=1e-12) == pytest.approx(
            -0.0006832601035802469, abs=1e-11
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mixed_power_tail(0.5, 0.5)
        with pytest.raises(ValueError):
            mixed_power_tail(2.0, 1.5)
        with pytest.raises(ValueError, match="A >= 1"):
            mixed_power_tail(math.nan, 0.5)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol must be > 0"):
                mixed_power_tail(2.0, 0.5, tol)
        for alpha in ([0.5, 1.5], [0.0, 0.5], [0.5, math.nan], [[0.5]]):
            with pytest.raises(ValueError, match="alpha in"):
                mixed_power_tail(2.0, np.array(alpha))


class TestKernelMoment:
    def test_direct_quadrature_oracle(self):
        for x in (0.3, 0.7, 1.0):
            for s in (1.0, 2.0):
                rule = composite_rule(kernel_breakpoints(x, 1e-5), 10)
                ref = rule.integrate(lambda y: k_eval(x, y) * y**s)
                tail = 1e-5 ** (s + 1) / (2.0 * (s + 1.0))
                mine = kernel_moment(x, s, tol=1e-12)
                assert abs(mine - ref) <= tail + 1e-9, (x, s)

    def test_euler_gamma_identity(self):
        # x * int_0^1 K(x,y) dy = gamma - H_n + log(1/x) + x K(1,x), n = floor(1/x)
        for x in (0.4, 0.3, 0.77):
            lhs = x * kernel_moment(x, 0.0, tol=1e-12)
            n = math.floor(1.0 / x)
            rhs = (
                np.euler_gamma
                - float(np.sum(1.0 / np.arange(1, n + 1)))
                + math.log(1.0 / x)
                + x * k_eval(1.0, x)
            )
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_log_weight(self):
        # s = -1 is the integrable log-singular moment
        for x in (0.3, 0.8):
            mine = kernel_moment(x, -1.0, tol=1e-12)
            w = -_window_integral(
                lambda t: bernoulli_tilde(1, t) / t, 1.0 / x, 100000.0
            )
            assert abs(mine - w) <= 1.0 / (6.0 * 100000.0) + 1e-10, x

    def test_frozen_values(self):
        assert kernel_moment(0.4, 1.0, tol=1e-13) == pytest.approx(
            -0.015831041099292297, abs=1e-12
        )
        assert kernel_moment(0.77, 0.0, tol=1e-13) == pytest.approx(
            -0.008337105148129334, abs=1e-12
        )


def _mpq(f):
    return mp.mpf(f.numerator) / f.denominator


def mp_drift_sum(n, beta, s, m0, M, q):
    """sum_{m0 <= m <= M} B~n(m beta) m^-s at 30 digits, for the float beta's exact value.

    An independent implementation of the drift-class sum: with p/q the
    closest fraction of denominator <= q and d = beta - p/q as exact
    fractions, each run of a residue class is found in rational arithmetic,
    its polynomial expanded exactly, and its powers summed with mpmath's
    Hurwitz zeta and digamma.  M = None sums to infinity (d must be 0).
    """
    F = Fraction(beta)
    pq = F.limit_denominator(q)
    p, q, d = pq.numerator, pq.denominator, F - pq
    assert M is not None or d == 0
    poly = [Fraction(c).limit_denominator(1000) for c in _B_POLY_COEF[n]]
    total = mp.mpf(0)
    for r in range(q):
        k = Fraction((r * p) % q, q)
        j = -((r - m0) // q)
        j1 = math.inf if M is None else (M - r) // q
        while j <= j1:
            K = math.floor(k + (r + j * q) * d)  # the run's piece
            if d > 0:
                jb = math.ceil((K + 1 - k - r * d) / (q * d)) - 1
            elif d < 0:
                jb = math.floor((K - k - r * d) / (q * d))
            else:
                jb = j1
            jb = min(jb, j1)
            # B_n(k - K + m d) as a polynomial in m
            c = [Fraction(0)] * (n + 1)
            for i, ci in enumerate(poly):
                for e in range(i + 1):
                    c[e] += ci * math.comb(i, e) * (k - K) ** (i - e) * d**e
            xa = mp.mpf(j) + mp.mpf(r) / q
            xb = None if jb == math.inf else mp.mpf(jb + 1) + mp.mpf(r) / q
            for e, ce in enumerate(c):
                if ce:
                    sig = s - e
                    if sig >= 2:
                        z = mp.zeta(sig, xa) - (0 if xb is None else mp.zeta(sig, xb))
                    elif sig == 1:
                        z = mp.digamma(xb) - mp.digamma(xa)
                    else:
                        z = xb - xa
                    total += _mpq(ce) * mp.mpf(q) ** (e - s) * z
            if xb is None:
                break
            j = jb + 1
    return total


_B_POLY_COEF = {1: (-0.5, 1.0), 2: (1.0 / 6.0, -1.0, 1.0), 3: (0.0, 0.5, -1.5, 1.0),
                4: (-1.0 / 30.0, 0.0, 1.0, -2.0, 1.0)}
_B_SUP = {1: 0.5, 2: 1.0 / 6.0, 3: math.sqrt(3.0) / 36.0, 4: 1.0 / 30.0}
_NS = ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5))


def _ulps(x, k):
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


def _spot_rows():
    """(n, s, beta, q, m0, tol): every (n, s), rational, offset and start in turn."""
    rows = []
    starts, tols = (1, 17, 1000), (1e-7, 1e-10, 1e-12)
    i = 0
    for p, q in ((3, 1), (5, 2), (7, 3), (22, 7), (41, 12)):
        for k, tol in ((0, 1e-12), (1, 1e-12), (-3, 1e-10), (64, 1e-10)):
            n, s = _NS[i % len(_NS)]
            rows.append((n, s, _ulps(p / q, k), q, starts[i % 3], tol))
            i += 1
    for r, tol in ((1e-13, 1e-12), (-1e-12, 1e-12), (1e-11, 1e-10), (-1e-10, 1e-10),
                   (1e-9, 1e-7), (-1e-8, 1e-7), (1e-7, 1e-7)):
        rows += [(2, 2, 2.0 * (1.0 + r), 1, starts[i % 3], tol)]
        n, s = _NS[2 + i % 5]  # s >= 3 keeps the reference short
        rows += [(n, s, 22.0 / 7.0 * (1.0 + r), 7, starts[(i + 1) % 3], tol)]
        i += 1
    for j, (n, s) in enumerate(_NS):
        rows.append((n, s, 20000.5, 2, starts[j % 3], tols[j % 3]))
    return rows


class TestSpotTable:
    # the sawtooth series against references that share no code with it:
    # mpmath at 30 digits near and at rationals, direct sums elsewhere

    @pytest.mark.parametrize("n,s,beta,q,m0,tol", _spot_rows())
    def test_near_and_at_rationals(self, n, s, beta, q, m0, tol):
        exact = Fraction(beta) == Fraction(beta).limit_denominator(q)
        # away from p/q the reference stops where its plain tail
        # sup|B~n| M^(1-s)/(s-1) is tol/100, which is its slack
        M = None if exact else math.ceil((100.0 * _B_SUP[n] / ((s - 1) * tol)) ** (1.0 / (s - 1)))
        slack = 0.0 if exact else _B_SUP[n] * M ** (1 - s) / (s - 1)
        ref = float(mp_drift_sum(n, beta, s, m0, None if exact else max(M, m0), q))
        mine = bn_series(n, beta, s, m0, tol)
        assert abs(mine - ref) <= (1e-15 if exact else tol + slack), (mine, ref)

    @pytest.mark.parametrize("b,beta", enumerate(
        [(1.0 + math.sqrt(5.0)) / 2.0, math.sqrt(2.0), math.pi, 1.0 / math.pi]
        + [_ulps(606213.0 / 16384.0, k) for k in (0, 1, -3, 64)]))
    def test_direct_sums(self, b, beta):
        # 4e6 terms, also at p/16384 and 1, 3 and 64 ulp off it, where the
        # residue-class reference would take 16384 mpmath zetas; the dropped
        # tail is at most fourier_remainder_bound at n = s = 2 and
        # sup|B~n| M^(1-s)/(s-1) < 4e-14 for s >= 3
        M = 4_000_000
        m = np.arange(1, M + 1, dtype=float)
        for j in (b, b + 5):
            n, s = _NS[1 + j % 6]
            m0, tol = (1, 17, 1000)[j % 3], (1e-7, 1e-10, 1e-12)[j % 3]
            direct = float(np.dot(bernoulli_tilde(n, m[m0 - 1:] * beta), m[m0 - 1:] ** -float(s)))
            slack = (fourier_remainder_bound(beta, M) if s == 2
                     else _B_SUP[n] * M ** (1 - s) / (s - 1))
            assert abs(bn_series(n, beta, s, m0, tol) - direct) <= tol + slack, (n, s)

    def test_sawtooth_at_pi_is_fast(self):
        # B~1 at s = 2 once cost 10x per decade of tol; the reference is a
        # 1e9-term direct sum, whose dropped tail is below 1e-15
        t0 = time.perf_counter()
        mine = bn_series(1, math.pi, 2.0, 1, 1e-10)
        assert time.perf_counter() - t0 < 1.0
        assert abs(mine - -0.39259810016833185) <= 1e-10
