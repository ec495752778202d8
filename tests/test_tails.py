"""Tests for the certified tail integrals and sawtooth series."""

import math

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
    _b2_truncations,
    _bn_series_vec,
    _direct_sums,
    _rational_pairs,
    _tail_at,
    _window_integral,
    b2_series,
    bn_series,
    kernel_moment,
    mixed_power_tail,
    series_remainder_bound,
    tilde_power_tail,
)


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
            slack = series_remainder_bound(beta, 4_000_000)
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
                assert actual <= series_remainder_bound(beta, M), (beta, M)

    def test_monotone_in_M(self):
        for beta in (math.pi, 3.2):
            bounds = [series_remainder_bound(beta, M) for M in (1000, 10_000, 100_000)]
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
            got = _bn_series_vec(n, beta, s, m_start, tols, _rational_pairs(beta))
            ref = [bn_series(n, b, s, int(m), tol) for b, m in zip(beta, m_start)]
            assert np.max(np.abs(got - ref)) <= 1e-15

    def test_series_vec_follows_scalar_path_near_rationals(self):
        # 2 (1 + 9e-14) lies inside _as_rational's window; the shift to p/q = 2
        # (about 1.5e-13 here) is certified under tol 1e-10 but not 1e-14
        beta = np.full(2, 2.0 * (1.0 + 9e-14))
        tols = np.array([1e-10, 1e-14])
        got = _bn_series_vec(3, beta, 3.0, np.ones(2, dtype=np.int64), tols, _rational_pairs(beta))
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

    def test_truncations_match_scalar_doubling(self):
        rng = np.random.default_rng(5)
        beta = rng.uniform(1.0, 400.0, 40)
        m_start = rng.integers(1, 600, 40)
        tol = 10.0 ** rng.uniform(-11.0, -5.0, 40)
        got = _b2_truncations(beta, m_start, tol)
        for b, m0, t, M in zip(beta.tolist(), m_start.tolist(), tol.tolist(), got.tolist()):
            ref = max(m0 + 256, 2048)
            while series_remainder_bound(b, ref) > t:
                ref *= 2
            assert M == ref


class TestBnSeries:
    def test_matches_direct_sums(self):
        for n, s in ((3, 3.0), (4, 4.0), (2, 3.0)):
            for beta in (math.pi, 3.2):
                mine = bn_series(n, beta, s, 2, tol=1e-11)
                m = np.arange(2, 3_000_001, dtype=float)
                direct = float(np.dot(bernoulli_tilde(n, m * beta), m**-s))
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
        with pytest.raises(ValueError):
            bn_series(2, 2.5, 1.5, 1)
        with pytest.raises(ValueError, match="m_start"):
            bn_series(3, 2.5, 3.0, 0)
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
