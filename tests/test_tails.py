"""Tests for the certified tail integrals and sawtooth series."""

import math
import sys
import threading
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import polygamma
from scipy.special import zeta as hurwitz_zeta

from kernel_spectra import iterated, tails
from kernel_spectra.bernoulli import _B_POLY, bernoulli_tilde
from kernel_spectra.kernel import k_eval
from kernel_spectra.quadrature import composite_rule, gauss_legendre, kernel_breakpoints
from kernel_spectra.tails import (
    _bn_series_vec,
    _ladder_poly,
    _piece_values,
    _tilde_tail_vec,
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


def _window_integral(f, a: float, b: float, order: int = 16, extra=None) -> float:
    """Integrate f over [a, b] on panels cut at the integers (plus extras), the window oracle.

    Panels are halved once so that no single Gauss panel spans a full unit
    interval; with piecewise-polynomial-times-power integrands this is
    accurate to roundoff.  Independent of the tail engine: it runs on
    composite_rule and bernoulli_tilde.
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
        for A in (math.nan, math.inf):
            with pytest.raises(ValueError, match="A >= 1"):
                tilde_power_tail(1, 2.0, A)
        with pytest.raises(ValueError, match="q > 0"):
            tilde_power_tail(2, math.inf, 3.0)
        for tol in (0.0, -1e-9, math.nan, math.inf):
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


def _tail_at(n, q, T, depth=None):
    """(value, bound) of the B~n ladder at integer T: _ladder_poly, or poly_ladder at a given depth."""
    if depth is None:
        e, d, c, p = _ladder_poly(n, float(q))
        return float(np.sum(d * float(T) ** e)), c * float(T) ** -p
    terms, (bc, bq) = poly_ladder(n, q, depth)
    value = sum(c * T ** (1.0 - qi) / (qi - 1.0) for c, qi in terms)
    return value, abs(bc * T ** (1.0 - bq) / (bq - 1.0))


def poly_ladder(n, q, depth=6):
    """The by-parts ladder as it was built per q, polynomials and all: the oracle of _ladder_poly.

    Returns (terms, (bound_coef, bound_q)) with terms = ((coef_i, q_i), ...):
    the tail at T is sum coef_i T^(1-q_i)/(q_i - 1) and the remainder bound
    |bound_coef T^(1-bound_q)/(bound_q - 1)|.
    """
    p = _B_POLY[n]
    terms = []
    mult = 1.0
    qq = float(q)
    for _ in range(depth):
        m = float(p.integ()(1.0))
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


class TestTailEngine:
    # _tilde_tail_vec integrates every window in one batch, never through the
    # scalar tilde_power_tail, and the ladder's polynomials are cached per n

    def test_no_scalar_call(self, monkeypatch):
        # A in [1, 3] at tight tol is where the ladder at T = max(ceil A, 2)
        # misses tol/2 and T comes from tol; the reference is the window
        # oracle out to T = 512, far past any T the engine takes here, plus
        # the depth-8 ladder there
        A = np.concatenate(([1.0, 2.0, 3.0], np.linspace(1.0, 3.0, 37)))
        cases = [(n, q, tol) for n in (1, 2, 3, 4) for q in (1.0, 2.5, 3.0)
                 for tol in (1e-8, 1e-11, 1e-14)]
        ref = {}
        for n in (1, 2, 3, 4):
            for q in (1.0, 2.5, 3.0):
                tail, bound = _tail_at(n, q, 512, depth=8)
                assert bound < 1e-17
                ref[n, q] = [_window_integral(lambda t: bernoulli_tilde(n, t) * t ** (-q), a, 512.0)
                             + tail for a in A]

        def scalar(*args):
            raise AssertionError("_tilde_tail_vec called tilde_power_tail")

        monkeypatch.setattr(tails, "tilde_power_tail", scalar)
        for n, q, tol in cases:
            got = _tilde_tail_vec(n, q, A, np.full(A.size, tol))
            assert np.max(np.abs(got - ref[n, q])) <= tol, (n, q, tol)

    def test_blocks_do_not_change_values(self, monkeypatch):
        # about 24,000 panels, so dozens of blocks of _SUM_BLOCK // 32, against one block
        rng = np.random.default_rng(5)
        A = np.concatenate((rng.uniform(1.0, 3.0, 1500), rng.uniform(3.0, 400.0, 500)))
        tol = 10.0 ** rng.uniform(-14.0, -8.0, A.size)
        split = _tilde_tail_vec(2, 3.0, A, tol)
        monkeypatch.setattr(tails, "_SUM_BLOCK", 1 << 40)
        assert np.array_equal(split, _tilde_tail_vec(2, 3.0, A, tol))

    @pytest.mark.parametrize("tol", [1e-60, 1e-300])
    def test_absurd_tol_fails_by_name(self, tol, traced_peak):
        # T would be about 3e9 at 1e-60 and 3e49 at 1e-300, past the panel
        # budget: rejected by name before any window is built
        def reject(fn, *args):
            with pytest.raises(ValueError, match="tol"):
                fn(*args)

        for fn, args in ((tilde_power_tail, (2, 1.0, 1.0, tol)),
                         (_tilde_tail_vec, (2, 1.0, np.array([1.0, 5.5]), np.array([1e-8, tol])))):
            _, peak = traced_peak(reject, fn, *args)
            assert peak < 1 << 16

    # each of these would sum about 5.6e9 bulk panels or a remainder window
    # past T2 = 4e9 (tens of GiB); a count sized by tol is checked against
    # its cap before the work it sizes
    @pytest.mark.parametrize("fn,args", [
        (iterated.i0_eval, (0.5, 0.5, 1e-30)),
        (mixed_power_tail, (2.0, 0.7, 1e-40)),
        (iterated.k2_closed, (0.3, 0.6, iterated.K2Evaluator(1e-40))),
        (iterated.i_eval, (0.3, 0.6, 0.5, 1e-30)),
    ], ids=["i0_eval", "mixed_power_tail", "k2_closed", "i_eval"])
    def test_tiny_tol_fails_fast_by_name(self, fn, args, traced_peak):
        def reject():
            with pytest.raises(ValueError, match="tol"):
                fn(*args)

        t0 = time.perf_counter()
        _, peak = traced_peak(reject)
        assert time.perf_counter() - t0 < 1.0
        assert peak < 1 << 16

    # the library's ladder is the per-q oracle's at depth 6, exactly; the
    # oracle at `depth` agrees with it at T = 3 within the two bounds
    @pytest.mark.parametrize("n,q,depth", [(1, 1.0, 6), (2, 0.5, 6), (2, 1.0, 8), (3, 2.5, 6),
                                           (4, 3.0, 6), (1, 3.7, 4), (4, 1e-3, 6), (2, 17.25, 8)])
    def test_ladder_matches_per_q_polynomials(self, n, q, depth):
        terms, (bc, bq) = poly_ladder(n, q)
        e, d, c, p = _ladder_poly(n, q)
        assert np.array_equal(e, [1.0 - qi for _, qi in terms])
        assert np.array_equal(d, [ci / (qi - 1.0) for ci, qi in terms])
        assert (c, p) == (abs(bc) / (bq - 1.0), bq - 1.0)
        (v, b), (v_ref, b_ref) = _tail_at(n, q, 3), _tail_at(n, q, 3, depth)
        assert abs(v - v_ref) <= b + b_ref


class TestPeriodicPowerTail:
    # the by-parts ladder behind tilde_power_tail, evaluated at integer T
    def test_depth_consistency(self):
        v6, b6 = _tail_at(2, 2.0, 3)
        v8, b8 = _tail_at(2, 2.0, 3, depth=8)
        assert abs(v6 - v8) <= b6 + b8

    def test_shift_consistency(self):
        v3, b3 = _tail_at(2, 2.0, 3, depth=8)
        w = _window_integral(lambda t: bernoulli_tilde(2, t) * t**-2, 3.0, 6.0)
        v6, b6 = _tail_at(2, 2.0, 6, depth=8)
        assert abs(v3 - (w + v6)) <= b3 + b6 + 1e-14

    def test_q_one_zero_mean(self):
        # conditionally convergent case, only legal for zero-mean pieces
        v, b = _tail_at(1, 1.0, 5)
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


class TestZ:
    # the Hurwitz zeta, digamma and count rows of the drift-class sums,
    # against mpmath at 40 digits

    @staticmethod
    def points():
        rng = np.random.default_rng(2021)
        return np.concatenate([np.exp(rng.uniform(math.log(1 / 16384), math.log(1e15), 400)),
                               rng.uniform(1.0, 30.0, 120), np.arange(1.0, 17.0) / 16384])

    def test_rows_against_mpmath(self):
        x = self.points()
        z = tails._z(6, 7, x)  # rows sigma = 6, 5, ..., 0
        with mp.workdps(40):
            for row, sigma in enumerate(range(6, 1, -1)):
                ref = np.array([float(mp.zeta(sigma, mp.mpf(t))) for t in x])
                assert np.max(np.abs(z[row] / ref - 1.0)) <= 1e-15, sigma
            psi = np.array([float(mp.digamma(mp.mpf(t))) for t in x])
        assert np.max(np.abs(z[5] + psi) / np.maximum(1.0, np.abs(psi))) <= 1e-15
        assert np.array_equal(z[6], -x)

    def test_difference_is_the_power_sum(self):
        x = np.array([1.0 / 16384, 0.3, 1.0, 7.5, 123.25])
        for L in (1, 5, 40):
            head = sum((x + i) ** -np.arange(4.0, -1.0, -1.0)[:, None] for i in range(L))
            diff = tails._z(4, 5, x) - tails._z(4, 5, x + L)
            assert np.allclose(diff, head, rtol=1e-13, atol=1e-13), L

    def test_a_point_does_not_depend_on_the_others(self):
        x = self.points()
        for top, count in ((1, 1), (2, 3), (4, 5), (6, 3)):
            block = tails._z(top, count, x)
            for j in (0, 7, 311, x.size - 1):
                assert np.array_equal(block[:, j], tails._z(top, count, x[j:j + 1])[:, 0])

    # _z keeps its intermediates in one work buffer per thread, grown and reused

    def test_threads_do_not_share_a_buffer(self):
        # more threads than cores, each at its own size and exponents, under a
        # short switch interval; a shared buffer would mix their rows
        rng = np.random.default_rng(2302)
        jobs = [(6, 7, rng.uniform(0.001, 50.0, 4096)), (2, 3, rng.uniform(1.0, 9.0, 300)),
                (4, 5, rng.uniform(0.01, 1e6, 1500)), (1, 1, rng.uniform(1.0, 1e9, 5))]
        serial = [tails._z(*job) for job in jobs]
        same = {}  # a thread that raised leaves no entry

        def run(k):
            same[k] = all(np.array_equal(tails._z(*jobs[k]), serial[k]) for _ in range(40))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert same == {k: True for k in range(len(jobs))}

    def test_result_is_not_the_buffer(self):
        x = self.points()
        first = tails._z(4, 5, x)
        kept = first.copy()
        second = tails._z(4, 5, x + 1.0)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, tails._SCRATCH.buf)

    def test_buffer_is_reused(self):
        def sizes():
            x = self.points()
            tails._z(6, 7, x)
            buf = tails._SCRATCH.buf
            tails._z(6, 7, x + 0.5)
            tails._z(2, 3, x[:9])
            reused = tails._SCRATCH.buf is buf
            tails._z(6, 7, np.tile(x, 2))
            return reused, buf.size, tails._SCRATCH.buf.size

        out = []
        t = threading.Thread(target=lambda: out.append(sizes()))  # a fresh thread starts with none
        t.start()
        t.join(timeout=30.0)
        assert not t.is_alive()
        (reused, first, grown), = out
        assert reused and grown == 2 * first


class TestBatchedSeries:
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

    def test_empty_sums_build_no_classes(self, monkeypatch, traced_peak):
        # M < m0 in every column: zeros, before any class array or _z call;
        # 64 columns at q = 16384 would build class arrays of 8 MB each
        def no_z(*args):
            raise AssertionError("_z called")

        monkeypatch.setattr(tails, "_z", no_z)
        m0 = np.full(64, 10**9)
        args = (2, 2, np.ones(64, dtype=np.int64), np.full(64, 16384), np.full(64, 1e-5), m0, m0 - 1)
        out, peak = traced_peak(tails._drift_class_sums, *args)
        assert np.array_equal(out, np.zeros(64))
        assert peak < 1 << 16
        assert bn_series(2, math.pi, 2, 10**12, 1e-3) == 0.0  # its plan has M = m0 - 1

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
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be > 0"):
                bn_series(3, 2.5, 3.0, 1, tol)


def brute_mixed_tail(A, alpha, T):
    """int_A^T B~2(t) B~1(alpha t) t^-3 dt by Gauss-8, cut at the integers and every jump m/alpha.

    The oracle of TestMixedPowerTail past alpha = 4.  On a panel with
    midpoint c, B~2(t) = B_2(t - floor c) and B~1(alpha t) = alpha t -
    floor(alpha c) - 1/2; the unit intervals are taken about 2^15 panels at
    a time.

    What it leaves out past T is within brute_tail_bound(alpha, T): with
    B~1(alpha t) = d/dt B~2(alpha t)/(2 alpha), one integration by parts on
    the fast factor gives

      int_T^inf B~2(t) B~1(alpha t) t^-3 dt = -B~2(T) B~2(alpha T)/(2 alpha T^3)
          - (1/(2 alpha)) int_T^inf B~2(alpha t) (2 B~1(t) t^-3 - 3 B~2(t) t^-4) dt,

    and |B~2| <= 1/6, |B~1| <= 1/2 bound the boundary term by
    1/(72 alpha T^3) and the integral by 1/(24 alpha T^2) + 1/(72 alpha T^3).
    """
    x, w = gauss_legendre(8)
    total, step = 0.0, max(1, int(2**15 / alpha))
    for k in range(math.floor(A), math.ceil(T), step):
        lo, hi = max(A, k), min(T, k + step)
        jumps = np.arange(math.floor(alpha * lo) + 1, math.ceil(alpha * hi)) / alpha
        cuts = np.unique(np.concatenate(([lo, hi], np.arange(k + 1, k + step), jumps)))
        cuts = cuts[(lo <= cuts) & (cuts <= hi)]
        half = 0.5 * np.diff(cuts)
        mid = cuts[:-1] + half
        t = mid[:, None] + half[:, None] * x
        u = t - np.floor(mid)[:, None]
        b1 = alpha * t - (np.floor(alpha * mid) + 0.5)[:, None]
        total += float(half @ (((u * (u - 1.0) + 1.0 / 6.0) * b1 / (t * t * t)) @ w))
    return total


def brute_tail_bound(alpha, T):
    """Bound on |int_T^inf B~2(t) B~1(alpha t) t^-3 dt|, the part brute_mixed_tail leaves out."""
    return 1.0 / (24.0 * alpha * T**2) + 1.0 / (36.0 * alpha * T**3)


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
            for alpha in (1.0, 0.7, 0.3125, 0.05, 1.5, math.pi, 3.2, 10.0):
                mine = mixed_power_tail(A, alpha, tol=1e-11)
                ref, slack = oracle(A, alpha)
                assert abs(mine - ref) <= slack + 2e-11, (A, alpha)

    @pytest.mark.parametrize("alpha", [100.0, 333.3, 1000.0])
    def test_meets_tol_past_the_level_orders(self, alpha):
        # alpha > 4: the pure tails' errors are multiplied by alpha/n; T is
        # the least integer where the oracle's tail past T is within tol/100
        # at tol 1e-8
        T = math.ceil(math.sqrt(100.0 / (24.0 * alpha * 1e-8)))
        while brute_tail_bound(alpha, T) > 1e-10:
            T += 1
        whole = brute_mixed_tail(1.0, alpha, T)
        ref = {1.0: whole, 2.7: whole - brute_mixed_tail(1.0, alpha, 2.7)}
        for A in (1.0, 2.7):
            for tol in (1e-6, 1e-8):
                err = abs(mixed_power_tail(A, alpha, tol) - ref[A])
                assert err <= tol, (A, tol, err / tol)

    def test_frozen_values(self):
        assert mixed_power_tail(1.37, 0.3125, tol=1e-12) == pytest.approx(
            0.0008528329737546515, abs=1e-11
        )
        assert mixed_power_tail(2.0, 1.0, tol=1e-12) == pytest.approx(
            -0.0006832601035802469, abs=1e-11
        )

    def test_rejects_bad_arguments(self):
        # alpha > 1 is in the domain; infinite or negative alpha is not
        with pytest.raises(ValueError):
            mixed_power_tail(0.5, 0.5)
        for alpha in (math.inf, -1.0):
            with pytest.raises(ValueError, match="alpha in"):
                mixed_power_tail(2.0, alpha)
        for A in (math.nan, math.inf):
            with pytest.raises(ValueError, match="A >= 1"):
                mixed_power_tail(A, 0.5)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be > 0"):
                mixed_power_tail(2.0, 0.5, tol)
        for alpha in ([0.5, math.inf], [0.0, 0.5], [0.5, math.nan], [[0.5]]):
            with pytest.raises(ValueError, match="alpha in"):
                mixed_power_tail(2.0, np.array(alpha))


def remainder_window_oracle(A, T2, alpha, m0):
    """mixed_power_tail's window int_A^T2 B~4(t) B~1(alpha t) t^-5 dt on per-column panels: the window oracle.

    The library's window before its B~1 factor was split: each column's
    panels are cut at the integers and at its own jumps m/alpha, and take
    tails._UNIT[8] (Gauss-8 on each half); cuts that coincide leave
    zero-width panels, which carry zero weight.  Independent of the split
    in tails._remainder_windows: B~1 is evaluated on every node.
    """
    k0, k1 = math.floor(A) + 1, math.ceil(T2) - 1
    base = np.concatenate(([A, T2], np.arange(k0, k1 + 1, dtype=float)))
    m_hi = np.floor(alpha * T2).astype(np.int64)
    n_jump = np.maximum(m_hi - m0 + 1, 0)
    out = np.zeros(alpha.shape)
    # every cut adds a panel of 16 nodes
    for sl in tails._column_blocks(base.size + n_jump, tails._SUM_BLOCK // 16):
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
        lo, width, pc = cuts[:-1][same], np.diff(cuts)[same], owner[1:][same]
        t = lo[:, None] + width[:, None] * tails._UNIT[8].nodes
        f = bernoulli_tilde(4, t) * bernoulli_tilde(1, al[pc][:, None] * t) * t**-5
        out[sl] = np.bincount(pc, weights=width * (f * tails._UNIT[8].weights).sum(axis=1),
                              minlength=ncol)
    return out


def _window_args(A, alpha, tol):
    """(T2, m0) of mixed_power_tail(A, alpha, tol)'s window."""
    T2 = max(math.ceil(A) + 1, math.ceil((7.0 / (240.0 * tol)) ** 0.25))
    return float(T2), np.floor(alpha * A).astype(np.int64) + 1


class TestRemainderWindow:
    # the window splits B~1(alpha t) = alpha t - 1/2 - floor(alpha t) into
    # column-free integrals and one partial panel per jump

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_matches_window_oracle(self, tol):
        alpha = np.geomspace(1e-3, 1e3, 25)
        for A in (1.0, 2.3, 7.7, 50.2):
            T2, m0 = _window_args(A, alpha, tol)
            got = tails._remainder_windows(A, T2, alpha, m0)
            ref = remainder_window_oracle(A, T2, alpha, m0)
            assert np.max(np.abs(got - ref)) <= 1e-12, A

    def test_matches_mpmath(self):
        # on [1, 2] a full Gauss-8-on-halves panel is 2.5e-13 off for
        # B~4 t^-5, which the oracle carries; the split window is within
        # 1e-15 of a 25-digit reference cut at the integers and the jumps
        A, T2 = 1.0, 6.0
        for al in (0.1, 1.0, math.pi, 12.5):
            m0 = math.floor(al * A) + 1
            jumps = [m / al for m in range(m0, math.floor(al * T2) + 1)]
            cuts = sorted({A, T2, *range(2, 6), *(j for j in jumps if A < j < T2)})
            with mp.workdps(25):
                def f(t):
                    u = t - mp.floor(t)
                    return ((u**4 - 2 * u**3 + u**2 - mp.mpf(1) / 30)
                            * (al * t - mp.floor(al * t) - mp.mpf(1) / 2) * t**-5)
                ref = sum(mp.quad(f, [a, (a + b) / 2, b]) for a, b in zip(cuts[:-1], cuts[1:]))
            got = tails._remainder_windows(A, T2, np.array([al]), np.array([m0]))[0]
            assert abs(got - float(ref)) <= 1e-15, al

    def test_one_column_equals_its_column_of_200(self):
        # 200 columns, whose jumps fill dozens of blocks, against one-column calls
        alpha = np.geomspace(1e-3, 100.0, 200)
        np.random.default_rng(200).shuffle(alpha)
        A = 2.3
        T2, m0 = _window_args(A, alpha, 1e-8)
        row = tails._remainder_windows(A, T2, alpha, m0)
        for j in range(alpha.size):
            one = tails._remainder_windows(A, T2, alpha[j:j + 1], m0[j:j + 1])
            assert one[0] == row[j], j


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

    def test_tol_below_the_float_range_fails_by_name(self):
        # tol/x^(-s-1) = 1e-311 once overflowed 2c/tol with a RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tol .* needs more than"):
                kernel_moment(1e-150, 1.0)
            with pytest.raises(ValueError, match="tol .* needs more than"):
                tilde_power_tail(2, 2.0, 3.0, 1e-320)

    def test_rejects_bad_arguments(self):
        for s in (math.inf, math.nan, -1.5):
            with pytest.raises(ValueError, match="s >= -1"):
                kernel_moment(0.5, s)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be > 0"):
                kernel_moment(0.5, 1.0, tol)

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
