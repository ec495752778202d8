import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_spectra.bernoulli import log_factorial
from kernel_spectra.tails import kernel_moment
from kernel_spectra.zeta import (
    em_identity_residual,
    euler_limit_residual,
    hankel_apply,
    laplace_h_residual,
    stirling_alt_residual,
    _partial_sum_rhs,
    _zeta_em,
    zeta,
    zeta_connect_residual,
)


def zeta_alternating(s: float, terms: int = 60) -> float:
    """Globally convergent alternating-binomial zeta, independent oracle.

    zeta(s) = 1/(1 - 2^(1-s)) * sum_k 2^(-k-1) sum_j (-1)^j C(k,j) (j+1)^(-s),
    good to ~1e-13 for the moderate s used here.
    """
    total = 0.0
    for k in range(terms):
        inner = sum(
            (-1) ** j * math.comb(k, j) * (j + 1.0) ** (-s) for j in range(k + 1)
        )
        total += inner / 2.0 ** (k + 1)
    return total / (1.0 - 2.0 ** (1.0 - s))


class TestZetaValues:
    def test_basel(self):
        assert abs(zeta(2.0) - math.pi**2 / 6.0) < 1e-12

    def test_at_zero(self):
        assert abs(zeta(0.0) + 0.5) < 1e-12

    def test_apery(self):
        # direct summation oracle: 4000 terms plus integral tail bracket
        n = np.arange(1, 4001, dtype=float)
        head = float(np.sum(n**-3.0))
        tail_mid = 0.5 * (1.0 / 4000.0**2 + 1.0 / 4001.0**2) / 2.0
        assert abs(zeta(3.0) - (head + tail_mid)) < 1e-8
        assert zeta(3.0) == pytest.approx(1.2020569031595943, abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 3.0, 0.99, 1.01, 8.0])
    def test_against_alternating_oracle(self, s):
        assert abs(zeta(s) - zeta_alternating(s)) < 1e-11
        assert abs(zeta(s) - float(mp.zeta(s))) <= 1e-13

    def test_against_mpmath(self):
        # relative error within 1e-14 at 600 seeded s in [0, 8], |s - 1| >= 0.01
        rng = np.random.default_rng(2102)
        s = rng.uniform(0.0, 8.0, 1000)
        s = s[np.abs(s - 1.0) >= 0.01][:600]
        s = np.concatenate([s, [0.0, 5e-324, 1e-300, 0.99, 1.01, 8.0]])
        with mp.workdps(40):
            rel = [abs(zeta(t) / mp.zeta(mp.mpf(t)) - 1) for t in s.tolist()]
        assert max(rel) <= 1e-14

    def test_hurwitz_against_mpmath(self):
        # zeta(d + 1, N + 1) as zeta_connect_residual forms it, d exact, N up to 1e9
        rng = np.random.default_rng(2201)
        d = rng.uniform(0.25, 3.0, 300)
        n = np.floor(10.0 ** rng.uniform(0.0, 9.0, 300))
        with mp.workdps(40):
            rel = [abs(_zeta_em(a + 1.0, a, b + 1.0) / mp.zeta(mp.mpf(a) + 1, b + 1.0) - 1)
                   for a, b in zip(d.tolist(), n.tolist())]
        assert max(rel) <= 1e-15

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            zeta(1.0)

    def test_range_rejected(self):
        with pytest.raises(ValueError, match=r"zeta requires s >= 0, got s = -1e-300"):
            zeta(-1e-300)
        with pytest.raises(ValueError, match="zeta requires s >= 0, got s = nan"):
            zeta(math.nan)
        # the residuals' and the moment's exponents are checked where they enter
        with pytest.raises(ValueError, match="zeta_connect_residual requires s > 0"):
            zeta_connect_residual(math.nan, 0.5)
        with pytest.raises(ValueError, match="em_identity_residual requires s >= 0"):
            em_identity_residual(math.nan, 0.5)
        with pytest.raises(ValueError, match="laplace_h_residual requires s > 0"):
            laplace_h_residual(math.nan)
        with pytest.raises(ValueError, match="kernel_moment requires s >= -1"):
            kernel_moment(0.5, math.nan)


class TestPartialSumConnection:
    # kernel moment vs zeta partial sum, both sides independent routes
    @pytest.mark.parametrize("s,x", [(1.0, 0.3), (0.5, 0.7), (2.0, 0.45)])
    def test_residual_small(self, s, x):
        assert zeta_connect_residual(s, x) < 1e-8

    def test_euler_limit(self):
        assert euler_limit_residual(0.4) < 1e-6

    @given(st.floats(0.2, 3.0), st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_residual_everywhere(self, s, x):
        assert zeta_connect_residual(s, x) < 1e-7

    @pytest.mark.parametrize("fn,args", [(zeta_connect_residual, (1.0, 1e-6)),
                                         (euler_limit_residual, (1e-6,))],
                             ids=["zeta_connect_residual", "euler_limit_residual"])
    def test_harmonic_sum_in_blocks(self, fn, args, traced_peak):
        # 1e6 harmonic terms once took two 8 MB arrays; now a block at a time
        value, peak = traced_peak(fn, *args)
        assert value < 1e-12
        assert peak < 1 << 20

    @pytest.mark.parametrize("x", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("fn,args", [(zeta_connect_residual, (1.0,)), (euler_limit_residual, ())],
                             ids=["zeta_connect_residual", "euler_limit_residual"])
    def test_small_x_meets_tol(self, fn, args, x):
        # the partial sums are Hurwitz zeta and digamma at floor(1/x) + 1, so
        # the cost does not grow with 1/x; 1e9 summed terms once raised
        value = fn(*args, x, 1e-10)
        t0 = time.perf_counter()
        fn(*args, x, 1e-10)
        assert time.perf_counter() - t0 < 0.01
        assert value <= 1e-10

    @pytest.mark.parametrize("s", [1e-9, 1e-11, 1e-14])
    def test_small_s_meets_tol(self, s):
        # zeta(s+1, N+1) and x^s/s, both about 1/s, subtracted as formed were
        # 8.4e-9 and 7.6e-6 off at s = 1e-9 and 1e-11
        assert zeta_connect_residual(s, 0.5, 1e-10) <= 1e-10

    @pytest.mark.parametrize("fn,args", [(euler_limit_residual, (5e-324,)),
                                         (kernel_moment, (1e-80, 3.0)),
                                         (kernel_moment, (1e-300, 0.5)),
                                         (kernel_moment, (5e-324, 0.0)),
                                         (kernel_moment, (5e-324, -1.0)),
                                         (em_identity_residual, (0.0, 5e-324))],
                             ids=["subnormal_x", "moment_s3", "moment_s0.5", "moment_subnormal_s0",
                                  "moment_subnormal_s-1", "em_identity_subnormal"])
    def test_tiny_x_fails_fast_by_name(self, fn, args, traced_peak):
        # x^(-s-1) or 1/x overflows; these once raised OverflowError, or a
        # ValueError naming the tail's lower limit
        def reject():
            with pytest.raises(ValueError, match=r"x = .* is too small"):
                fn(*args)

        t0 = time.perf_counter()
        _, peak = traced_peak(reject)
        assert time.perf_counter() - t0 < 1.0
        assert peak < 1 << 16


_RHS_RNG = np.random.default_rng(2801)
_RHS_SEEDED = list(zip((3.0 * _RHS_RNG.random(60)).tolist(), (0.01 * 100.0 ** _RHS_RNG.random(60)).tolist()))
# 1/10 rounds up, so that floor(1/x) is 9 while 1/x rounds to 10; 1/3 and 1/7 round down
_RHS_EDGES = [(s, x) for s in (0.0, 1e-12, 1e-9, 0.5, 2.5) for x in (0.01, 0.37, 1.0, 1 / 3, 1 / 7, 1 / 10)]
# laplace_h_residual's s - 1 at s >= 1/2
_RHS_EDGES += [(s, 1.0) for s in (-0.5, -0.2, -1e-6, -1e-9, 2.77072931e-7)]


class TestPartialSumRhs:
    # the right side that every scaling of the partial-sum identity shares,
    # against the bench's 40-digit spot-check formula with floor(1/x) taken
    # once and exactly
    @pytest.mark.parametrize("s,x", _RHS_SEEDED + _RHS_EDGES)
    def test_against_mpmath(self, s, x):
        with mp.workdps(40):
            X, S = mp.mpf(x), mp.mpf(s)
            n = int(mp.floor(1 / X))
            k1 = mp.mpf(1) / 2 + n - 1 / X
            partial = mp.fsum(mp.mpf(k) ** (-S - 1) for k in range(1, n + 1))
            if s == 0.0:
                exact = mp.euler - partial + mp.log(1 / X) + X * k1
            else:
                exact = mp.zeta(S + 1) - partial - X**S / S + X ** (S + 1) * k1
            err = abs(_partial_sum_rhs(s, x) - exact)
            assert err <= 1e-14
            # em_identity_residual divides by (s+1) x^(s+1): 8.5e-14 at s = 0, x = 0.01
            assert err <= 2e-13 * X ** (S + 1)


class TestStirlingForm:
    def test_interior_point(self):
        assert stirling_alt_residual(0.3, 1e-6) < 1e-3

    def test_at_one(self):
        assert stirling_alt_residual(1.0, 1e-6) < 1e-3

    def test_rhs_encodes_zeta_prime_at_zero(self):
        # at x = 1 the right side collapses to 1 - (1/2) log(2 pi)
        rhs = log_factorial(1) - 1.0 * math.log(1.0) + 1.0 - 0.5 * math.log(2.0 * math.pi)
        assert abs(rhs - (1.0 - 0.5 * math.log(2.0 * math.pi))) < 1e-15

    @pytest.mark.parametrize("x", [0.3, 1.0])
    def test_eps_refinement(self, x):
        r1 = stirling_alt_residual(x, 1e-6)
        r2 = stirling_alt_residual(x, 5e-7)
        assert r2 <= 2.0 * r1 + 1e-12

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            stirling_alt_residual(0.3, 0.5)

    def test_eps_below_the_float_range_fails_by_name(self):
        # x eps underflows to 0, and 1/(x eps) once raised ZeroDivisionError
        with pytest.raises(ValueError, match=r"eps = .* is too small"):
            stirling_alt_residual(1e-300, 1e-305)

    @pytest.mark.parametrize("x", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_small_x_meets_tol(self, x):
        # the right side is k2_diag_exact's Stirling bracket; its plain form
        # cancels, 6.8e-10 off at x = 1e-6 and 5.9e-7 at 1e-9
        assert stirling_alt_residual(x, x * 1e-10, 1e-10) <= 1e-10
        if x == 1e-6:
            assert stirling_alt_residual(x, 1e-16, 1e-10) <= 1e-10


class TestLaplaceIdentity:
    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    def test_residual_small(self, s):
        assert laplace_h_residual(s) < 1e-8

    def test_pole(self):
        with pytest.raises(ValueError):
            laplace_h_residual(1.0)

    @pytest.mark.parametrize("s", [1.000000277072931, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 1e-9])
    def test_near_pole_meets_tol(self, s):
        # (8 e_8 + 7)/(s - 1) divided a numerator that cancels at s = 1:
        # 1.5e-9, 5.0e-10, 1.6e-10 and 2.1e-7 off at these s
        assert laplace_h_residual(s, 1e-10) <= 1e-10

    @pytest.mark.parametrize("s", [1e-7, 1e-10, 1e-14])
    def test_small_s_meets_tol(self, s):
        # (zeta(s) - 1/(s-1) - 1/2)/s formed as written was 1.4e-8, 4.8e-6
        # and 0.048 off at these s
        assert laplace_h_residual(s, 1e-10) <= 1e-10

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    def test_connect_consistency_at_x_one(self, s):
        # the x = 1 partial-sum residual is s times the Laplace residual
        conn = zeta_connect_residual(s - 1.0, 1.0) if s > 1.0 else None
        lap = laplace_h_residual(s)
        if conn is not None:
            assert abs(conn - s * lap) < 1e-9
        else:
            # s - 1 <= 0 sits outside the connect op's domain; only the
            # Laplace side is defined there
            assert lap < 1e-8


class TestEulerMaclaurinAction:
    @pytest.mark.parametrize("s,x", [(0.0, 0.5), (2.0, 0.3)])
    def test_residual_small(self, s, x):
        assert em_identity_residual(s, x) < 1e-8

    @pytest.mark.parametrize("s", [0.0, 1e-12, 1e-9, 2.5926933011463254e-07, 1e-4, 0.5, 2.0])
    def test_small_s_meets_tol(self, s):
        # the panel integrals once took (n^-s - (n+1)^-s)/s, which cancels for
        # small s > 0: the three small s gave 6.4e-4, 1.4e-7 and 2.0e-9 here
        assert em_identity_residual(s, 0.09078293836885498, 1e-10) <= 1e-10

    def test_rearrangement_matches_connect(self):
        # same identity up to multiplying by (s+1) x^(s+1)
        s, x = 0.7, 0.37
        conn = zeta_connect_residual(s, x, tol=1e-11)
        em = em_identity_residual(s, x, tol=1e-11)
        assert abs(conn - (s + 1.0) * x ** (s + 1.0) * em) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            em_identity_residual(-0.5, 0.5)

    def test_memory_bounded(self, traced_peak):
        # x = 0.01, s = 0 once summed 4e5 trapezoid defects; the closed-form
        # right side and the moment's tail windows now hold it far below this
        resid, peak = traced_peak(em_identity_residual, 0.0, 0.01)
        assert peak < 4e6
        assert resid < 1e-9


class TestHankelForm:
    @pytest.mark.parametrize("u", [0.0, 0.5, 2.0])
    def test_dual_route(self, u):
        # f(y) = y in x-domain is F(v) = e^(-3v/2) in log-domain
        g_log = hankel_apply(lambda v: np.exp(-1.5 * v), u)
        x = math.exp(-u)
        g_x = math.sqrt(x) * kernel_moment(x, 1.0, 1e-12)
        assert abs(g_log - g_x) < 1e-6

    def test_zero_function(self):
        assert hankel_apply(lambda v: np.zeros_like(v), 1.0) == 0.0

    def test_large_u_tail_bound(self):
        u, V = 25.0, 40.0
        g = hankel_apply(lambda v: np.exp(-1.5 * v), u, V=V)
        # |h(w)| <= e^(-w/2)/2, Cauchy-Schwarz on [0, V]
        norm_h = 0.5 * math.exp(-0.5 * u) * math.sqrt((1.0 - math.exp(-V)) / 1.0)
        norm_f = math.sqrt((1.0 - math.exp(-3.0 * V)) / 3.0)
        assert abs(g) <= norm_h * norm_f

    def test_validation(self):
        with pytest.raises(ValueError):
            hankel_apply(lambda v: v, -1.0)
        with pytest.raises(ValueError):
            hankel_apply(lambda v: v, 1.0, V=0.0)
        with pytest.raises(ValueError, match="u must be nonnegative"):
            hankel_apply(lambda v: v, math.nan)
        with pytest.raises(ValueError, match="V must be positive"):
            hankel_apply(lambda v: v, 0.0, V=math.nan)
        with pytest.raises(ValueError, match="V must be positive and finite"):
            hankel_apply(lambda v: v, 0.0, V=math.inf)
        with pytest.raises(ValueError, match="u must be nonnegative and finite"):
            hankel_apply(lambda v: v, math.inf)

    def test_huge_V_fails_fast_by_name(self, traced_peak):
        # the 0.1-wide panel grid at V = 1e9 would ask for 74.5 GiB
        def reject():
            with pytest.raises(ValueError, match=r"V = 1e\+09 needs more than"):
                hankel_apply(lambda v: v, 0.0, V=1e9)

        t0 = time.perf_counter()
        _, peak = traced_peak(reject)
        assert time.perf_counter() - t0 < 1.0
        assert peak < 1 << 16
