import math

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

    @pytest.mark.parametrize("s", [0.5, -0.5, 1.5, 2.5, 3.0, -0.9, 0.99, 1.01, 8.0])
    def test_against_alternating_oracle(self, s):
        assert abs(zeta(s) - zeta_alternating(s)) < 1e-11
        assert abs(zeta(s) - float(mp.zeta(s))) <= 1e-13

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            zeta(1.0)

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            zeta(-1.5)
        with pytest.raises(ValueError, match="s > -1"):
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


class TestLaplaceIdentity:
    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    def test_residual_small(self, s):
        assert laplace_h_residual(s) < 1e-8

    def test_pole(self):
        with pytest.raises(ValueError):
            laplace_h_residual(1.0)

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

    def test_rearrangement_matches_connect(self):
        # same identity up to multiplying by (s+1) x^(s+1)
        s, x = 0.7, 0.37
        conn = zeta_connect_residual(s, x, tol=1e-11)
        em = em_identity_residual(s, x, tol=1e-11)
        assert abs(conn - (s + 1.0) * x ** (s + 1.0) * em) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            em_identity_residual(-0.5, 0.5)


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
