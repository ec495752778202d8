import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernel_spectra.bernoulli import _B_POLY, bernoulli_tilde, frac, log_factorial
from kernel_spectra.quadrature import composite_rule
from kernel_spectra.tails import _piece_values

# extrema of the periodic evaluators on [0, 1): |B~3| <= 1/(12 sqrt 3), and
# B~4 ranges over [-1/30, 7/240]
B3_MAX = 1.0 / (12.0 * math.sqrt(3.0))
B4_MIN = -1.0 / 30.0
B4_MAX = 7.0 / 240.0


def hand_written(order, u):
    """The four branches bernoulli_tilde had before the table, at u in [0, 1): its oracle."""
    if order == 1:
        return u - 0.5
    if order == 2:
        return u * u - u + 1.0 / 6.0
    if order == 3:
        return u * (u * (u - 1.5) + 0.5)
    u2 = u * u
    return u2 * (u2 - 2.0 * u + 1.0) - 1.0 / 30.0


class TestFrac:
    def test_point_values(self):
        assert frac(2.5) == 0.5
        assert frac(3.0) == 0.0
        assert frac(-0.25) == 0.75

    def test_integers_exact_zero(self):
        for k in range(-5, 6):
            assert frac(float(k)) == 0.0

    def test_nonfinite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                frac(bad)

    def test_array_input(self):
        out = frac(np.array([2.5, 3.0, -0.25]))
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.75])

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range(self, t):
        u = frac(t)
        assert 0.0 <= u < 1.0


class TestBernoulliTilde:
    def test_point_values(self):
        assert bernoulli_tilde(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert bernoulli_tilde(2, 0.5) == pytest.approx(-1.0 / 12.0, abs=1e-15)
        assert bernoulli_tilde(3, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert bernoulli_tilde(1, 0.25) == pytest.approx(-0.25, abs=1e-15)
        assert bernoulli_tilde(4, 0.0) == pytest.approx(-1.0 / 30.0, abs=1e-15)

    def test_bad_order(self):
        for n in (0, 5, -1, 2.5):
            with pytest.raises(ValueError):
                bernoulli_tilde(n, 0.3)

    def test_periodicity_random(self):
        # spec asks for 10^3 random t; shifting by 1 changes {t} only in
        # the last ulp, so compare loosely in absolute terms
        rng = np.random.default_rng(1234)
        t = rng.uniform(-50.0, 50.0, 1000)
        for n in (1, 2, 3, 4):
            np.testing.assert_allclose(
                bernoulli_tilde(n, t + 1.0), bernoulli_tilde(n, t), atol=5e-14
            )

    def test_extrema_on_dense_grid(self):
        t = np.linspace(0.0, 1.0, 200001, endpoint=False)
        assert np.max(np.abs(bernoulli_tilde(1, t))) <= 0.5
        assert np.max(np.abs(bernoulli_tilde(2, t))) <= 1.0 / 6.0 + 1e-15
        assert np.max(np.abs(bernoulli_tilde(3, t))) <= B3_MAX + 1e-12
        b4 = bernoulli_tilde(4, t)
        assert np.min(b4) >= B4_MIN - 1e-15
        assert np.max(b4) <= B4_MAX + 1e-15

    def test_table_extrema(self):
        assert np.max(np.abs(_piece_values(_B_POLY[3]))) == pytest.approx(B3_MAX, rel=1e-14)
        b4 = _piece_values(_B_POLY[4])
        assert np.min(b4) == pytest.approx(B4_MIN, rel=1e-14)
        assert np.max(b4) == pytest.approx(B4_MAX, rel=1e-14)

    def test_matches_hand_written_forms(self):
        t = np.linspace(-3.0, 3.0, 600001)
        u = frac(t)
        for n in (1, 2, 3, 4):
            assert np.max(np.abs(bernoulli_tilde(n, t) - hand_written(n, u))) <= 1e-16, n

    def test_b3_max_attained(self):
        # the sup 1/(12 sqrt 3) is attained at {t} = 1/2 - 1/(2 sqrt 3)
        t_star = 0.5 - 0.5 / math.sqrt(3.0)
        assert bernoulli_tilde(3, t_star) == pytest.approx(B3_MAX, rel=1e-12)

    def test_antiderivative_of_b1(self):
        # int_a^b B~1 = (B~2(b) - B~2(a)) / 2, with panels split at the
        # integers so the sawtooth is smooth on every panel
        for a, b in [(0.2, 0.9), (0.5, 3.25), (1.1, 4.7), (0.0, 1.0)]:
            interior = np.arange(math.ceil(a), math.floor(b) + 1, dtype=float)
            cuts = np.unique(np.concatenate(([a], interior, [b])))
            rule = composite_rule(cuts, 8)
            lhs = rule.integrate(lambda t: bernoulli_tilde(1, t))
            rhs = 0.5 * (bernoulli_tilde(2, b) - bernoulli_tilde(2, a))
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_higher_antiderivatives(self):
        # d/dt B~3 = 3 B~2 and d/dt B~4 = 4 B~3 in integrated form
        for a, b in [(0.3, 0.8), (1.2, 2.9)]:
            interior = np.arange(math.ceil(a), math.floor(b) + 1, dtype=float)
            cuts = np.unique(np.concatenate(([a], interior, [b])))
            rule = composite_rule(cuts, 8)
            i2 = rule.integrate(lambda t: bernoulli_tilde(2, t))
            assert i2 == pytest.approx(
                (bernoulli_tilde(3, b) - bernoulli_tilde(3, a)) / 3.0, abs=1e-13
            )
            i3 = rule.integrate(lambda t: bernoulli_tilde(3, t))
            assert i3 == pytest.approx(
                (bernoulli_tilde(4, b) - bernoulli_tilde(4, a)) / 4.0, abs=1e-13
            )


class TestLogFactorial:
    def test_small_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_million(self):
        # frozen oracle: direct summation of log k for k = 1..10^6
        assert log_factorial(10**6) == pytest.approx(12815518.384658169, rel=1e-13)

    def test_against_lgamma_sweep(self):
        for n in [2, 17, 100, 255, 256, 257, 300, 1000, 12345, 10**7]:
            exact = math.lgamma(n + 1.0)
            assert abs(log_factorial(n) - exact) <= 1e-13 * abs(exact) + 1e-14

    def test_branch_agreement_at_threshold(self):
        # summation below, Stirling above; the seam must be invisible
        below = log_factorial(256)
        above = log_factorial(257)
        assert above - below == pytest.approx(math.log(257.0), rel=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            log_factorial(-1)
        with pytest.raises(ValueError):
            log_factorial(2.5)

    @given(st.integers(min_value=0, max_value=5000))
    def test_monotone_and_matches_lgamma(self, n):
        v = log_factorial(n)
        assert abs(v - math.lgamma(n + 1.0)) <= 1e-13 * max(1.0, abs(v))
