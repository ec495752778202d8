import math
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_spectra import tails
from kernel_spectra.bernoulli import bernoulli_tilde
from kernel_spectra.iterated import (
    DIAGONAL_BOUND,
    OFF_DIAGONAL_BOUND,
    _B2_TAIL_SUP,
    K2Evaluator,
    _k2_row,
    i0_eval,
    i_eval,
    k2_closed,
    k2_diag_exact,
    k2_quadrature,
)
from kernel_spectra.kernel import k_eval
from kernel_spectra.quadrature import composite_rule, uniform_rule
from kernel_spectra.tails import _tilde_tail_vec, b2_series, mixed_power_tail, tilde_power_tail

LOG_2PI_MINUS_74 = math.log(2.0 * math.pi) - 1.75


def _closed_literal(x: float, y: float, tol: float) -> float:
    """The closed form with plain truncations in place of certified tails.

    The series stops at M = ceil(1/(6 tol)) (tail <= 1/(6 M)) and is summed
    term by term, a block at a time; the integrals stop at T = 1e4 (tail
    <= 1/(24 T^2) = 4.2e-10).  The independent oracle of k2_closed in
    TestCornerValue::test_literal_truncations and
    TestRouteAgreement::test_literal_route_agrees.
    """
    A = 1.0 / x
    beta = y / x
    T = 1e4
    if A >= T:
        raise ValueError("the literal route needs 1/x below its truncation T = 1e4")
    base = np.arange(math.ceil(A), T + 0.5)
    # the second row's factor jumps where x t / y = t / beta is an integer
    jumps = beta * np.arange(math.ceil(A / beta), math.floor(T / beta) + 1.0)
    cuts = np.unique(np.concatenate(([A, T], base, jumps)))
    cuts = cuts[(cuts >= A) & (cuts <= T)]
    rule = composite_rule(cuts, 8)
    i1 = rule.integrate(
        lambda t: bernoulli_tilde(2, t) * bernoulli_tilde(1, t / beta) * t**-3
    )
    rule2 = composite_rule(np.unique(np.concatenate(([A, T], base))), 8)
    # B~2 has zero mean, so plain truncation at T leaves under T^-2/(36 sqrt 3)
    i2 = rule2.integrate(lambda t: bernoulli_tilde(2, t) * t**-2)
    m0 = math.floor(1.0 / y) + 1
    m_hi = m0 + math.ceil(1.0 / (6.0 * tol))
    series = 0.0
    for b0 in range(m0, m_hi + 1, 1 << 16):
        m = np.arange(b0, min(b0 + (1 << 16), m_hi + 1), dtype=float)
        series += float(np.dot(bernoulli_tilde(2, m * beta), m**-2))
    t1 = -0.5 * x * bernoulli_tilde(2, A) * bernoulli_tilde(1, 1.0 / y)
    return t1 + i1 / x - 0.5 * i2 / y + 0.5 * x / (y * y) * series


class TestCornerValue:
    # all three routes must land on K2(1,1) = log(2 pi) - 7/4
    def test_closed(self):
        assert k2_closed(1.0, 1.0) == pytest.approx(LOG_2PI_MINUS_74, abs=1e-9)

    def test_quadrature(self):
        assert k2_quadrature(1.0, 1.0) == pytest.approx(LOG_2PI_MINUS_74, abs=1e-9)

    def test_diag_exact(self):
        assert k2_diag_exact(1.0) == pytest.approx(LOG_2PI_MINUS_74, abs=1e-12)

    def test_literal_truncations(self):
        assert _closed_literal(1.0, 1.0, 1e-7) == pytest.approx(LOG_2PI_MINUS_74, abs=1e-7)


class TestRouteAgreement:
    def test_closed_vs_quadrature_200_pairs(self):
        rng = np.random.default_rng(2024)
        pts = rng.uniform(0.05, 1.0, size=(200, 2))
        worst = 0.0
        for x, y in pts:
            d = abs(k2_closed(float(x), float(y)) - k2_quadrature(float(x), float(y)))
            worst = max(worst, d)
        assert worst < 1e-7

    def test_diag_exact_vs_closed_50_points(self):
        xs = np.linspace(0.02, 1.0, 50)
        worst = max(abs(k2_diag_exact(float(x)) - k2_closed(float(x), float(x)))
                    for x in xs)
        assert worst < 1e-7

    def test_literal_route_agrees(self):
        # same four-term formula with plain truncations instead of the
        # certified tail engine; slower, so only a handful of pairs
        for x, y in [(1.0, 1.0), (0.3, 0.7), (0.52, 0.52), (0.9, 0.17), (0.06, 0.98)]:
            assert _closed_literal(x, y, 1e-8) == pytest.approx(k2_closed(x, y), abs=1e-7)

    def test_frozen_point(self):
        # cross-validated against both independent routes at tol 1e-12
        ev = K2Evaluator(tol=1e-12)
        assert k2_closed(0.3, 0.7, ev) == pytest.approx(0.0014612307623524, abs=1e-11)
        assert k2_quadrature(0.3, 0.7, ev) == pytest.approx(0.0014612307623524, abs=1e-9)

    def test_diag_frozen_point(self):
        assert k2_diag_exact(0.5) == pytest.approx(0.08463721617836262, abs=1e-15)
        assert k2_closed(0.5, 0.5, K2Evaluator(tol=1e-12)) == pytest.approx(
            0.08463721617836262, abs=1e-11)

    @pytest.mark.parametrize("x", [1.0 / 300.0, 2.2e-3, 1e-3, 1e-4] + [
        1.0 / (n + f) for n in (10, 32, 33, 100, 256) for f in (0.1, 0.5, 0.9)])
    def test_diag_exact_small_x_mpmath(self, x):
        # the Stirling form from n = 33 on, where the plain bracket is up to
        # 2.1e-12 off (n = 33), 4.3e-10 (n = 256) and 8.9e-8 (x = 1e-4):
        # within 1e-12 past n = 256 and 2e-12 from n = 10
        with mp.workdps(50):
            X = mp.mpf(x)
            n = int(mp.floor(1 / X))
            bracket = n * mp.log(1 / X) - 1 / X + mp.log(2 * mp.pi / X) / 2 - mp.loggamma(n + 1)
            ref = (mp.mpf(1) / 2 + n - 1 / X) ** 2 + 2 * bracket / X
        assert abs(k2_diag_exact(x) - float(ref)) <= (1e-12 if n > 256 else 2e-12)

    def test_tight_tol_pairs(self):
        # at tol 1e-11 the rounding of the bulk's panel sum must stay below
        # tol: the 1.3e5/x panels of a cutoff eps = sqrt(6 tol) were 2.5e-10
        # off here
        ev = K2Evaluator(tol=1e-11)
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(0.02, 1.0, size=(16, 2)).tolist():
            assert abs(k2_quadrature(x, y, ev) - k2_closed(x, y, ev)) <= 2.0 * ev.tol

    def test_quadrature_rounding_floor(self):
        # below min(x, y) = sqrt(2e-14/tol) the bulk's rounding nears tol
        # (7.7e-8 at (1e-4, 1.01e-4), tol 1e-8): rejected by name; just above
        # it, at y/x = 1.37, the quadrature meets tol (at y/x = 1.001 it can
        # miss tol by 15% there; see k2_quadrature)
        for tol in (1e-7, 1e-8, 1e-11):
            ev = K2Evaluator(tol=tol)
            floor = math.sqrt(2e-14 / tol)
            for x, y in ((0.98 * floor, 1.0), (0.5, 0.98 * floor)):
                with pytest.raises(ValueError, match=r"min\(x, y\).*at tol.*got x"):
                    k2_quadrature(x, y, ev)
            assert k2_quadrature(0.0, 0.5 * floor, ev) == 0.0
        ev = K2Evaluator(tol=1e-8)
        x = 1.02 * math.sqrt(2e-14 / ev.tol)
        exact = k2_closed(x, 1.37 * x, K2Evaluator(tol=1e-12))
        assert abs(k2_quadrature(x, 1.37 * x, ev) - exact) <= ev.tol

    def test_quadrature_memory_bounded(self, traced_peak):
        # above eps = 2^-8 the denser row of x = 0.002 and 0.00202 has 1.3e5
        # unit intervals, 2.5e5 panels with the other row's jumps; they are
        # summed in blocks, so the peak stays far below that many floats
        for x, y in [(0.01, 0.0101), (0.002, 0.00202)]:
            quad, peak = traced_peak(k2_quadrature, x, y)
            assert peak < 4e6
            assert abs(quad - k2_closed(x, y)) <= 2.0 * K2Evaluator().tol


class TestSymmetry:
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_closed_symmetric(self, x, y):
        # arguments are canonicalized internally, so equality is exact
        assert k2_closed(x, y) == k2_closed(y, x)

    def test_quadrature_symmetric(self):
        rng = np.random.default_rng(7)
        for x, y in rng.uniform(0.05, 1.0, size=(20, 2)):
            assert k2_quadrature(float(x), float(y)) == k2_quadrature(float(y), float(x))


class TestBounds:
    def test_off_diagonal_grid(self):
        g = np.linspace(0.02, 1.0, 50)
        for x in g:
            for y in g:
                bound = OFF_DIAGONAL_BOUND * min(x, y) / max(x, y)
                assert abs(k2_closed(float(x), float(y))) <= bound

    def test_diagonal_grid(self):
        for x in np.linspace(0.02, 1.0, 50):
            assert abs(k2_closed(float(x), float(x)) - 1.0 / 12.0) <= DIAGONAL_BOUND * x

    def test_off_diagonal_small_x(self):
        assert abs(k2_closed(0.01, 0.9)) <= OFF_DIAGONAL_BOUND * (0.01 / 0.9)

    def test_diag_small_x_near_one_twelfth(self):
        assert abs(k2_diag_exact(0.001) - 1.0 / 12.0) <= DIAGONAL_BOUND * 0.001


class TestOriginDiscontinuity:
    def test_diagonal_and_ray_limits_separate(self):
        # along x = y = 1/n the values approach 1/12; along the ray
        # x = (5/16) y they stay near 0, so no limit exists at the origin
        a = 5.0 / 16.0
        diag = [k2_closed(1.0 / n, 1.0 / n) for n in range(2, 65)]
        ray = [abs(k2_closed(a / n, 1.0 / n)) for n in range(2, 65)]
        assert abs(diag[-1] - 1.0 / 12.0) < 0.01
        assert max(ray) <= (4.0 / 15.0) * a
        assert diag[-1] - max(ray) >= 0.01


class TestSawtoothSum:
    def test_integer_ratio_closed_form(self):
        # the closed form's series at x = y = 1 and x = y = 1/2: beta = 1, so
        # every term is B2(0)/m^2 = (1/6) m^-2, from m = floor(1/y) + 1
        zeta2 = math.pi**2 / 6.0
        assert b2_series(1.0, 2) == pytest.approx((zeta2 - 1.0) / 6.0, abs=1e-12)
        assert b2_series(1.0, 3) == pytest.approx(
            (zeta2 - 1.0 - 0.25) / 6.0, abs=1e-12)

    def test_series_integral_bound(self):
        # int_x^1 |sum_{m>1/y} B2~(m y/x) m^-2| dy/y^2 < 2/3
        for x in (0.1, 0.5, 0.9):
            ms = np.arange(math.floor(1.0 / x), 0, -1, dtype=float)
            cuts = np.unique(np.clip(np.concatenate(([x, 1.0], 1.0 / ms)), x, 1.0))
            rule = composite_rule(cuts, 8)
            vals = np.array(
                [abs(b2_series(y / x, math.floor(1.0 / y) + 1, 1e-9)) / y**2
                 for y in rule.nodes])
            assert float(np.dot(rule.weights, vals)) < 2.0 / 3.0


class TestMixedMoment:
    def test_identity(self):
        # (x/2) (K(1,x)^2 - K2(x,x)) = lim_{eps->0} int_eps^1 K(x,y) dy/y
        ev = K2Evaluator(tol=1e-10)
        eps = 1e-6
        for x in (0.3, 0.7):
            lhs = 0.5 * x * (k_eval(1.0, x) ** 2 - k2_closed(x, x, ev))
            # substituting u = 1/(xy) turns the integral into tail differences
            rhs = -(tilde_power_tail(1, 1.0, 1.0 / x, 1e-10)
                    - tilde_power_tail(1, 1.0, 1.0 / (x * eps), 1e-10))
            assert lhs == pytest.approx(rhs, abs=1e-4)


def _jump_cuts(scales, eps):
    """All points 1/(m*s) in (eps, 1) for each scale s, plus the ends."""
    pts = [np.array([eps, 1.0])]
    for s in scales:
        m = np.arange(1, int(math.floor(1.0 / (s * eps))) + 1, dtype=float)
        z = 1.0 / (m * s)
        pts.append(z[(z > eps) & (z < 1.0)])
    return np.unique(np.concatenate(pts))


def _swapped_integral(f, scales, eps):
    """int_eps^1 f(t) dt by Gauss-8 on the panels of _jump_cuts, 2^16 panels at a time.

    At w = 0.01 and eps = 1e-4 there are 1e6 cuts; blocks keep the node
    arrays small.
    """
    cuts = _jump_cuts(scales, eps)
    step = 1 << 16
    return sum(composite_rule(cuts[i:i + step + 1], 8).integrate(f)
               for i in range(0, cuts.size - 1, step))


def _i0_order_swapped(x, y, eps=1e-4):
    """Oracle: integrate over the kernel row first, then over z.

    int_0^x K2(z,y) dz = int_0^1 K(t,y) [int_0^x K(z,t) dz] dt, and the
    inner integral equals -(1/t) int_{1/(xt)}^inf B1~(u) u^-2 du exactly.
    Its only shared piece with i0_eval is the pure tail engine (inside
    i0_eval's mixed tail): the inner integral is a tail-engine call, not the
    closed-form Phi, and the t integral a Gauss-8 quadrature on [eps, 1],
    where i0_eval uses no quadrature at all.  Dropping (0, eps] costs at
    most x^2 eps^2 / 12.
    """
    def f(t):
        inner = -_tilde_tail_vec(1, 2.0, 1.0 / (x * t), np.full_like(t, 1e-12)) / t
        return -bernoulli_tilde(1, 1.0 / (t * y)) * inner

    return _swapped_integral(f, (y, x), eps)


def _i_order_swapped(x, y, w, eps=1e-4):
    """Oracle of i_eval as _i0_order_swapped is of i0_eval.

    The inner integral of K(z,t)/z^2 over [x,y] is
    t(B2~(1/(yt)) - B2~(1/(xt)))/2, at most t/8 in modulus, so dropping
    (0, eps] against |K| <= 1/2 costs at most eps^2/32.
    """
    def f(t):
        inner = 0.5 * t * (bernoulli_tilde(2, 1.0 / (y * t)) - bernoulli_tilde(2, 1.0 / (x * t)))
        return -bernoulli_tilde(1, 1.0 / (t * w)) * inner

    return _swapped_integral(f, (w, x, y), eps)


def direct_g_series(beta, m_start, tol):
    """sum_{m >= m_start} G(m beta) term by term, G(a) = int_a^inf B2~ t^-3 dt, certified to tol.

    The series of the closed form's termwise z-integral (the termwise side
    of TestI0::test_exchanged_series_matches_termwise_sum).  Truncated where
    the envelope _B2_TAIL_SUP (m beta)^-3 makes the tail sum at most tol/2;
    the other half is split over the summed terms in proportion to that
    same envelope.
    """
    m_hi = m_start + int(math.sqrt(_B2_TAIL_SUP / (beta**3 * tol))) + 1
    a = np.arange(m_start, m_hi + 1, dtype=float) * beta
    env = a**-3
    tol_m = 0.5 * tol * env / float(np.sum(env))
    return float(np.sum(_tilde_tail_vec(2, 3.0, a, tol_m)))


class TestI0:
    @pytest.mark.parametrize("x,y", [
        (0.6, 0.2), (0.3, 0.7),                    # y/x below and above 1
        (0.8, 0.4), (0.6, 0.4),                    # on 1/2 and 2/3
        (0.8, 0.4 * (1 + 1e-9)), (0.35, 0.7 * (1 - 3e-12)),  # near 1/2 and 2
    ])
    def test_exchanged_series_matches_termwise_sum(self, x, y):
        # i0_eval's -M(1/x, x/y)/2 against what the z-integral of the closed
        # form's boundary, H and series terms gives term by term:
        # -B1~(1/y) G(1/x)/2 - (x H(1/x) - G(1/x))/(2y) + (1/2) sum_m G(m y/x).
        # The halved M and the halved series are within tol/2 each
        tol = 1e-10
        g = tilde_power_tail(2, 3.0, 1.0 / x, 1e-3 * tol)
        h = tilde_power_tail(2, 2.0, 1.0 / x, 1e-3 * tol)
        termwise = (-0.5 * bernoulli_tilde(1, 1.0 / y) * g - (x * h - g) / (2.0 * y)
                    + 0.5 * direct_g_series(y / x, math.floor(1.0 / y) + 1, tol))
        assert abs(-0.5 * mixed_power_tail(1.0 / x, x / y, tol) - termwise) <= 1.5 * tol

    def test_frozen_values(self):
        # frozen from the order-swapped oracle (agreement <= 5e-11 there)
        for x, y, ref in [
            (1.0, 0.5, 2.691732646113e-03),
            (0.77, 0.3, 2.434359936040e-04),
            (0.5, 0.01, 1.696527357226e-05),
        ]:
            assert i0_eval(x, y, tol=1e-9) == pytest.approx(ref, abs=2e-9)

    def test_order_swapped_oracle(self):
        # at x/y = 18 and 50 the mixed tail runs at alpha > 1; the oracle drops
        # (0, eps], at most x^2 eps^2/12, and i0_eval is within tol = 1e-9
        for x, y, eps in [(1.0, 0.5, 1e-4), (0.3, 0.77, 1e-4), (0.9, 0.05, 5e-4), (1.0, 0.02, 5e-4)]:
            assert i0_eval(x, y, tol=1e-9) == pytest.approx(
                _i0_order_swapped(x, y, eps), abs=1e-9 + x * x * eps * eps / 12.0)

    def test_tight_tol_matches_parent(self):
        # frozen at tol 1e-12 from the earlier route, which took the G part by
        # a Gauss-12 u-quadrature with a certified tail window per node; both
        # routes are certified to 1e-12, so they agree within 2e-12
        for x, y, ref in [
            (1.0, 0.02, 1.286540771216199e-04),
            (0.5, 0.01, 1.6965322780035977e-05),
            (0.77, 0.3, 2.4343599195365205e-04),
        ]:
            assert abs(i0_eval(x, y, tol=1e-12) - ref) <= 2e-12, (x, y)

    def test_no_bulk_below_the_cutoff(self):
        # _B2_TAIL_SUP x^3/(1.5 tol) < 1 here, so U = 1: no panel sum, only the halved mixed tail
        x, y = 0.005, 0.02
        assert i0_eval(x, y, 1e-8) == -0.5 * mixed_power_tail(1.0 / x, x / y, 1e-8)

    def test_seeded_within_tol_of_tight_reference(self):
        rng = np.random.default_rng(12)
        for x, y in rng.uniform(0.01, 1.0, size=(20, 2)).tolist():
            assert abs(i0_eval(x, y, 1e-8) - i0_eval(x, y, 1e-11)) <= 1e-8, (x, y)

    def test_small_first_argument_cubic_scaling(self):
        # |I0(x,y)| <= C x^3 / y with C = 1 (fitted constant, observed
        # ratios stay below 2e-4 of it)
        for x in (0.05, 0.02, 0.01):
            assert abs(i0_eval(x, 0.5, tol=1e-12)) <= x**3 / 0.5

    def test_small_second_argument_log_bound(self):
        # |I0(x,y)| <= C (1 + log(1/y)) y with C = 1 (fitted constant)
        v = i0_eval(0.5, 0.01, tol=1e-8)
        assert abs(v) <= (1.0 + math.log(100.0)) * 0.01

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            i0_eval(0.0, 0.5)
        with pytest.raises(ValueError):
            i0_eval(0.5, 1.0001)
        with pytest.raises(ValueError):
            i0_eval(0.5, 0.5, tol=0.0)


class TestI:
    def test_frozen_values(self):
        for x, y, w, ref in [
            (0.2, 0.8, 0.5, -6.643959351547e-04),
            (0.3, 0.9, 0.3, 1.079266818179e-04),
            (0.15, 0.6, 0.77, 7.400230850225e-04),
            (0.5, 1.0, 1.0, 1.787874672865e-03),
        ]:
            assert i_eval(x, y, w, tol=1e-9) == pytest.approx(ref, abs=2e-9)

    def test_order_swapped_oracle(self):
        assert i_eval(0.2, 0.8, 0.5, tol=1e-9) == pytest.approx(
            _i_order_swapped(0.2, 0.8, 0.5), abs=5e-8)

    @pytest.mark.parametrize("x,y,w", [(0.05, 0.9, 0.1), (0.01, 0.02, 0.013), (0.02, 1.0, 0.01)])
    def test_small_w_order_swapped(self, x, y, w):
        # the mixed tails run at alpha = v/w up to 100; the oracle drops
        # (0, 1e-4], at most 3.1e-10
        assert abs(i_eval(x, y, w, tol=1e-10) - _i_order_swapped(x, y, w)) <= 1e-9

    def test_seeded_within_tol_of_tight_reference(self):
        rng = np.random.default_rng(13)
        for x, y, w in rng.uniform(0.01, 1.0, size=(20, 3)).tolist():
            assert abs(i_eval(x, y, w, 1e-8) - i_eval(x, y, w, 1e-11)) <= 1e-8, (x, y, w)

    def test_empty_interval(self):
        assert i_eval(0.37, 0.37, 0.8) == 0.0

    def test_antisymmetric(self):
        rng = np.random.default_rng(11)
        for x, y, w in rng.uniform(0.1, 1.0, size=(10, 3)):
            assert i_eval(float(x), float(y), float(w)) == -i_eval(
                float(y), float(x), float(w))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            i_eval(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            i_eval(0.2, 0.8, 0.0)
        with pytest.raises(ValueError):
            i_eval(0.2, 0.8, 0.5, tol=-1e-9)


class TestEvaluatorConfig:
    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            K2Evaluator(tol=0.0)
        with pytest.raises(ValueError):
            K2Evaluator(tol=2.0)

    def test_zero_edges(self):
        assert k2_quadrature(0.0, 0.7) == 0.0
        assert k2_quadrature(0.7, 0.0) == 0.0
        with pytest.raises(ValueError):
            k2_closed(0.0, 0.7)
        with pytest.raises(ValueError):
            k2_diag_exact(0.0)

    def test_thread_safety(self):
        pairs = [(0.3, 0.7), (0.52, 0.1), (0.9, 0.9), (1.0, 0.05),
                 (0.11, 0.83), (0.66, 0.66), (0.4, 0.2), (0.77, 0.31)]
        serial = [k2_closed(x, y) for x, y in pairs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda p: k2_closed(*p), pairs))
        assert serial == parallel


class TestBatchedRow:
    # k2_closed is a one-column row: a full row must equal its one-column
    # calls (no column affects another), and rows must match the independent
    # quadrature and diagonal routes
    TOL = 1e-7  # cross_validate_k2's default entry tolerance

    def _assert_row_matches_scalar(self, x, ys):
        ev = K2Evaluator(tol=self.TOL)
        got = _k2_row(x, ys, self.TOL)
        ref = np.array([k2_closed(x, float(y), ev) for y in ys])
        assert np.array_equal(got, ref)

    def test_full_matrix_n64(self):
        x = uniform_rule(16, 4).nodes
        for i in range(x.size):
            self._assert_row_matches_scalar(float(x[i]), x[i:])

    def test_n64_entries_match_quadrature_and_diagonal(self):
        x = np.sort(uniform_rule(16, 4).nodes)
        ev = K2Evaluator(tol=self.TOL)
        rows = [_k2_row(float(x[i]), x[i:], self.TOL) for i in range(x.size)]
        diag = np.array([row[0] for row in rows])
        ref = np.array([k2_diag_exact(float(v)) for v in x])
        assert np.max(np.abs(diag - ref)) <= self.TOL
        rng = np.random.default_rng(64)
        for i, k in rng.integers(0, x.size, size=(64, 2)).tolist():
            i, k = min(i, k), max(i, k)
            quad = k2_quadrature(float(x[i]), float(x[k]), ev)
            assert abs(rows[i][k - i] - quad) <= 2.0 * self.TOL, (i, k)

    def test_seeded_entries_n256(self):
        # ~300 entries: all of the first row's stride-8 columns, the last row,
        # a stride-8 diagonal and 240 seeded pairs; each row keeps its own
        # diagonal, so its tightest tolerance is the full row's
        x = uniform_rule().nodes
        n = x.size
        rng = np.random.default_rng(256)
        i = rng.integers(0, n, 240)
        k = rng.integers(0, n, 240)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), k.tolist())}
        pairs |= {(0, c) for c in range(0, n, 8)} | {(n - 1, n - 1)}
        pairs |= {(d, d) for d in range(0, n, 8)}
        rows = {}
        for a, b in pairs:
            rows.setdefault(a, {a}).add(b)
        assert len(pairs) >= 280
        for a, cols in rows.items():
            self._assert_row_matches_scalar(float(x[a]), x[sorted(cols)])

    def test_rational_ratios_take_the_scalar_path(self):
        # p/q, then 1, 2 and 3 ulp off it on either side, and random ratios,
        # as columns of one row against the one-column calls
        near = {0: [], 1: [], 2: [], 3: []}
        for q in (1, 2, 3, 7, 12, 16384):
            for p in (q + 1, 3 * q + 1, 5 * q - 1, 37 * q + 5):
                up = down = p / q
                near[0].append(up)
                for ulps in (1, 2, 3):
                    up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                    near[ulps] += [float(up), float(down)]
        rand = np.random.default_rng(3).uniform(1.0, 900.0, 200).tolist()
        x = 1.0 / 1024.0
        b = np.array(near[0] + near[1] + near[2] + near[3] + rand)
        self._assert_row_matches_scalar(x, np.unique(x * b[x * b <= 1.0]))

    # y/x a few ulp above 2 (ulp(2) = 2^-51), or 2e-13 .. 1e-7 relative above
    # it: the old Fourier path ran out of its truncation budget on most of these
    NEAR_TWO = [(u, 2.0 + u * 2.0**-51) for u in (3, 4, 8, 64)]
    NEAR_TWO += [(f"r{r:g}", 2.0 * (1.0 + r))
                 for r in (2e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7)]

    @pytest.mark.parametrize("beta", [b for _, b in NEAR_TWO], ids=[str(i) for i, _ in NEAR_TWO])
    def test_near_rational_ratio_outside_the_ulp_window(self, beta):
        x = 1.0 / 1024.0
        ev = K2Evaluator(tol=self.TOL)
        closed = k2_closed(x, x * beta, ev)
        assert abs(closed - k2_quadrature(x, x * beta, ev)) <= 2.0 * self.TOL
        self._assert_row_matches_scalar(x, np.array([x, x * beta]))

    def test_one_euclid_per_column(self, monkeypatch):
        # the level-2 series and both levels of the mixed tail sum at one
        # beta, so a row runs the continued fraction once per column: a work
        # count, where a timing would be flaky
        calls = []
        euclid = tails._convergents
        monkeypatch.setattr(tails, "_convergents", lambda beta: calls.append(beta) or euclid(beta))
        x = np.sort(uniform_rule(16, 4).nodes)
        tails._table_of.cache_clear()
        _k2_row(float(x[3]), x[3:], self.TOL)
        assert len(calls) == x.size - 3
        calls.clear()
        tails._table_of.cache_clear()
        k2_closed(0.3, 0.7, K2Evaluator(tol=self.TOL))
        assert len(calls) == 1

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            _k2_row(0.5, np.array([0.4, 0.7]), self.TOL)
        with pytest.raises(ValueError):
            _k2_row(0.5, np.array([0.7, 1.5]), self.TOL)
        with pytest.raises(ValueError):
            _k2_row(0.5, np.array([]), self.TOL)
