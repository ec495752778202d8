import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_spectra import kernel
from kernel_spectra.kernel import delta_r, h_eval, k_eval
from kernel_spectra.quadrature import composite_rule, kernel_breakpoints


def _cutoff(a, b, r, tol, cap):
    """delta_r's small-z cutoff z0."""
    z0 = (0.5 * tol * (r + 1.0)) ** (1.0 / (r + 1.0))
    return min(max(z0, (1.0 / a + 1.0 / b) / cap), 0.5)


def _exact_truncated(a, b, r, z0):
    """The integral of |K(a,z) - K(b,z)| z^r over [z0, 1] in 40-digit mpmath.

    The panels lie between the breakpoints 1/(ka) and 1/(kb) of both rows;
    on each the integrand is |c - d/z| z^r, c and d constant, which
    integrates in closed form, split where c - d/z changes sign.
    """
    with mpmath.workdps(40):
        a, b, r, z0 = (mpmath.mpf(v) for v in (a, b, r, z0))
        cuts = {mpmath.mpf(1), z0}
        for x in (a, b):
            for k in range(int(mpmath.ceil(1 / x)), int(mpmath.floor(1 / (x * z0))) + 1):
                cuts.add(1 / (k * x))
        cuts = sorted(z for z in cuts if z0 <= z <= 1)
        d = 1 / a - 1 / b

        def g(c, z):  # an antiderivative of (c - d/z) z^r
            if r == 0:
                return c * z - d * mpmath.log(z)
            return c * z ** (r + 1) / (r + 1) - d * z ** r / r

        total = mpmath.mpf(0)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid = (lo + hi) / 2
            c = mpmath.floor(1 / (a * mid)) - mpmath.floor(1 / (b * mid))
            ends = [lo, hi]
            if c != 0 and lo < d / c < hi:
                ends.insert(1, d / c)
            total += sum(abs(g(c, v) - g(c, u)) for u, v in zip(ends[:-1], ends[1:]))
        return +total


class TestKEval:
    def test_point_values(self):
        assert k_eval(0.0, 0.7) == 0.0
        assert k_eval(0.7, 0.0) == 0.0
        assert k_eval(0.0, 0.0) == 0.0
        assert k_eval(1.0, 1.0) == 0.5
        assert k_eval(1.0, 0.4) == 0.0  # {2.5} = 1/2

    def test_integer_reciprocal_takes_half(self):
        # 1/(xy) integer: fractional part 0, so K = 1/2 by convention
        assert k_eval(0.5, 0.5) == 0.5
        assert k_eval(1.0, 0.25) == 0.5

    def test_tiny_products(self):
        # xy = 1e-310 is subnormal and 1/xy overflows: K = 1/2 there, as for
        # every 1/xy >= 2^53; xy = 1e-400 underflows to zero, where K = 0
        x = (1e-160, 1e-160, 1e-200)
        y = (1e-150, 1e-140, 1e-200)
        expected = [0.5, 0.5, 0.0]
        # underflow to a subnormal or to zero is expected; nothing else is
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert [k_eval(a, b) for a, b in zip(x, y)] == expected
            assert np.array_equal(k_eval(np.array(x), np.array(y)), expected)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            k_eval(-0.1, 0.5)
        with pytest.raises(ValueError):
            k_eval(0.5, 1.1)
        for x, y in ((math.nan, 0.5), (0.5, math.nan), (np.array([0.5, math.nan]), 0.5)):
            with pytest.raises(ValueError, match="x, y in"):
                k_eval(x, y)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 1.0, 10_000)
        y = rng.uniform(0.0, 1.0, 10_000)
        np.testing.assert_array_equal(k_eval(x, y), k_eval(y, x))

    def test_range_dense_grid(self):
        g = np.linspace(0.001, 1.0, 600)
        vals = k_eval(g[:, None], g[None, :])
        assert np.min(vals) > -0.5
        assert np.max(vals) <= 0.5

    def test_scalar_vs_array(self):
        assert k_eval(0.3, 0.8) == k_eval(np.array(0.3), np.array(0.8))
        assert isinstance(k_eval(0.3, 0.8), float)

    @staticmethod
    def reference(x, y):
        p = np.multiply(x, y)
        with np.errstate(divide="ignore"):
            u = np.where(p > 0, 1.0 / np.where(p > 0, p, 1.0), 0.0)
        return np.where(p > 0, 0.5 - (u - np.floor(u)), 0.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_reference_expression(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (37, 1))
        y = rng.uniform(0.0, 1.0, 53)
        # zero rows and columns, 1/xy an integer (powers of two, 1/3, 1/7),
        # and xy underflowing to zero off the axes
        x[[0, 9], 0] = 0.0
        y[[4, 40]] = 0.0
        x[1:6, 0] = (1.0, 0.5, 0.25, 1.0 / 3.0, 1e-200)
        y[5:10] = (1.0, 0.125, 1.0 / 7.0, 1.0 / 3.0, 1e-200)
        for a, b in ((x, y), (y, x), (x[:, 0], y[:37]), (x, y[:, None].T)):
            got = k_eval(a, b)
            assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
            assert np.array_equal(got, self.reference(a, b))
        for a, b in ((x[3, 0], y[5]), (x[0, 0], y[1]), (x[7, 0], y[40]), (1.0, 0.25), (0.0, 0.0)):
            assert k_eval(a, b) == self.reference(a, b)
            assert k_eval(np.array(a), b) == self.reference(a, b)

    def test_empty_inputs(self):
        assert k_eval(np.empty(0), 0.5).shape == (0,)
        assert k_eval(np.empty((0, 1)), np.linspace(0.0, 1.0, 5)).shape == (0, 5)

    def test_arguments_not_written(self):
        x = np.linspace(0.0, 1.0, 31)[:, None]
        y = np.linspace(0.0, 1.0, 17)
        x_copy, y_copy = x.copy(), y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        k_eval(x, y)
        k_eval(y, y)  # equal shapes: the output could alias an argument
        assert np.array_equal(x, x_copy) and np.array_equal(y, y_copy)


class TestHEval:
    def test_point_values(self):
        assert h_eval(0.0) == 0.5
        assert h_eval(math.log(2.0)) == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-14)
        assert h_eval(math.log(2.5)) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            h_eval(-0.01)
        for v in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="v >= 0"):
                h_eval(v)

    def test_matches_row_of_k(self):
        v = np.linspace(0.0, 8.0, 500)
        x = np.exp(-v)
        np.testing.assert_allclose(h_eval(v), np.sqrt(x) * k_eval(1.0, x), atol=1e-15)

    def test_decay_envelope(self):
        v = np.linspace(0.0, 30.0, 2000)
        assert np.all(np.abs(h_eval(v)) <= 0.5 * np.exp(-0.5 * v) + 1e-15)


class TestRowIntegrals:
    # int_0^1 K^p(x,y) dy stays inside [min(0, (-1/2)^p), (1/2)^p)

    CUTOFF = 1e-3

    def _row_integral(self, x, p):
        rule = composite_rule(kernel_breakpoints(x, self.CUTOFF), 6)
        return rule.integrate(lambda y: k_eval(x, y) ** p)

    @pytest.mark.parametrize("p", [1, 2])
    def test_bounds_sampled(self, p):
        rng = np.random.default_rng(7)
        xs = np.concatenate(([1.0, 0.999], rng.uniform(0.02, 1.0, 18)))
        tail = self.CUTOFF * 0.5**p  # |K^p| <= (1/2)^p below the cutoff
        lo = min(0.0, (-0.5) ** p)
        for x in xs:
            val = self._row_integral(x, p)
            assert val >= lo - tail - 1e-12
            assert val + tail < 0.5**p

    def test_hilbert_schmidt_norm(self):
        # double integral of K^2 over [c,1]^2 plus a crude tail bound for
        # the excluded strip; the norm sits far below the 1/2 threshold
        c = 0.01
        outer = composite_rule(np.linspace(c, 1.0, 65), 4)
        total = 0.0
        for x, w in zip(outer.nodes, outer.weights):
            inner = composite_rule(kernel_breakpoints(x, c), 4)
            total += w * inner.integrate(lambda y: k_eval(x, y) ** 2)
        tail = 2.0 * c * 0.25  # measure of the strip times sup K^2
        assert math.sqrt(total + tail) < 0.5
        # sanity: the value is genuinely of moderate size, not degenerate
        assert 0.05 < total < 0.12


class TestHSNorm:
    def test_constant_against_mpmath(self):
        with mpmath.workdps(40):
            by_zeta = 0.25 + mpmath.log(2 * mpmath.pi) + mpmath.zeta(0, derivative=2)
            g, g1, l2pi = mpmath.euler, mpmath.stieltjes(1), mpmath.log(2 * mpmath.pi)
            by_stieltjes = 0.25 + l2pi + g**2 / 2 - mpmath.pi**2 / 24 - l2pi**2 / 2 + g1
            assert abs(by_zeta - by_stieltjes) < mpmath.mpf(10) ** -30
            assert abs(kernel._HS_NORM_SQ - by_zeta) <= 1e-15


class TestDeltaR:
    def test_zero_at_equal_rows(self):
        assert delta_r(0.5, 0.5, 0.0) == 0.0
        assert delta_r(0.123, 0.123, 2.0) == 0.0

    def test_frozen_values(self):
        # regression anchors validated against a piecewise adaptive
        # quadrature oracle during development
        assert delta_r(0.8, 0.4, 1.0, tol=1e-12) == pytest.approx(
            0.146415060574, abs=1e-8
        )
        assert delta_r(1.0, 0.999, 0.0, tol=1e-12) == pytest.approx(
            0.011723529851, abs=5e-5
        )

    @pytest.mark.parametrize("a, b, r, tol, cap, ref", [
        (0.3, 0.7, 0.0, 1e-7, 100_000, 0.31377039576775566431),
        (0.9, 0.11, 1.0, 1e-7, 100_000, 0.15644250942381461414),
        (0.05, 0.06, -0.5, 1e-7, 100_000, 0.65309022462295976147),
        (0.5, 1.0, 2.0, 1e-9, 100_000, 0.070043955309544656003),
        (0.013, 0.47, 0.0, 1e-7, 2000, 0.31462916755953016119),
    ])
    def test_exact_truncated_integral(self, a, b, r, tol, cap, ref):
        """The integral over [z0, 1] for delta_r's own z0, to 40 digits.

        The references come from _exact_truncated at the same arguments,
        12-25 s each at cap 100,000, too slow to run here:

            z0 = _cutoff(a, b, r, tol, cap)
            print(mpmath.nstr(_exact_truncated(a, b, r, z0), 20))
        """
        assert abs(delta_r(a, b, r, tol=tol, cap=cap) - ref) <= 1e-13

    @pytest.mark.parametrize("a, b, r", [
        (0.3, 0.7, 0.0), (0.3, 0.7, 1e-12), (0.3, 0.7, -1e-12), (0.3, 0.7, 0.05),
        (0.3, 0.7, -0.5), (0.3, 0.7, 5.0),
        (1.0, 0.37, 0.0), (0.37, 1.0, 1.0),     # a = 1, b = 1
        (0.25, 0.5, 0.0), (0.5, 0.75, 1.0),     # ratios 1/2 and 2/3
        (0.123, 0.123 * (1.0 + 1e-12), 0.0),    # near-equal rows
        (0.05, 0.9, -0.9),
    ])
    def test_live_exact_at_small_cap(self, a, b, r):
        v = delta_r(a, b, r, cap=500)
        assert abs(v - float(_exact_truncated(a, b, r, _cutoff(a, b, r, 1e-7, 500)))) <= 1e-13

    @pytest.mark.parametrize("a, b, r", [(0.3, 0.7, 0.0), (0.9, 0.11, 1.0), (0.05, 0.06, -0.5),
                                         (0.01, 1.0, 0.05)])
    def test_block_size_only_regroups_the_sum(self, a, b, r, monkeypatch):
        v = delta_r(a, b, r)
        monkeypatch.setattr(kernel, "_BLOCK", 64)
        assert abs(delta_r(a, b, r) - v) <= 1e-13

    def test_interval_count_bounded(self):
        # z0 stops at 1/2, so min(a, b) alone sets the count, about 1/min(a, b)
        assert 0.0 < delta_r(1e-7, 0.5, 0.0) <= 1.0
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"a = 1e-09, b = 0\.5"):
            delta_r(1e-9, 0.5, 0.0)
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(ValueError, match=r"a = 0\.5, b = 1e-12"):
            delta_r(0.5, 1e-12, 1.0)
        # a large cap lowers z0 and raises the count the same way
        with pytest.raises(ValueError, match="unit intervals"):
            delta_r(0.3, 0.7, 0.0, cap=10**9)

    @pytest.mark.parametrize("a, b, r", [(0.01, 0.02, 0.0), (0.3, 0.7, 0.0), (0.05, 0.06, -0.5)])
    def test_cap_bound_error(self, a, b, r):
        # the default cap sets z0 = (1/a + 1/b)/cap here, so the stated bound
        # is z0^(r+1)/(r+1), not tol/2; a 20x larger cap is itself low by at
        # most its own bound, which the check adds
        def bound(cap):
            z0 = min(max((0.5e-7 * (r + 1.0)) ** (1.0 / (r + 1.0)),
                         (1.0 / a + 1.0 / b) / cap), 0.5)
            return z0 ** (r + 1.0) / (r + 1.0)

        v = delta_r(a, b, r)
        low = delta_r(a, b, r, cap=2_000_000) - v
        assert 0.5e-7 < low and low + bound(2_000_000) <= bound(100_000)

    @pytest.mark.parametrize("r", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    @pytest.mark.parametrize("a, b", [(0.01, 0.02), (0.3, 0.7), (0.9, 0.11)])
    def test_small_r_near_r_zero(self, a, b, r):
        # d/dr of the integral is int |K(a,z) - K(b,z)| z^r log z, at most
        # int z^r |log z| = 1/(r+1)^2 in modulus, and the cap sets z0 here
        # alike for every r; z^r/r read 123.8 at (0.01, 0.02, 1e-12)
        v = delta_r(a, b, r)
        assert 0.0 <= v <= 1.0 / (r + 1.0)
        assert abs(v - delta_r(a, b, 0.0)) <= abs(r) / (r + 1.0) ** 2 + 1e-9

    def test_memory_bounded(self, traced_peak):
        # about 5e4 unit intervals at the default cap, walked a block at a time
        _, peak = traced_peak(delta_r, 0.01, 0.011, 0.0)
        assert peak < 4e6

    def test_nearby_rows_give_small_value(self):
        v = delta_r(1.0, 1.0 - 1e-3, 0.0)
        assert 0.0 < v < 0.05

    def test_symmetric_in_rows(self):
        for a, b, r in [(0.8, 0.4, 1.0), (0.9, 0.35, 0.0), (0.6, 0.55, 2.0)]:
            assert delta_r(a, b, r) == delta_r(b, a, r)

    def test_lipschitz_bound_random_pairs(self):
        # delta_1 <= 4 |1/b - 1/a| on 100 seeded pairs
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = sorted(rng.uniform(0.05, 1.0, 2))
            assert delta_r(a, b, 1.0) <= 4.0 * abs(1.0 / a - 1.0 / b)

    def test_sampled_decay(self):
        # dyadic offsets a0 + 2^-n, n = 3..12: monotone decrease toward 0.
        # Base points below ~0.5 start inside a decorrelated plateau where
        # the first few offsets exceed the row spacing and the sequence
        # jitters near 1/3 before decaying, so the monotone claim is pinned
        # to base points where the offsets immediately resolve the rows.
        for a0 in (0.6, 0.7, 0.8):
            vals = [delta_r(a0 + 2.0**-n, a0, 0.0) for n in range(3, 13)]
            assert all(u > v for u, v in zip(vals, vals[1:]))
            assert vals[-1] < 0.01

    def test_decay_tail_small_base(self):
        # same statement for a small base point, entered once the offsets
        # leave the plateau
        vals = [delta_r(0.3 + 2.0**-n, 0.3, 0.0) for n in range(6, 13)]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_negative_exponent_allowed(self):
        v = delta_r(0.8, 0.4, -0.5)
        assert v > 0.0
        with pytest.raises(ValueError):
            delta_r(0.8, 0.4, -1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_r(0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            delta_r(0.5, 1.5, 0.0)
        for tol in (0.0, -1e-7, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol > 0"):
                delta_r(0.5, 0.3, 1.0, tol=tol)
        # cap 0 would divide by zero, a negative or infinite cap drop the cap
        for cap in (0, -5, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="cap >= 1"):
                delta_r(0.3, 0.7, 0.0, cap=cap)
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r > -1 and finite"):
                delta_r(0.5, 0.3, r)
        with pytest.raises(ValueError, match="a, b in"):
            delta_r(math.nan, 0.3, 1.0)

    @given(
        a=st.floats(min_value=0.1, max_value=1.0),
        b=st.floats(min_value=0.1, max_value=1.0),
        r=st.sampled_from([0.0, 1.0, 2.0]),
    )
    @settings(max_examples=50)
    def test_nonnegative_and_bounded(self, a, b, r):
        v = delta_r(a, b, r)
        # |K - K'| <= 1 pointwise, so the integral sits under 1/(r+1)
        assert 0.0 <= v <= 1.0 / (r + 1.0) + 1e-9

    def test_custom_tolerance_used(self):
        vl = delta_r(0.9, 0.2, 1.0, tol=1e-2)
        vt = delta_r(0.9, 0.2, 1.0, tol=1e-10)
        assert vl == pytest.approx(vt, abs=1e-2)
