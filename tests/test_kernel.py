import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_spectra.kernel import delta_r, h_eval, k_eval
from kernel_spectra.quadrature import composite_rule, kernel_breakpoints


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


class TestHEval:
    def test_point_values(self):
        assert h_eval(0.0) == 0.5
        assert h_eval(math.log(2.0)) == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-14)
        assert h_eval(math.log(2.5)) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            h_eval(-0.01)

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
        (0.3, 0.7, 0.0, 1e-7, 100_000, 0.31377039576162424),
        (0.9, 0.11, 1.0, 1e-7, 100_000, 0.1564425094238049),
        (0.05, 0.06, -0.5, 1e-7, 100_000, 0.6530902248849006),
        (0.5, 1.0, 2.0, 1e-9, 100_000, 0.07004395530954466),
        (0.013, 0.47, 0.0, 1e-7, 2000, 0.31462916756179027),
    ])
    def test_bit_identical_breakpoints(self, a, b, r, tol, cap, ref):
        # values of the former row-local breakpoint helper; the cutoff z0 is
        # at most 1/2, so quadrature.merged_breakpoint_blocks yields the same panels
        assert delta_r(a, b, r, tol=tol, cap=cap) == ref

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

    def test_memory_bounded(self, traced_peak):
        # the default cap's 1e5 merged breakpoints, summed a block at a time
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
