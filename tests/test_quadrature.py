import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_spectra.kernel import k_eval
from kernel_spectra.quadrature import (
    DEFAULT_ORDER,
    DEFAULT_PANELS,
    composite_rule,
    gauss_legendre,
    kernel_breakpoints,
    merged_breakpoint_blocks,
    uniform_rule,
)


class TestGaussLegendre:
    def test_order_one(self):
        x, w = gauss_legendre(1)
        np.testing.assert_array_equal(x, [0.0])
        np.testing.assert_array_equal(w, [2.0])

    def test_order_two(self):
        x, w = gauss_legendre(2)
        np.testing.assert_allclose(x, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-14)
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-14)

    def test_order_bounds(self):
        for bad in (0, 65, -3):
            with pytest.raises(ValueError):
                gauss_legendre(bad)

    def test_monomial_exactness_order16(self):
        # 16-point rule integrates monomials through degree 31 on [-1,1]
        x, w = gauss_legendre(16)
        for k in range(32):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.dot(w, x**k) == pytest.approx(exact, abs=2e-14)

    def test_weights_positive_and_sum(self):
        for order in (1, 2, 3, 7, 16, 33, 64):
            x, w = gauss_legendre(order)
            assert np.all(w > 0)
            assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
            assert np.all(np.diff(x) > 0)

    def test_symmetry(self):
        x, w = gauss_legendre(12)
        np.testing.assert_allclose(x, -x[::-1], atol=0)
        np.testing.assert_allclose(w, w[::-1], atol=0)

    @pytest.mark.parametrize("order", [2, 16, 64])
    def test_against_mpmath(self, order):
        # nodes are the roots r of P_n, polished from the float nodes at 40
        # digits; weights 2 (1 - r^2) / (n P_(n-1)(r))^2
        x, w = gauss_legendre(order)
        with mp.workdps(40):
            roots = [mp.findroot(lambda t: mp.legendre(order, t), mp.mpf(xi)) for xi in x]
            weights = [2 * (1 - r**2) / (order * mp.legendre(order - 1, r)) ** 2 for r in roots]
        np.testing.assert_allclose(x, np.array(roots, dtype=float), rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, np.array(weights, dtype=float), rtol=0, atol=1e-14)


class TestCompositeRule:
    def test_linear_one_panel(self):
        rule = composite_rule([0.0, 1.0], 2)
        assert rule.integrate(lambda z: z) == pytest.approx(0.5, abs=1e-15)

    def test_cubic_two_panels(self):
        rule = composite_rule([0.0, 0.5, 1.0], 4)
        assert rule.integrate(lambda z: z**3) == pytest.approx(0.25, abs=1e-15)

    def test_invariants(self):
        rule = composite_rule([0.0, 0.25, 0.3, 1.0], 5)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(rule.nodes) > 0)
        # every node strictly interior to its panel
        idx = np.searchsorted(rule.panels, rule.nodes) - 1
        assert np.all(rule.nodes > rule.panels[idx])
        assert np.all(rule.nodes < rule.panels[idx + 1])

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            composite_rule([0.5], 2)
        with pytest.raises(ValueError):
            composite_rule([0.0, 0.5, 0.5, 1.0], 2)
        with pytest.raises(ValueError):
            composite_rule([0.8, 0.2], 2)

    @given(
        order=st.integers(min_value=1, max_value=8),
        coeffs=st.lists(
            st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=60)
    def test_polynomial_exactness(self, order, coeffs):
        deg = min(len(coeffs) - 1, 2 * order - 1)
        coeffs = coeffs[: deg + 1]
        rule = composite_rule([0.0, 0.37, 0.62, 1.0], order)
        poly = np.polynomial.Polynomial(coeffs)
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        assert rule.integrate(poly) == pytest.approx(exact, abs=1e-12)

    def test_refinement_convergence(self):
        # error for an order-n composite rule scales like h^(2n); halving
        # panels must shrink it by about 2^(2n), asserted with slack down
        # to 2^(2n-2) less 20 percent
        f = lambda z: np.exp(3.0 * z)
        exact = (math.exp(3.0) - 1.0) / 3.0
        for order in (2, 3):
            errs = []
            for panels in (2, 4, 8):
                rule = uniform_rule(panels, order)
                errs.append(abs(rule.integrate(f) - exact))
            for e_coarse, e_fine in zip(errs, errs[1:]):
                assert e_coarse / e_fine >= 0.8 * 2.0 ** (2 * order - 2)

    def test_kernel_row_on_breakpoint_panels(self):
        # piecewise-smooth row integrates cleanly once panels follow its
        # jumps; reference from a much finer refinement of the same panels
        x = 0.7
        cuts = kernel_breakpoints(x, 0.01)
        coarse = composite_rule(cuts, 8)
        fine_cuts = np.unique(
            np.concatenate([np.linspace(a, b, 9) for a, b in zip(cuts[:-1], cuts[1:])])
        )
        fine = composite_rule(fine_cuts, 8)
        f = lambda z: k_eval(x, z)
        assert coarse.integrate(f) == pytest.approx(fine.integrate(f), abs=1e-12)

    def test_default_grid_shape(self):
        rule = uniform_rule()
        assert rule.order == DEFAULT_ORDER
        assert len(rule.panels) == DEFAULT_PANELS + 1
        assert rule.nodes.size == DEFAULT_PANELS * DEFAULT_ORDER


class TestKernelBreakpoints:
    def test_example_x1(self):
        pts = kernel_breakpoints(1.0, 0.2)
        np.testing.assert_allclose(pts, [0.2, 0.25, 1.0 / 3.0, 0.5, 1.0], atol=1e-15)

    def test_example_half(self):
        pts = kernel_breakpoints(0.5, 0.5)
        np.testing.assert_allclose(pts, [0.5, 2.0 / 3.0, 1.0], atol=1e-15)

    def test_example_count(self):
        # m runs 2..22 for x = 0.9 above cutoff 0.05: 21 interior points
        pts = kernel_breakpoints(0.9, 0.05)
        assert len(pts) == 23
        assert pts[0] == 0.05 and pts[-1] == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            kernel_breakpoints(0.0, 0.1)
        with pytest.raises(ValueError):
            kernel_breakpoints(0.5, 0.0)
        with pytest.raises(ValueError):
            kernel_breakpoints(0.5, 1.0)

    @given(
        x=st.floats(min_value=0.05, max_value=1.0),
        cutoff=st.floats(min_value=0.005, max_value=0.95),
    )
    @settings(max_examples=100)
    def test_structure(self, x, cutoff):
        pts = kernel_breakpoints(x, cutoff)
        assert pts[0] == cutoff and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)
        interior = pts[1:-1]
        # each interior point is a reciprocal 1/(m x) for an integer m
        m = 1.0 / (interior * x)
        np.testing.assert_allclose(m, np.round(m), atol=1e-6)
        assert np.all(interior > cutoff)
        assert np.all(interior <= 1.0)


class TestMergedBreakpointBlocks:
    @given(
        x=st.floats(min_value=0.05, max_value=1.0),
        y=st.floats(min_value=0.05, max_value=1.0),
        cutoff=st.floats(min_value=0.002, max_value=0.95),
        size=st.sampled_from([4, 16, 256, 1 << 14]),
    )
    @settings(max_examples=100, deadline=None)
    def test_panels_are_the_union(self, x, y, cutoff, size):
        union = np.union1d(kernel_breakpoints(x, cutoff), kernel_breakpoints(y, cutoff))
        blocks = list(merged_breakpoint_blocks(x, y, cutoff, size))
        panels = np.concatenate([np.stack((b[:-1], b[1:]), axis=1) for b in blocks])
        panels = panels[np.argsort(panels[:, 0])]
        np.testing.assert_array_equal(panels, np.stack((union[:-1], union[1:]), axis=1))

    @pytest.mark.parametrize("size", [4, 16, 256, 1 << 14])
    @pytest.mark.parametrize("x, y", [(0.25, 0.5), (0.2, 0.3), (0.1, 0.3), (0.5, 0.5)])
    def test_coincident_points(self, x, y, size):
        # rational ratios put points of both rows on the same or neighbouring
        # floats; the merge must keep each float once
        union = np.union1d(kernel_breakpoints(x, 0.002), kernel_breakpoints(y, 0.002))
        blocks = list(merged_breakpoint_blocks(x, y, 0.002, size))[::-1]
        merged = np.concatenate([blocks[0][:1]] + [b[1:] for b in blocks])
        np.testing.assert_array_equal(merged, union)

    def test_blocks_stay_small(self):
        # 4e5 points near x = y = 0.01; no block holds much more than size
        sizes = [b.size for b in merged_breakpoint_blocks(0.01, 0.0101, 2.45e-4, 1 << 12)]
        assert sum(sizes) - (len(sizes) - 1) == np.union1d(
            kernel_breakpoints(0.01, 2.45e-4), kernel_breakpoints(0.0101, 2.45e-4)).size
        assert max(sizes) <= (1 << 12) + 4

    def test_rejects_bad_args(self):
        for args in [(0.0, 0.5, 0.1), (0.5, 1.5, 0.1), (0.5, 0.5, 0.0), (0.5, 0.5, 1.0)]:
            with pytest.raises(ValueError):
                next(merged_breakpoint_blocks(*args))
