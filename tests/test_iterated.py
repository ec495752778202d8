import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_spectra.bernoulli import bernoulli_tilde
from kernel_spectra.iterated import (
    DIAGONAL_BOUND,
    OFF_DIAGONAL_BOUND,
    K2Evaluator,
    _closed_literal,
    _k2_row,
    i0_eval,
    i_eval,
    k2_closed,
    k2_diag_exact,
    k2_quadrature,
    sawtooth_sum,
)
from kernel_spectra.kernel import k_eval
from kernel_spectra.quadrature import composite_rule, uniform_rule
from kernel_spectra.tails import _tilde_tail_vec, tilde_power_tail

LOG_2PI_MINUS_74 = math.log(2.0 * math.pi) - 1.75


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
        # beta = 1: every term is B2(0)/m^2 = (1/6) m^-2
        zeta2 = math.pi**2 / 6.0
        assert sawtooth_sum(1.0, 1.0) == pytest.approx((zeta2 - 1.0) / 6.0, abs=1e-12)
        assert sawtooth_sum(0.5, 0.5) == pytest.approx(
            (zeta2 - 1.0 - 0.25) / 6.0, abs=1e-12)

    def test_series_integral_bound(self):
        # int_x^1 |sum_{m>1/y} B2~(m y/x) m^-2| dy/y^2 < 2/3
        for x in (0.1, 0.5, 0.9):
            ms = np.arange(math.floor(1.0 / x), 0, -1, dtype=float)
            cuts = np.unique(np.clip(np.concatenate(([x, 1.0], 1.0 / ms)), x, 1.0))
            rule = composite_rule(cuts, 8)
            vals = np.array(
                [abs(sawtooth_sum(x, float(y), 1e-9)) / y**2 for y in rule.nodes])
            assert float(np.dot(rule.weights, vals)) < 2.0 / 3.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sawtooth_sum(0.0, 0.5)


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


def _i0_order_swapped(x, y, eps=1e-4):
    """Oracle: integrate over the kernel row first, then over z.

    int_0^x K2(z,y) dz = int_0^1 K(t,y) [int_0^x K(z,t) dz] dt, and the
    inner integral equals -(1/t) int_{1/(xt)}^inf B1~(u) u^-2 du exactly.
    This never touches the closed form used by i0_eval.  Dropping (0, eps]
    costs at most x^2 eps^2 / 12.
    """
    rule = composite_rule(_jump_cuts((y, x), eps), 8)
    t = rule.nodes
    inner = -_tilde_tail_vec(1, 2.0, 1.0 / (x * t), np.full_like(t, 1e-12)) / t
    k_row = -bernoulli_tilde(1, 1.0 / (t * y))
    return float(np.dot(rule.weights, k_row * inner))


def _i_order_swapped(x, y, w, eps=1e-4):
    # inner integral of K(z,t)/z^2 over [x,y] is t(B2~(1/(xt)) - B2~(1/(yt)))/2
    rule = composite_rule(_jump_cuts((w, x, y), eps), 8)
    t = rule.nodes
    inner = 0.5 * t * (bernoulli_tilde(2, 1.0 / (x * t))
                       - bernoulli_tilde(2, 1.0 / (y * t)))
    k_row = -bernoulli_tilde(1, 1.0 / (t * w))
    return -float(np.dot(rule.weights, k_row * inner))


class TestI0:
    def test_frozen_values(self):
        # frozen from the order-swapped oracle (agreement <= 5e-11 there)
        for x, y, ref in [
            (1.0, 0.5, 2.691732646113e-03),
            (0.77, 0.3, 2.434359936040e-04),
            (0.5, 0.01, 1.696527357226e-05),
        ]:
            assert i0_eval(x, y, tol=1e-9) == pytest.approx(ref, abs=2e-9)

    def test_order_swapped_oracle(self):
        for x, y in [(1.0, 0.5), (0.3, 0.77)]:
            assert i0_eval(x, y, tol=1e-9) == pytest.approx(
                _i0_order_swapped(x, y), abs=5e-8)

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
    # k2_closed is a one-column row: a full row must match its one-column
    # calls (no column affects another), and rows must match the independent
    # quadrature and diagonal routes
    TOL = 1e-7  # cross_validate_k2's default entry tolerance

    def _assert_row_matches_scalar(self, x, ys):
        ev = K2Evaluator(tol=self.TOL)
        got = _k2_row(x, ys, self.TOL)
        ref = np.array([k2_closed(x, float(y), ev) for y in ys])
        assert np.max(np.abs(got - ref)) <= self.TOL

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

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            _k2_row(0.5, np.array([0.4, 0.7]), self.TOL)
        with pytest.raises(ValueError):
            _k2_row(0.5, np.array([0.7, 1.5]), self.TOL)
        with pytest.raises(ValueError):
            _k2_row(0.5, np.array([]), self.TOL)
