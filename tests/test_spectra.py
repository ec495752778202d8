import math
import os
import sys
import threading
import time
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from kernel_spectra import spectra
from kernel_spectra.iterated import K2Evaluator, k2_closed, k2_diag_exact
from kernel_spectra.kernel import _HS_NORM_SQ, k_eval
from kernel_spectra.quadrature import QuadratureRule, composite_rule, uniform_rule
from kernel_spectra.spectra import (
    _ROWS_PER_WORKER,
    K2_EIGEN_TOL,
    DiscretizedOperator,
    Spectrum,
    _assemble_k2,
    _fill_workers,
    _gated_eigh,
    _modulus_order,
    assemble,
    cross_validate_k2,
    eigenfunction,
    eigensolve,
    evaluate,
)


class TestAssemble:
    def test_single_node(self):
        g = QuadratureRule(nodes=[0.5], weights=[1.0], panels=[0.0, 1.0], order=1)
        op = assemble(g)
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == 0.5  # K(1/2,1/2): 1/(xy) = 4 exactly

    def test_exact_transpose(self, op256):
        assert np.array_equal(op256.matrix, op256.matrix.T)

    @pytest.mark.parametrize("rule", [uniform_rule(8, 4), uniform_rule(512, 4),
                                      composite_rule(np.append(0.0, np.geomspace(1e-3, 1.0, 16)), 6)],
                             ids=["n32", "n2048", "geometric"])
    def test_exactly_symmetric_by_construction(self, rule):
        # the weights go in as one product by the symmetric outer product of sqrt(w)
        m = assemble(rule).matrix
        assert np.array_equal(m, m.T)

    def test_frobenius_matches_hs_norm(self, op256, rule256):
        frob_sq = float(np.sum(op256.matrix**2))
        hs_sq = float(
            np.dot(rule256.weights, [k2_diag_exact(float(t)) for t in rule256.nodes])
        )
        assert frob_sq == pytest.approx(hs_sq, rel=3e-3)

    def test_rejects_asymmetric_matrix(self):
        g = uniform_rule(2, 1)
        with pytest.raises(ValueError):
            DiscretizedOperator(grid=g, matrix=np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_matrix(self, bad):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="matrix must be finite"):
            DiscretizedOperator(grid=uniform_rule(2, 1), matrix=m)

    def test_rejects_matrix_grid_size_mismatch(self):
        with pytest.raises(ValueError, match="matrix is 2x2 but the grid has 3 nodes"):
            DiscretizedOperator(grid=uniform_rule(3, 1), matrix=np.eye(2))

    def test_memory_bounded(self, traced_peak):
        # the kernel array and k_eval's floor, then that array and the outer
        # product of sqrt(w): 2 N^2 doubles
        rule = uniform_rule(128, 4)
        n = rule.nodes.size
        _, peak = traced_peak(assemble, rule)
        assert peak < 2.5 * n * n * 8


class TestEigensolve:
    def test_identity_matrix(self):
        op = DiscretizedOperator(grid=uniform_rule(3, 1), matrix=np.eye(3))
        s = eigensolve(op)
        assert np.allclose(s.eigenvalues, 1.0, atol=1e-14)
        assert len(s.multiplicity_groups()) == 1
        assert s.multiplicity_groups()[0] == [1, 2, 3]

    def test_swap_matrix_tie_break(self):
        # eigenvalues +1 and -1 have equal modulus: positive comes first
        op = DiscretizedOperator(
            grid=uniform_rule(2, 1), matrix=np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        s = eigensolve(op)
        assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)
        assert s.eigenvalues[1] == pytest.approx(-1.0, abs=1e-14)

    def test_matches_dense_oracle(self):
        # 40-digit symmetric eigenvalues of the same float matrix (N = 32)
        op = assemble(uniform_rule(8, 4))
        s = eigensolve(op)
        with mp.workdps(40):
            mu_ref = mp.eigsy(mp.matrix(op.matrix.tolist()), eigvals_only=True)
            mu_ref = np.array([float(m) for m in mu_ref])
        mu_ref = mu_ref[np.abs(mu_ref) >= s.floor]
        assert mu_ref.size == len(s)
        assert np.max(np.abs(np.sort(s.matrix_eigenvalues) - np.sort(mu_ref))) <= 1e-14

    def test_gate_measurements_within_tol(self, spec256):
        assert 0.0 <= spec256.residual <= 1e-11
        assert 0.0 <= spec256.orthogonality <= 1e-11

    def test_vectors_orthonormal(self, spec256):
        gram = spec256.vectors.T @ spec256.vectors
        assert np.max(np.abs(gram - np.eye(len(spec256)))) < 1e-10

    def test_ordering_invariant(self, spec256):
        mods = np.abs(spec256.eigenvalues)
        assert np.all(np.diff(mods) >= -1e-12 * mods[1:])

    def test_reconstruction(self, op256, spec256):
        # kept eigenpairs reproduce the matrix up to the discarded floor mass
        v = spec256.vectors
        recon = v @ np.diag(spec256.matrix_eigenvalues) @ v.T
        assert np.max(np.abs(recon - op256.matrix)) < 2 * spec256.floor

    def test_floor_discards_noise(self, spec256, op256):
        assert len(spec256) + spec256.discarded == op256.size
        assert np.min(np.abs(spec256.matrix_eigenvalues)) >= spec256.floor

    def test_spectrum_bounds(self, spec256, rule256):
        # |lambda_1| > 2 and |lambda_1| > 1/||K||_HS
        hs = math.sqrt(
            float(np.dot(rule256.weights, [k2_diag_exact(float(t)) for t in rule256.nodes]))
        )
        assert hs < 0.5
        lam1 = abs(spec256.eigenvalues[0])
        assert lam1 > 2.0
        assert lam1 > 1.0 / hs

    def test_spectrum_bounds_512(self, spec512):
        assert abs(spec512.eigenvalues[0]) > 2.0

    def test_nonconvergence_raises(self, op256):
        # no double-precision eigensolution has a residual within 1e-300
        with pytest.raises(RuntimeError, match="residual"):
            eigensolve(op256, tol=1e-300)

    def test_gate_trips_on_nan(self):
        # eigh returns NaN pairs for a NaN matrix; a NaN residual must fail
        m = np.eye(3)
        m[0, 1] = m[1, 0] = math.nan
        with pytest.raises(RuntimeError, match="residual nan"):
            _gated_eigh(m, 1.0)

    def test_rejects_bad_tol(self, op256):
        # an infinite tol would switch the residual and orthogonality gate off
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                eigensolve(op256, tol=tol)


class TestMultiplicityGroups:
    def test_synthetic_clusters(self):
        lam = np.array([2.0, 2.0 + 1e-9, -2.0 - 4e-9, 5.0])
        s = Spectrum(
            eigenvalues=lam,
            matrix_eigenvalues=1.0 / lam,
            vectors=np.eye(4),
        )
        assert s.multiplicity_groups(rel_tol=1e-6) == [[1, 2], [3], [4]]
        assert s.multiplicity_groups(rel_tol=1e-12) == [[1], [2], [3], [4]]

    def test_chained_runs(self):
        # each value within 1e-6 of the next, the ends of a run 2.4e-6 apart;
        # +2 and -2 differ by 4 and stay apart
        lam = np.array([1.0, 1.0 + 0.8e-6, 1.0 + 1.6e-6, 1.0 + 2.4e-6,
                        2.0, -2.0, -2.0 * (1 + 0.9e-6), -2.0 * (1 + 1.8e-6), 3.0])
        s = Spectrum(eigenvalues=lam, matrix_eigenvalues=1.0 / lam, vectors=np.eye(lam.size))
        assert s.multiplicity_groups(rel_tol=1e-6) == [[1, 2, 3, 4], [5], [6, 7, 8], [9]]


def loop_modulus_order(lam, rel=1e-12):
    """The run-by-run loop form of _modulus_order, its reference in TestModulusOrder."""
    order = np.argsort(np.abs(lam), kind="stable")
    mods = np.abs(lam[order])
    i = 0
    while i < order.size:
        j = i + 1
        while j < order.size and mods[j] - mods[j - 1] <= rel * mods[j]:
            j += 1
        run = order[i:j]
        order[i:j] = run[np.lexsort((np.abs(lam[run]), np.signbit(lam[run])))]
        i = j
    return order


def loop_groups(lam, rel_tol):
    """The loop form of Spectrum.multiplicity_groups, its reference in TestModulusOrder."""
    groups = []
    for j in range(1, lam.size + 1):
        prev, cur = lam[j - 2], lam[j - 1]
        if groups and abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev)):
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


class TestModulusOrder:
    def test_matches_loop_reference(self):
        # random sets of near-ties, chained or not, with mixed signs
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(0, 12))
            base = rng.choice(rng.uniform(0.5, 2.0, 4), n)
            rel = rng.choice([0.0, 4e-13, 1e-12, 3e-12, 1e-6], n) * rng.integers(-3, 4, n)
            lam = base * (1.0 + rel) * rng.choice([-1.0, 1.0], n)
            assert _modulus_order(lam).tolist() == loop_modulus_order(lam).tolist()
            s = Spectrum(eigenvalues=lam, matrix_eigenvalues=lam, vectors=np.eye(n))
            for rel_tol in (1e-12, 1e-6):
                assert s.multiplicity_groups(rel_tol) == loop_groups(lam, rel_tol)

    def test_chained_tie_runs(self):
        # moduli within 1e-12 of the next, farther apart end to end: a whole
        # chain is one tie run, positives first, each sign by modulus
        want = [3.0, 3.0 * (1 + 1.6e-12), -3.0 * (1 + 0.8e-12), -3.0 * (1 + 2.4e-12),
                4.0, -4.0,
                7.0 * (1 + 0.9e-12), -7.0, -7.0 * (1 + 1.8e-12),
                -7.0 * (1 + 4e-12)]
        lam = np.random.default_rng(12).permutation(np.array(want))
        assert lam[_modulus_order(lam)].tolist() == want


class TestEigenfunction:
    def test_unit_grid_norm(self, spec256, rule256):
        for j in (1, 2, 3, 7):
            h = eigenfunction(spec256, j, rule256)
            norm = float(np.dot(rule256.weights, h.node_values**2))
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self, spec256, rule256):
        hs = [eigenfunction(spec256, j, rule256) for j in (1, 2, 3, 4)]
        for a in range(4):
            for b in range(a + 1, 4):
                ip = float(
                    np.dot(rule256.weights, hs[a].node_values * hs[b].node_values)
                )
                assert abs(ip) < 1e-8

    def test_sign_convention(self, spec256, rule256):
        for j in range(1, 11):
            h = eigenfunction(spec256, j, rule256)
            if h.sign_convention == "phi(1) > 0":
                assert evaluate(h, 1.0) > 0.0

    def test_zero_at_origin(self, spec256, rule256):
        h = eigenfunction(spec256, 1, rule256)
        assert evaluate(h, 0.0) == 0.0

    def test_node_self_consistency(self, spec256, rule256):
        h = eigenfunction(spec256, 1, rule256)
        vals = evaluate(h, rule256.nodes)
        assert np.max(np.abs(vals - h.node_values)) < 1e-10

    def test_uniform_bound(self, spec256, rule256):
        # |phi_j(x)| <= |lambda_j|/2 everywhere
        xs = np.linspace(0.0, 1.0, 1000)
        for j in range(1, 11):
            h = eigenfunction(spec256, j, rule256)
            slack = np.max(np.abs(evaluate(h, xs))) - 0.5 * abs(h.eigenvalue)
            assert slack < 1e-6 * abs(h.eigenvalue)

    def test_evaluate_scalar_and_array(self, spec256, rule256):
        h = eigenfunction(spec256, 1, rule256)
        v = evaluate(h, 0.37)
        assert isinstance(v, float)
        assert evaluate(h, np.array([0.37]))[0] == v
        assert h(0.37) == v

    def test_index_validation(self, spec256, rule256):
        with pytest.raises(ValueError):
            eigenfunction(spec256, 0, rule256)
        with pytest.raises(ValueError):
            eigenfunction(spec256, len(spec256) + 1, rule256)
        with pytest.raises(ValueError, match="j must be an integer"):
            eigenfunction(spec256, 1.5, rule256)
        assert eigenfunction(spec256, np.int64(2), rule256).eigenvalue == spec256.eigenvalues[1]

    def test_sign_fallback_when_phi1_is_zero(self):
        # v is proportional to sqrt(w) (K(1, x_2), -K(1, x_1)) on the nodes 1/4
        # and 3/4, so phi(1) = lambda sum_i w_i phi_i K(1, x_i) cancels to
        # rounding, and the largest node value takes the sign
        grid = uniform_rule(2, 1)
        k1 = k_eval(1.0, grid.nodes)
        v = np.sqrt(grid.weights) * np.array([k1[1], -k1[0]])
        v /= np.linalg.norm(v)
        u = np.array([v[1], -v[0]])
        spec = eigensolve(DiscretizedOperator(grid=grid, matrix=2.0 * np.outer(v, v) + np.outer(u, u)))
        h = eigenfunction(spec, 1, grid)
        assert h.eigenvalue == pytest.approx(0.5, rel=1e-14)
        assert h.sign_convention.startswith("largest node value > 0")
        assert h.node_values[np.argmax(np.abs(h.node_values))] > 0.0

    def test_grid_mismatch(self, spec256):
        with pytest.raises(ValueError):
            eigenfunction(spec256, 1, uniform_rule(4, 2))


class TestEvaluate:
    @staticmethod
    def one_shot(h, x):
        return h.eigenvalue * (k_eval(x[..., None], h.grid.nodes) @ (h.grid.weights * h.node_values))

    def test_blocked_equals_one_shot(self, spec256, rule256):
        # 2000 points are 15 blocks of 128 rows and one of 80; a multiple of
        # 16, so at 1, 2 or 4 BLAS threads every row of either product lies
        # in one of BLAS's groups of four rows, summed the same way
        h = eigenfunction(spec256, 2, rule256)
        x = np.random.default_rng(11).uniform(0.0, 1.0, 2000)
        x[[0, 1000]] = (0.0, 1.0)
        assert np.array_equal(evaluate(h, x), self.one_shot(h, x))
        grid = x.reshape(40, 50)
        got = evaluate(h, grid)
        assert got.shape == (40, 50)
        assert np.array_equal(got, evaluate(h, x).reshape(40, 50))

    def test_blocked_within_rounding_of_one_shot(self, spec256, rule256):
        # 2001 points: BLAS sums a row left over from its groups of four in
        # another order, so a row may differ in the last bits from the
        # one-shot product, by at most the rounding bounds of two n-term dot
        # products and of the products with lambda
        h = eigenfunction(spec256, 2, rule256)
        x = np.random.default_rng(12).uniform(0.0, 1.0, 2001)
        coeff = h.grid.weights * h.node_values
        n = h.grid.nodes.size
        bound = 2.0 * (n + 2) * np.finfo(float).eps * abs(h.eigenvalue) * (
            np.abs(k_eval(x[:, None], h.grid.nodes)) @ np.abs(coeff))
        assert np.all(np.abs(evaluate(h, x) - self.one_shot(h, x)) <= bound)

    def test_scalar_and_empty(self, spec256, rule256):
        h = eigenfunction(spec256, 3, rule256)
        v = evaluate(h, np.float64(0.61))
        assert isinstance(v, float)
        assert v == self.one_shot(h, np.array(0.61))
        for x in (np.empty(0), np.empty((3, 0))):
            assert evaluate(h, x).shape == x.shape

    def test_bad_x_fails_before_any_block(self, spec256, rule256, monkeypatch):
        h = eigenfunction(spec256, 1, rule256)
        calls = []
        monkeypatch.setattr("kernel_spectra.spectra.k_eval", lambda *a: calls.append(a))
        for x in (1.5, -0.1, math.nan, np.array([0.5, math.nan]), np.full(3000, 2.0)):
            with pytest.raises(ValueError, match="x in"):
                evaluate(h, x)
        assert calls == []

    def test_memory_bounded(self, spec256, rule256, traced_peak):
        # one block of 128 kernel rows and its floor (2 x 256 KB) plus the
        # 160 KB result; a kernel matrix of all 20000 points would be 41 MB
        h = eigenfunction(spec256, 1, rule256)
        _, peak = traced_peak(evaluate, h, np.linspace(0.0, 1.0, 20_000))
        assert peak < 2e6


class TestGridRefinement:
    def test_lambda1_stable_to_third_digit(self, spec256, spec512):
        a = abs(spec256.eigenvalues[0])
        b = abs(spec512.eigenvalues[0])
        assert abs(a - b) / b < 5e-3


class TestCrossValidation:
    def test_route_discrepancies(self, xcheck256):
        # the two Nystrom routes carry ~1e-2 discretization error each at
        # N=256; their difference stays below this measured ceiling
        assert xcheck256.count == 10
        assert float(np.max(xcheck256.rel_discrepancies)) < 8e-2

    def test_k2_gate_residual_within_tol(self, xcheck256):
        assert 0.0 <= xcheck256.residual <= K2_EIGEN_TOL

    @pytest.mark.parametrize("count", [0, -3, 2.5])
    def test_rejects_nonpositive_count(self, rule256, spec256, count):
        expected = "count must be an integer" if count == 2.5 else "count must be >= 1"
        with pytest.raises(ValueError, match=expected):
            cross_validate_k2(rule256, count=count, spectrum=spec256)

    @pytest.mark.parametrize("kernel_tol", [0.0, 2.0, math.nan])
    def test_rejects_bad_kernel_tol_first(self, monkeypatch, kernel_tol):
        def unreachable(*args):
            raise AssertionError("kernel_tol was not checked first")

        monkeypatch.setattr(spectra, "assemble", unreachable)
        monkeypatch.setattr(spectra, "_assemble_k2", unreachable)
        with pytest.raises(ValueError, match=r"kernel_tol must be in \(0, 1\)"):
            cross_validate_k2(uniform_rule(4, 4), count=0, kernel_tol=kernel_tol)

    def test_hs_norm_error_falls_with_n(self, xcheck256):
        # the grid integral of the exact K2 diagonal against ||K||_HS^2:
        # +3.4e-5 at N = 128, +3.1e-6 at N = 256
        assert xcheck256.hs_norm_error == xcheck256.hs_norm_sq - _HS_NORM_SQ
        assert 2.5e-6 < xcheck256.hs_norm_error < 3.5e-6
        rule = uniform_rule(32, 4)
        err128 = float(np.dot(rule.weights, [k2_diag_exact(float(t)) for t in rule.nodes])) - _HS_NORM_SQ
        assert 3e-5 < err128 < 4e-5

    def test_iterated_matrix_psd(self, xcheck256):
        assert float(xcheck256.k2_matrix_eigenvalues.min()) >= -1e-10

    def test_trace_partials_below_diagonal_integral(self, xcheck256):
        assert np.all(np.diff(xcheck256.trace_partial_sums) > 0.0)
        assert np.all(
            xcheck256.trace_partial_sums[:40] <= xcheck256.hs_norm_sq + 1e-6
        )


def _use_cores(monkeypatch, count):
    monkeypatch.setattr(spectra.os, "sched_getaffinity", lambda pid: set(range(count)))


# a worker row this slow would hold a fill that waited for its stripe
_SLOW_ROW_S = 8.0


def _assert_no_child_left(threads):
    """No child process is left, and the thread count is back to `threads`."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


class TestK2Stripes:
    @pytest.fixture(scope="class", params=[64, 128])
    def in_process(self, request):
        rule = uniform_rule(request.param // 4, 4)
        with pytest.MonkeyPatch.context() as patch:
            _use_cores(patch, 1)
            m, workers = _assemble_k2(rule, 1e-7)
        assert workers == 1
        assert np.array_equal(m, m.T)
        return rule, m

    @pytest.mark.parametrize("workers", [2, 3])
    def test_stripes_bit_identical(self, monkeypatch, in_process, workers):
        rule, reference = in_process
        _use_cores(monkeypatch, workers)
        threads = threading.active_count()
        m, used = _assemble_k2(rule, 1e-7)
        assert used == workers
        assert np.array_equal(m, reference)  # so exactly symmetric, as the reference is
        _assert_no_child_left(threads)

    def test_worker_count(self, monkeypatch):
        _use_cores(monkeypatch, 4)
        assert _fill_workers(2 * _ROWS_PER_WORKER - 1) == 1
        assert _fill_workers(3 * _ROWS_PER_WORKER) == 3
        assert _fill_workers(100 * _ROWS_PER_WORKER) == 4
        daemon = SimpleNamespace(current_process=lambda: SimpleNamespace(daemon=True))
        with monkeypatch.context() as m:
            m.setattr(spectra.multiprocessing, "current_process", daemon.current_process)
            assert _fill_workers(100 * _ROWS_PER_WORKER) == 1
        monkeypatch.delattr(spectra.os, "fork")
        assert _fill_workers(100 * _ROWS_PER_WORKER) == 1

    def test_cross_check_records_workers(self, monkeypatch):
        rule = uniform_rule(4, 4)
        _use_cores(monkeypatch, 2)
        xc = cross_validate_k2(rule, count=3)
        assert xc.fill_workers == 2
        _use_cores(monkeypatch, 1)
        assert cross_validate_k2(rule, count=3).fill_workers == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts minor faults on Linux")
    def test_warm_fill_takes_few_page_faults(self):
        # tails._z's temporaries, mapped and trimmed back at every call, once
        # cost about 15,000 minor faults per N = 64 fill
        import resource

        x = np.sort(uniform_rule(16, 4).nodes)
        spectra._k2_rows(x, 1e-7, 1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        spectra._k2_rows(x, 1e-7, 1)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000

    @staticmethod
    def _row_raising_at(monkeypatch, row, n, fail=None):
        """_k2_row raising ValueError, or calling fail(), on sorted row `row` of an n-node fill."""
        real = spectra._k2_row

        def k2_row(x, ys, tol):
            if ys.size == n - row:
                if fail is None:
                    raise ValueError(f"row {row}")
                fail()
            return real(x, ys, tol)

        monkeypatch.setattr(spectra, "_k2_row", k2_row)

    def test_failed_worker_raises(self, monkeypatch):
        rule = uniform_rule(8, 4)
        _use_cores(monkeypatch, 2)
        threads = threading.active_count()
        self._row_raising_at(monkeypatch, 3, rule.nodes.size)  # stripe 1
        with pytest.raises(ValueError, match="row 3"):
            _assemble_k2(rule, 1e-7)
        _assert_no_child_left(threads)

    def test_dead_worker_raises(self, monkeypatch):
        rule = uniform_rule(8, 4)
        _use_cores(monkeypatch, 2)
        threads = threading.active_count()
        parent = os.getpid()

        def die():
            # stripe 1 runs in a worker; never end the test process itself
            assert os.getpid() != parent, "row 3 ran in the calling process"
            os._exit(3)

        self._row_raising_at(monkeypatch, 3, rule.nodes.size, die)
        with pytest.raises(RuntimeError, match="process pool"):
            _assemble_k2(rule, 1e-7)
        _assert_no_child_left(threads)

    def test_raise_in_own_stripe_reaps_children(self, monkeypatch):
        rule = uniform_rule(8, 4)
        n = rule.nodes.size
        _use_cores(monkeypatch, 3)
        threads = threading.active_count()
        parent = os.getpid()
        real = spectra._k2_row

        def k2_row(x, ys, tol):
            if os.getpid() == parent and ys.size == n:
                raise ValueError("row 0")  # the first row of stripe 0
            if os.getpid() != parent and ys.size >= n - 2:
                time.sleep(_SLOW_ROW_S)  # the first rows of stripes 1 and 2
            return real(x, ys, tol)

        monkeypatch.setattr(spectra, "_k2_row", k2_row)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="row 0"):
            _assemble_k2(rule, 1e-7)
        assert time.perf_counter() - t0 < _SLOW_ROW_S / 4
        _assert_no_child_left(threads)


class TestTraceFormula:
    def test_partial_sums_at_h40(self, spec400, rule400):
        tp = np.cumsum(1.0 / spec400.eigenvalues**2)
        hs = float(
            np.dot(rule400.weights, [k2_diag_exact(float(t)) for t in rule400.nodes])
        )
        assert np.all(np.diff(tp) > 0.0)
        assert tp[39] < hs
        gap = (hs - tp[39]) / hs
        # the spectrum grows like |lambda_h| ~ h^0.58, so H=40 captures only
        # ~70% of the trace; pin the measured window
        assert 0.25 < gap < 0.35


@pytest.fixture(scope="module")
def residuals(handles400, spec400):
    ev = K2Evaluator(tol=1e-9)
    gx = np.linspace(0.2, 1.0, 30)
    k2g = np.array([[k2_closed(float(a), float(b), ev) for b in gx] for a in gx])
    phis = np.array([evaluate(h, gx) for h in handles400[:30]])
    lam = spec400.eigenvalues[:30]
    sups = {}
    for H in (5, 10, 20, 30):
        approx = (phis[:H].T / lam[:H]) @ (phis[:H] / lam[:H][:, None])
        sups[H] = float(np.max(np.abs(k2g - approx)))
    return sups


class TestBilinearExpansion:
    def test_nonincreasing_in_h(self, residuals):
        vals = [residuals[H] for H in (5, 10, 20, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_h30_below_trace_tail_estimate(self, residuals, spec400, rule400):
        hs = float(
            np.dot(rule400.weights, [k2_diag_exact(float(t)) for t in rule400.nodes])
        )
        tail = hs - float(np.sum(1.0 / spec400.eigenvalues[:30] ** 2))
        assert residuals[30] < 10.0 * tail

    def test_measured_reduction(self, residuals):
        # slow spectral growth caps the H=5 -> H=30 improvement near 1.4x
        assert residuals[5] / residuals[30] > 1.25


class TestDiagonalIdentity:
    def test_defect_shrinks_with_h(self, handles400):
        xs = np.linspace(0.2, 1.0, 17)
        worst = {}
        for H in (10, 30, 99):
            w = 0.0
            for x in xs:
                s = sum(
                    evaluate(h, float(x)) ** 2 / h.eigenvalue**2 for h in handles400[:H]
                )
                w = max(w, abs(s - k2_diag_exact(float(x))) / k2_diag_exact(float(x)))
            worst[H] = w
        assert worst[99] < worst[30] < worst[10]
        assert worst[30] < 0.75


class TestMeanSquareExpansion:
    def test_h30_beats_h5(self, handles400, spec400, rule400):
        lam = spec400.eigenvalues
        phi_nodes = np.array([h.node_values for h in handles400[:30]])
        w = rule400.weights
        for x in np.linspace(0.05, 1.0, 10):
            row = k_eval(float(x), rule400.nodes)
            msq = {}
            for H in (5, 30):
                coef = np.array(
                    [evaluate(handles400[h], float(x)) / lam[h] for h in range(H)]
                )
                resid = row - coef @ phi_nodes[:H]
                msq[H] = float(np.dot(w, resid**2))
            assert msq[30] < msq[5]
