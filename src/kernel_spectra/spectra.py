"""Nystrom discretization and eigensolution for the reciprocal-floor kernel.

The integral operator is discretized on a composite Gauss grid as the
symmetric matrix A_ij = sqrt(w_i w_j) K(x_i, x_j), whose eigenvalues mu
approximate 1/lambda for the kernel eigenvalues lambda.  LAPACK's symmetric
solver (np.linalg.eigh) does the dense eigensolution behind a gate: the
residual max|A V - V diag(mu)| and the orthogonality defect max|V^T V - I|
must both be within the caller's tol, else RuntimeError.  Eigenfunctions
come out of the Nystrom interpolation formula
phi(x) = lambda * sum_i w_i K(x, x_i) phi(x_i).

eigh's eigenvalues depend on the BLAS thread count in their last digits
(at N = 2048, lambda_1 moved by 5e-15 between 1 and 2 OpenBLAS threads), so
spectra are bit-reproducible only at a fixed OPENBLAS_NUM_THREADS; compare
spectra across runs with == only with it pinned.

cross_validate_k2 fills the iterated-kernel matrix in row stripes on every
usable core: with W = min(usable cores, N // _ROWS_PER_WORKER) processes,
stripe k holds the rows i = k mod W of the sorted nodes.  This process
computes stripe 0, and a ProcessPoolExecutor of W - 1 forked workers the
others.  No path of this package loads scipy: the fill's Hurwitz zeta and
digamma are tails._z, in numpy, whose intermediates live in one reused
buffer per thread, so a warm fill takes next to no page faults (under 50
in one process at N = 64 and 128, against 15,000 and 88,000 when they were
allocated per call).  Every entry is still one _k2_row call on
the same inputs, a pure function of them, so the matrix and its
eigenvalues are bit-identical for any W.  A stripe's exception is raised
in the caller as the worker raised it, a worker that dies without raising
is a BrokenProcessPool (a RuntimeError), and no worker outlives the fill;
a raise in stripe 0 cancels the pending stripes and terminates the
workers at once.  W = 1 runs the same loop in-process, with no pool:
below 2 _ROWS_PER_WORKER nodes, on one usable core, where the os module
has no fork or sched_getaffinity, and inside a daemonic multiprocessing
worker.  The fork happens in a process that may hold OpenBLAS threads
(OpenBLAS stops its pool across a fork and restarts it on its next call),
so Python >= 3.12 may emit a DeprecationWarning for a fork in a
multi-threaded process.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

# k2_closed (one entry of the K2 fill, unused here) stays importable from
# here: bench/test_bench.py checks that the span tracer wraps it in this module
from .iterated import _k2_row, k2_closed, k2_diag_exact  # noqa: F401
from .kernel import _HS_NORM_SQ, k_eval
from .quadrature import QuadratureRule

__all__ = [
    "DiscretizedOperator",
    "Spectrum",
    "EigenfunctionHandle",
    "K2CrossCheck",
    "assemble",
    "eigensolve",
    "eigenfunction",
    "evaluate",
    "cross_validate_k2",
    "EIGENVALUE_FLOOR_SCALE",
    "K2_EIGEN_TOL",
]

# matrix eigenvalues with |mu| < EIGENVALUE_FLOOR_SCALE / N are treated as
# discretization noise and never inverted: an N-point grid resolves only
# O(N) of the infinitely many kernel eigenvalues
EIGENVALUE_FLOOR_SCALE = 1e-3

# evaluate takes x in blocks of rows holding about this many kernel entries
# (256 KB), so that a block's kernel matrix stays in cache
_EVAL_BLOCK = 1 << 15

# gate tol for the iterated-kernel matrix; at N = 128 eigh's residual on it
# is ~1e-18 and its orthogonality defect ~1e-15
K2_EIGEN_TOL = 1e-12

# fewest K2 rows per fill process.  A fork pool's round trip costs 6-9 ms
# and a row 2-14 ms (N = 16..128); medians over 31 alternating fills on 2
# cores: 16 rows 29-42 ms in one process and 33-43 ms in two (break-even),
# 32 rows 73-80 ms in one and 58-64 ms in two.  A fill of fewer than
# 2 _ROWS_PER_WORKER rows, the 8-node bench warm-up among them, stays
# in-process
_ROWS_PER_WORKER = 8


@dataclass(frozen=True)
class DiscretizedOperator:
    """Grid plus the symmetric Nystrom matrix sqrt(w_i w_j) K(x_i, x_j)."""

    grid: QuadratureRule
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.grid.nodes.size:
            raise ValueError(
                f"matrix is {m.shape[0]}x{m.shape[1]} but the grid has "
                f"{self.grid.nodes.size} nodes"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix must be finite (no inf or NaN entries)")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be exactly symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble(grid: QuadratureRule) -> DiscretizedOperator:
    """Discretize the kernel operator on the grid.

    One N x N kernel array is filled by k_eval and weighted in place;
    symmetrizing adds one more, so the peak is about 2 N^2 doubles, the
    same as k_eval's own fill.
    """
    x = grid.nodes
    return DiscretizedOperator(
        grid=grid, matrix=_weighted_symmetric(k_eval(x[:, None], x[None, :]), grid.weights))


def _weighted_symmetric(m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """0.5 (A + A^T) for A_ij = sqrt(w_i) m_ij sqrt(w_j), exactly symmetric regardless of rounding.

    m is overwritten with A; the sum is the one further N x N array.
    """
    sq = np.sqrt(weights)
    m *= sq[:, None]
    m *= sq
    out = m + m.T
    out *= 0.5
    return out


def _gated_eigh(matrix: np.ndarray, tol: float):
    """Symmetric eigendecomposition by LAPACK, checked after the fact.

    Returns (mu, v, residual, orthogonality) with mu ascending, where
    residual = max|A v - v diag(mu)| and orthogonality = max|v^T v - I|.
    Raises RuntimeError unless both are <= tol; a NaN fails the test too.
    """
    mu, v = np.linalg.eigh(matrix)
    residual = float(np.max(np.abs(matrix @ v - v * mu)))
    orthogonality = float(np.max(np.abs(v.T @ v - np.eye(mu.size))))
    if not (residual <= tol and orthogonality <= tol):
        raise RuntimeError(
            f"eigensolution fails its gate: residual {residual:.3e}, "
            f"orthogonality defect {orthogonality:.3e}, tol {tol:.1e} "
            f"(n = {mu.size})"
        )
    return mu, v, residual, orthogonality


@dataclass(frozen=True)
class Spectrum:
    """Kernel eigenvalues lambda_j = 1/mu_j with their eigenvectors.

    Ordered by |lambda_1| <= |lambda_2| <= ...; among equal moduli the
    positive eigenvalue comes first.  vectors[:, j] is the orthonormal
    matrix eigenvector for lambda_j (0-based column for the 1-based j).
    residual and orthogonality are the eigensolver gate's measurements,
    max|A V - V diag(mu)| and max|V^T V - I| over the full matrix spectrum.
    """

    eigenvalues: np.ndarray
    matrix_eigenvalues: np.ndarray
    vectors: np.ndarray
    floor: float = 0.0
    discarded: int = 0
    residual: float = 0.0
    orthogonality: float = 0.0

    def __len__(self) -> int:
        return int(self.eigenvalues.size)

    def multiplicity_groups(self, rel_tol: float = 1e-6) -> list[list[int]]:
        """Consecutive eigenvalues within rel_tol grouped as one index set.

        Echoes the notion of an eigenvalue's index (its multiplicity slot)
        without claiming exact degeneracy of the discretized values.
        Returned indices are 1-based like j elsewhere.
        """
        run = _tie_runs(self.eigenvalues, rel_tol)
        groups = np.split(np.arange(1, run.size + 1), np.flatnonzero(np.diff(run)) + 1)
        return [g.tolist() for g in groups if g.size]


# moduli within this relative distance count as equal for the tie-break;
# exact float equality would make the positive-first rule unreachable
_TIE_REL = 1e-12


def _tie_runs(v: np.ndarray, rel: float) -> np.ndarray:
    """Run ids of v: a neighbour within rel times the larger modulus of the two joins the run.

    A run can chain: its ends may lie farther apart than rel.
    """
    joined = np.abs(np.diff(v)) <= rel * np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    return np.concatenate(([0], np.cumsum(~joined)))[: v.size]


def _modulus_order(lam: np.ndarray) -> np.ndarray:
    """Sort indices by |lambda| ascending, positive before negative on ties."""
    order = np.argsort(np.abs(lam), kind="stable")
    sorted_lam = lam[order]
    mods = np.abs(sorted_lam)
    return order[np.lexsort((mods, np.signbit(sorted_lam), _tie_runs(mods, _TIE_REL)))]


def eigensolve(op: DiscretizedOperator, tol: float = 1e-11) -> Spectrum:
    """Eigensolve the discretized operator and invert to kernel eigenvalues.

    tol is an absolute bound on both the residual max|A V - V diag(mu)| and
    the orthogonality defect max|V^T V - I| of the matrix eigensolution;
    RuntimeError if either exceeds it.  Matrix eigenvalues below the noise
    floor are discarded rather than inverted.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mu, v, residual, orthogonality = _gated_eigh(op.matrix, tol)
    floor = EIGENVALUE_FLOOR_SCALE / op.size
    keep = np.abs(mu) >= floor
    mu_kept = mu[keep]
    v_kept = v[:, keep]
    lam = 1.0 / mu_kept
    order = _modulus_order(lam)
    return Spectrum(
        eigenvalues=lam[order],
        matrix_eigenvalues=mu_kept[order],
        vectors=v_kept[:, order],
        floor=floor,
        discarded=int(np.sum(~keep)),
        residual=residual,
        orthogonality=orthogonality,
    )


@dataclass(frozen=True)
class EigenfunctionHandle:
    """Node values of one eigenfunction, unit-norm in the grid product."""

    eigenvalue: float
    node_values: np.ndarray
    grid: QuadratureRule
    sign_convention: str

    def __call__(self, x):
        return evaluate(self, x)


def eigenfunction(spectrum: Spectrum, j: int, grid: QuadratureRule) -> EigenfunctionHandle:
    """Handle for the j-th eigenfunction (j counts from 1).

    Node values are v_i / sqrt(w_i), renormalized to exact unit grid norm.
    Sign: phi_j(1) > 0; if phi_j(1) is numerically zero (below 1e-9), the
    node value of largest magnitude is made positive instead.
    """
    if not isinstance(j, numbers.Integral):
        raise ValueError(f"j must be an integer, got {j!r}")
    if not 1 <= j <= len(spectrum):
        raise ValueError(f"j must be in 1..{len(spectrum)}, got {j}")
    if spectrum.vectors.shape[0] != grid.nodes.size:
        raise ValueError("grid does not match the spectrum's discretization")
    lam = float(spectrum.eigenvalues[j - 1])
    w = grid.weights
    phi = spectrum.vectors[:, j - 1] / np.sqrt(w)
    phi = phi / math.sqrt(float(np.dot(w, phi * phi)))
    at_one = lam * float(np.dot(w * phi, k_eval(1.0, grid.nodes)))
    if abs(at_one) >= 1e-9:
        sign = math.copysign(1.0, at_one)
        tag = "phi(1) > 0"
    else:
        sign = math.copysign(1.0, phi[int(np.argmax(np.abs(phi)))])
        tag = "largest node value > 0 (phi(1) numerically zero)"
    return EigenfunctionHandle(
        eigenvalue=lam, node_values=sign * phi, grid=grid, sign_convention=tag
    )


def evaluate(handle: EigenfunctionHandle, x):
    """Nystrom interpolation lambda * sum_i w_i K(x, x_i) phi(x_i).

    Vectorized over x, any shape, which the result keeps; returns a float
    for scalar input.  Exactly zero at x = 0 because the kernel row there
    vanishes identically.  x outside [0, 1] (NaN included) is a ValueError.

    The points go through in blocks of rows of about _EVAL_BLOCK kernel
    entries, one k_eval and one BLAS matrix-vector product each, so memory
    stays near two blocks of the kernel matrix (0.5 MB) whatever the
    number of points.  BLAS sums rows in groups of four and a row left
    over from them in another order, so a value matches the one-shot
    product over all points bit for bit where both put its row in a group
    (at 2000 points on 256 nodes with 1, 2 or 4 BLAS threads), and to
    rounding elsewhere.
    """
    xa = np.asarray(x, dtype=float)
    # min and max propagate NaN, so NaN fails the check
    if not (0.0 <= xa.min(initial=1.0) and xa.max(initial=0.0) <= 1.0):
        raise ValueError("evaluate requires x in [0, 1]")
    nodes = handle.grid.nodes
    coeff = handle.grid.weights * handle.node_values
    flat = xa.reshape(-1, 1)
    vals = np.empty(flat.shape[0])
    rows = max(1, _EVAL_BLOCK // nodes.size)
    for start in range(0, vals.size, rows):
        vals[start:start + rows] = k_eval(flat[start:start + rows], nodes) @ coeff
    vals *= handle.eigenvalue
    if xa.ndim == 0:
        return float(vals[0])
    return vals.reshape(xa.shape)


@dataclass(frozen=True)
class K2CrossCheck:
    """Comparison of the iterated-kernel route against the direct route.

    rel_discrepancies[h] compares the (h+1)-th largest matrix eigenvalue of
    the iterated-kernel operator with 1/lambda_{h+1}^2 from the direct
    spectrum.  k2_matrix_eigenvalues holds the full iterated-route matrix
    spectrum (descending), trace_partial_sums the running sums of
    1/lambda_j^2, hs_norm_sq the grid integral of the exact diagonal, and
    hs_norm_error its distance to the exact ||K||_HS^2
    (kernel._HS_NORM_SQ).
    residual is the eigensolver gate's max|A V - V diag(mu)| on the
    iterated-kernel matrix, within K2_EIGEN_TOL.  fill_s and eigensolve_s
    are the wall times of that matrix's fill and of its eigensolve, and
    fill_workers the number of processes that filled it in row stripes.
    """

    rel_discrepancies: np.ndarray
    k2_matrix_eigenvalues: np.ndarray
    trace_partial_sums: np.ndarray
    hs_norm_sq: float
    count: int = 0
    residual: float = 0.0
    fill_s: float = 0.0
    eigensolve_s: float = 0.0
    fill_workers: int = 1

    @property
    def hs_norm_error(self) -> float:
        return self.hs_norm_sq - _HS_NORM_SQ


def _fill_workers(n: int) -> int:
    """Processes for an n-row K2 fill: min(usable cores, n // _ROWS_PER_WORKER), at least 1.

    1 where the os module has no fork or sched_getaffinity, and inside a
    daemonic multiprocessing worker, whose pool already spreads the cores.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // _ROWS_PER_WORKER))


def _stripe(x: np.ndarray, tol: float, k: int, workers: int) -> list[np.ndarray]:
    """Rows _k2_row(x[i], x[i:], tol) of ascending nodes x for i = k mod workers."""
    return [_k2_row(float(x[i]), x[i:], tol) for i in range(k, x.size, workers)]


def _k2_rows(x: np.ndarray, tol: float, workers: int) -> list[np.ndarray]:
    """The rows of every _stripe: stripe 0 here, the others in a fork pool (module docstring)."""
    if workers == 1:
        return _stripe(x, tol, 0, 1)
    from concurrent.futures import ProcessPoolExecutor

    rows = [None] * x.size
    others = set(multiprocessing.active_children())
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        stripes = [pool.submit(_stripe, x, tol, k, workers) for k in range(1, workers)]
        try:
            rows[::workers] = _stripe(x, tol, 0, workers)
        except BaseException:
            for stripe in stripes:
                stripe.cancel()
            for child in set(multiprocessing.active_children()) - others:
                child.terminate()
            raise
        for k, stripe in enumerate(stripes, 1):
            rows[k::workers] = stripe.result()
    return rows


def _assemble_k2(grid: QuadratureRule, kernel_tol: float) -> tuple[np.ndarray, int]:
    """The weighted K2 Nystrom matrix on the grid, and the number of processes that filled it.

    Row i of the upper triangle (nodes sorted, x[i] the row's minimum) is
    one batched _k2_row call, filled in _fill_workers(N) row stripes (see
    the module docstring).  kernel_tol is the caller's to check.
    """
    order = np.argsort(grid.nodes, kind="stable")
    x = grid.nodes[order]
    n = x.size
    workers = _fill_workers(n)
    raw = np.empty((n, n))
    for i, row in enumerate(_k2_rows(x, kernel_tol, workers)):
        raw[order[i], order[i:]] = row
        raw[order[i:], order[i]] = row
    return _weighted_symmetric(raw, grid.weights), workers


def cross_validate_k2(
    grid: QuadratureRule,
    count: int = 10,
    spectrum: Spectrum | None = None,
    kernel_tol: float = 1e-7,
) -> K2CrossCheck:
    """Eigensolve the iterated-kernel operator and compare routes.

    The iterated kernel is continuous, so its Nystrom eigenvalues converge
    faster than the direct route's; agreement of 1/lambda_j^2 with the
    iterated matrix eigenvalues is therefore a genuine two-route check, not
    a tautology.  A precomputed direct spectrum can be passed to skip the
    direct eigensolve.  count (>= 1) is capped at the available pairs.

    The iterated-kernel matrix is filled in row stripes by fill_workers
    processes; the values are bit-identical to the in-process fill whatever
    their number (see the module docstring).  kernel_tol, the absolute
    target of one matrix entry, must be in (0, 1).
    """
    if not 0.0 < kernel_tol < 1.0:
        raise ValueError(f"kernel_tol must be in (0, 1), got {kernel_tol}")
    if not isinstance(count, numbers.Integral):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spectrum is None:
        spectrum = eigensolve(assemble(grid))
    # the fill's pool loads here, so that fill_s times the fill alone
    import concurrent.futures.process  # noqa: F401

    t0 = time.perf_counter()
    m2, workers = _assemble_k2(grid, kernel_tol)
    t1 = time.perf_counter()
    mu2, _, residual, _ = _gated_eigh(m2, K2_EIGEN_TOL)
    t2 = time.perf_counter()
    mu2 = mu2[::-1]
    lam = spectrum.eigenvalues
    count = min(count, lam.size, mu2.size)
    inv_sq = 1.0 / lam[:count] ** 2
    rel = np.abs(mu2[:count] - inv_sq) / inv_sq
    hs = float(np.dot(grid.weights, [k2_diag_exact(float(t)) for t in grid.nodes]))
    return K2CrossCheck(
        rel_discrepancies=rel,
        k2_matrix_eigenvalues=mu2,
        trace_partial_sums=np.cumsum(1.0 / lam**2),
        hs_norm_sq=hs,
        count=count,
        residual=residual,
        fill_s=t1 - t0,
        fill_workers=workers,
        eigensolve_s=t2 - t1,
    )
