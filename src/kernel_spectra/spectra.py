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
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

# k2_closed (one entry of the K2 fill, unused here) stays importable from
# here: bench/test_bench.py checks that the span tracer wraps it in this module
from .iterated import K2Evaluator, _k2_row, k2_closed, k2_diag_exact  # noqa: F401
from .kernel import k_eval
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

# gate tol for the iterated-kernel matrix; at N = 128 eigh's residual on it
# is ~1e-18 and its orthogonality defect ~1e-15
K2_EIGEN_TOL = 1e-12


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
    """Discretize the kernel operator on the grid."""
    x = grid.nodes
    sq = np.sqrt(grid.weights)
    m = sq[:, None] * k_eval(x[:, None], x[None, :]) * sq[None, :]
    m = 0.5 * (m + m.T)  # exact symmetry regardless of rounding
    return DiscretizedOperator(grid=grid, matrix=m)


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
    ordering: str = "abs-ascending, positive first on ties"
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
        lam = self.eigenvalues
        groups: list[list[int]] = []
        for j in range(1, lam.size + 1):
            if groups:
                prev = lam[groups[-1][-1] - 1]
                cur = lam[j - 1]
                if abs(cur - prev) <= rel_tol * max(abs(cur), abs(prev)):
                    groups[-1].append(j)
                    continue
            groups.append([j])
        return groups


# moduli within this relative distance count as equal for the tie-break;
# exact float equality would make the positive-first rule unreachable
_TIE_REL = 1e-12


def _modulus_order(lam: np.ndarray) -> np.ndarray:
    """Sort indices by |lambda| ascending, positive before negative on ties."""
    order = np.argsort(np.abs(lam), kind="stable")
    mods = np.abs(lam[order])
    i = 0
    while i < order.size:
        j = i + 1
        while j < order.size and mods[j] - mods[j - 1] <= _TIE_REL * mods[j]:
            j += 1
        if j - i > 1:
            run = order[i:j]
            run_lam = lam[run]
            order[i:j] = run[np.lexsort((np.abs(run_lam), np.signbit(run_lam)))]
        i = j
    return order


def eigensolve(op: DiscretizedOperator, tol: float = 1e-11) -> Spectrum:
    """Eigensolve the discretized operator and invert to kernel eigenvalues.

    tol is an absolute bound on both the residual max|A V - V diag(mu)| and
    the orthogonality defect max|V^T V - I| of the matrix eigensolution;
    RuntimeError if either exceeds it.  Matrix eigenvalues below the noise
    floor are discarded rather than inverted.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
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

    Vectorized over x; returns a float for scalar input.  Exactly zero at
    x = 0 because the kernel row there vanishes identically.
    """
    xa = np.asarray(x, dtype=float)
    coeff = handle.grid.weights * handle.node_values
    vals = handle.eigenvalue * (
        k_eval(xa[..., None], handle.grid.nodes) @ coeff
    )
    if xa.ndim == 0:
        return float(vals)
    return vals


@dataclass(frozen=True)
class K2CrossCheck:
    """Comparison of the iterated-kernel route against the direct route.

    rel_discrepancies[h] compares the (h+1)-th largest matrix eigenvalue of
    the iterated-kernel operator with 1/lambda_{h+1}^2 from the direct
    spectrum.  k2_matrix_eigenvalues holds the full iterated-route matrix
    spectrum (descending), trace_partial_sums the running sums of
    1/lambda_j^2, and hs_norm_sq the grid integral of the exact diagonal.
    residual is the eigensolver gate's max|A V - V diag(mu)| on the
    iterated-kernel matrix, within K2_EIGEN_TOL.  fill_s and eigensolve_s
    are the wall times of that matrix's fill and of its eigensolve.
    """

    rel_discrepancies: np.ndarray
    k2_matrix_eigenvalues: np.ndarray
    trace_partial_sums: np.ndarray
    hs_norm_sq: float
    count: int = field(default=0)
    residual: float = 0.0
    fill_s: float = 0.0
    eigensolve_s: float = 0.0


def _assemble_k2(grid: QuadratureRule, kernel_tol: float) -> np.ndarray:
    K2Evaluator(tol=kernel_tol)  # rejects a tol outside (0, 1)
    order = np.argsort(grid.nodes, kind="stable")
    x = grid.nodes[order]
    n = x.size
    raw = np.empty((n, n))
    # row i of the upper triangle in one batched pass, x[i] being its minimum
    for i in range(n):
        raw[order[i], order[i:]] = _k2_row(float(x[i]), x[i:], kernel_tol)
        raw[order[i:], order[i]] = raw[order[i], order[i:]]
    sq = np.sqrt(grid.weights)
    m = sq[:, None] * raw * sq[None, :]
    return 0.5 * (m + m.T)


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
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spectrum is None:
        spectrum = eigensolve(assemble(grid))
    t0 = time.perf_counter()
    m2 = _assemble_k2(grid, kernel_tol)
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
        eigensolve_s=t2 - t1,
    )
