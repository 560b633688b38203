"""Symmetric positive definite solves for assembly and Newton systems.

Stiffness and Newton systems use conjugate gradients with a Jacobi
(diagonal) preconditioner, which handles the badly scaled diagonals produced
by large penalty parameters. The consistent mass matrix of a structured mesh
(`KroneckerMass`) is solved exactly by banded Cholesky along each grid axis,
for several right-hand sides at once, and each result is checked against
the same residual contract ||Ax - b|| <= tol * ||b|| that CG iterates to.
An optional sparse direct path exists for cross-checking either.
Non-finite input is refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .fem import KroneckerMass, ScalarField, SparseOperator


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    residual_norm: float
    method: str


def _as_csr_and_mask(A) -> tuple[sp.csr_matrix, Optional[np.ndarray]]:
    if isinstance(A, SparseOperator):
        return A.matrix, A.dirichlet_mask
    if sp.issparse(A):
        return A.tocsr(), None
    return sp.csr_matrix(np.asarray(A, dtype=float)), None


def _pcg(mat: sp.csr_matrix, b: np.ndarray, tol: float,
         x0: Optional[np.ndarray], max_iters: int,
         callback: Optional[Callable]) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned conjugate gradients to ||Ax-b|| <= tol*||b||."""
    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry")
    inv_diag = 1.0 / diag
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    target = tol * b_norm
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - mat @ x
    res = math.sqrt(r @ r)
    if res <= target:
        return x, 0, res
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iters + 1):
        ap = mat @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError(
                "matrix is not positive definite on the search space",
                LinearSolveReport(k, res, "pcg"))
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(r @ r)
        if callback is not None:
            callback(x.copy())
        if res <= target:
            return x, k, res
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"pcg did not reach tolerance {tol:g} in {max_iters} iterations "
        f"(residual {res:.3e}, target {target:.3e})",
        LinearSolveReport(max_iters, res, "pcg"))


def solve_spd(A: Union[KroneckerMass, SparseOperator, sp.spmatrix,
                       np.ndarray],
              b: Union[ScalarField, np.ndarray],
              tol: float = 1e-12,
              x0: Optional[np.ndarray] = None,
              max_iters: Optional[int] = None,
              method: str = "pcg",
              callback: Optional[Callable] = None):
    """Solve the SPD system A x = b.

    When A carries a Dirichlet mask, the right-hand side is zeroed on the
    eliminated rows so the solution carries the prescribed boundary values
    (zero). The returned solution mirrors the type of b.

    A `KroneckerMass` is solved exactly (banded Cholesky along each grid
    axis) and b may then hold several columns, shape (n, k); `method`
    "direct" still selects sparse LU for it, and x0, max_iters and callback
    do not apply. The residual of every column is checked against tol.

    Parameters
    ----------
    A : KroneckerMass, SparseOperator, sparse matrix, or dense array
    b : ScalarField or ndarray
    tol : float
        Relative residual target ||Ax - b|| <= tol * ||b||.
    x0 : ndarray, optional
        Warm-start vector (pcg only).
    max_iters : int, optional
        Iteration cap; defaults to max(1000, 4 * n).
    method : str
        "pcg" (baseline; the exact solve for a KroneckerMass) or "direct"
        (sparse LU cross-check path).
    callback : callable, optional
        Called with a copy of the iterate after each pcg step.

    Returns
    -------
    (solution, LinearSolveReport)

    Raises
    ------
    SolverError
        On a non-finite b or x0 (before any iteration), when pcg hits its
        iteration cap, or when a mass solve misses the residual target.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    rhs = b.values if isinstance(b, ScalarField) else np.asarray(b, float)
    if not np.isfinite(rhs).all():
        raise SolverError("right-hand side has non-finite entries")
    if x0 is not None and not np.isfinite(x0).all():
        raise SolverError("initial guess has non-finite entries")
    if isinstance(A, KroneckerMass):
        x, report = _solve_mass(A, rhs, tol, method)
    else:
        x, report = _solve_sparse(A, rhs, tol, x0, max_iters, method,
                                  callback)
    if isinstance(b, ScalarField):
        return ScalarField(b.mesh, x), report
    return x, report


def _solve_sparse(A, rhs, tol, x0, max_iters, method, callback):
    mat, mask = _as_csr_and_mask(A)
    if rhs.shape[0] != mat.shape[0]:
        raise ValueError("dimension mismatch between operator and rhs")
    if mask is not None:
        rhs = np.where(mask, 0.0, rhs)
    if method == "direct":
        x = spla.splu(mat.tocsc()).solve(rhs)
        res = float(np.linalg.norm(mat @ x - rhs))
        return x, LinearSolveReport(0, res, "direct")
    if method == "pcg":
        cap = max_iters if max_iters is not None else max(1000, 4 * mat.shape[0])
        x, its, res = _pcg(mat, rhs, tol, x0, cap, callback)
        return x, LinearSolveReport(its, res, "pcg")
    raise ValueError(f"unknown method {method!r}")


def _solve_mass(A: KroneckerMass, rhs, tol, method):
    """Exact mass solve of one or several columns, residual checked."""
    mat = A.matrix
    if rhs.shape[0] != mat.shape[0] or rhs.ndim > 2:
        raise ValueError("dimension mismatch between operator and rhs")
    if method == "direct":
        x = spla.splu(mat.tocsc()).solve(rhs)
    elif method == "pcg":
        method = "kronecker"
        x = A.solve(rhs)
    else:
        raise ValueError(f"unknown method {method!r}")
    res = np.linalg.norm(mat @ x - rhs, axis=0)
    report = LinearSolveReport(0, float(np.max(res)), method)
    # written so that a NaN residual fails it
    if not np.all(res <= tol * np.linalg.norm(rhs, axis=0)):
        raise SolverError(
            f"mass solve missed the residual target {tol:g} "
            f"(residual {report.residual_norm:.3e})", report)
    return x, report
