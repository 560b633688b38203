"""Symmetric positive definite solves on a structured mesh.

`solve_spd` takes one of the two operators the package builds. Every
system on a mesh's nine-point stencil is a `GridSystem` holding that mesh:
the Dirichlet stiffness K of a control, the active-set, VI-adjoint and
cone systems that pin more of its nodes (`K.pin`), and the Newton/adjoint
matrices K + D (`K.plus`), each pinned by a mask on shared stencil data.
Conjugate gradients multiply by the system itself (`K @ v`, the masked
product) and solve it to ||Ax - b|| <= 1e-12 ||b|| with a geometric
multigrid V-cycle as preconditioner, whose coarsest grid (at most 32
cells per side) is an exact banded Cholesky solve, so the iteration count
does not grow with the level and a system on at most 32 cells per side
converges in one iteration. The V-cycle is set up once per system and
kept with it: the VI adjoint solves the last active-set sweep's system
again without a new factor. The consistent mass matrix of a structured
mesh (`KroneckerMass`) is solved exactly by banded Cholesky along each
grid axis, for several right-hand sides at once, and each result is
checked against ||Ax - b|| <= 1e-13 ||b||. Any other operator and any
non-finite input are refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DimensionError, SolverError
from .fem import GridSystem, KroneckerMass


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    residual_norm: float


# relative residual target of CG on a grid system, and the check of an
# exact mass solve: ||Ax - b|| <= target * ||b||
_GRID_TOL = 1e-12
_MASS_TOL = 1e-13
# Measured maximum of the multigrid-preconditioned CG over the runners'
# solves: 13 iterations (the level-7 Newton steps of example2 at
# gamma = 1e12), 9 at level 6, 7 on the convergence run at levels 6-8 and
# 1 up to level 5. A CG preconditioned by the identity instead takes about
# 200 at level 7, so a broken V-cycle fails here rather than converging
# slowly.
_CG_MAX_ITERS = 100


def _pcg(A: GridSystem, b: np.ndarray, x0: Optional[np.ndarray]
         ) -> tuple[np.ndarray, int, float]:
    """Conjugate gradients to ||Ax-b|| <= _GRID_TOL*||b||, preconditioned
    by the system's multigrid V-cycle, set up first even for b = 0. The
    comparisons are written so that NaN fails them.
    """
    precondition = A.multigrid
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    target = _GRID_TOL * b_norm
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    # from zero, b - A x is b bit for bit: no product
    r = b.copy() if x0 is None else b - A @ x
    res = math.sqrt(r @ r)
    if res <= target:
        return x, 0, res
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, _CG_MAX_ITERS + 1):
        ap = A @ p
        pap = float(p @ ap)
        if not pap > 0.0:
            raise SolverError(
                "matrix or preconditioner is not positive definite on the "
                "search space", LinearSolveReport(k, res))
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(r @ r)
        if res <= target:
            return x, k, res
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"pcg did not reach tolerance {_GRID_TOL:g} in {_CG_MAX_ITERS} "
        f"iterations (residual {res:.3e}, target {target:.3e})",
        LinearSolveReport(_CG_MAX_ITERS, res))


def solve_spd(A: Union[GridSystem, KroneckerMass], b: np.ndarray,
              x0: Optional[np.ndarray] = None):
    """Solve the SPD system A x = b.

    A `GridSystem` is solved by multigrid-preconditioned CG to
    ||Ax - b|| <= 1e-12 ||b||, in at most 100 iterations; the right-hand
    side and the initial guess are zeroed on the rows of its Dirichlet
    mask, so the solution is exactly zero there. A `KroneckerMass` is
    solved exactly (banded Cholesky along each grid axis), b may then
    hold several columns, shape (n, k), and x0 does not apply; every
    column's residual is checked against ||Ax - b|| <= 1e-13 ||b||.

    Parameters
    ----------
    A : GridSystem or KroneckerMass
    b : ndarray
    x0 : ndarray, optional
        Warm-start vector of CG.

    Returns
    -------
    (solution, LinearSolveReport)

    Raises
    ------
    TypeError
        When A is neither a GridSystem nor a KroneckerMass.
    DimensionError
        When b, or x0, does not have one row per node of A's mesh.
    SolverError
        On a non-finite b or x0 (before any iteration), when the
        system's multigrid set-up fails (see `GridSystem.multigrid`),
        when CG meets a direction of nonpositive (or NaN) curvature, when
        CG hits its iteration cap, or when a mass solve misses the
        residual target.
    """
    if not isinstance(A, (GridSystem, KroneckerMass)):
        raise TypeError("solve_spd takes a GridSystem or a KroneckerMass, "
                        f"not {type(A).__name__}")
    rhs = np.asarray(b, float)
    if not np.isfinite(rhs).all():
        raise SolverError("right-hand side has non-finite entries")
    if x0 is not None and not np.isfinite(x0).all():
        raise SolverError("initial guess has non-finite entries")
    if isinstance(A, KroneckerMass):
        return _solve_mass(A, rhs)
    return _solve_grid(A, rhs, x0)


def _solve_grid(A: GridSystem, rhs, x0):
    mask = A.dirichlet_mask
    if rhs.shape != mask.shape or (x0 is not None
                                   and np.shape(x0) != mask.shape):
        raise DimensionError("rhs and x0 must have one entry per node")
    rhs = np.where(mask, 0.0, rhs)
    if x0 is not None:
        x0 = np.where(mask, 0.0, x0)
    x, its, res = _pcg(A, rhs, x0)
    return x, LinearSolveReport(its, res)


def _solve_mass(A: KroneckerMass, rhs):
    """Exact mass solve of one or several columns, residual checked."""
    mat = A.matrix
    if rhs.shape[0] != mat.shape[0] or rhs.ndim > 2:
        raise DimensionError("dimension mismatch between operator and rhs")
    x = A.solve(rhs)
    res = np.linalg.norm(mat @ x - rhs, axis=0)
    report = LinearSolveReport(0, float(np.max(res)))
    # written so that a NaN residual fails it
    if not np.all(res <= _MASS_TOL * np.linalg.norm(rhs, axis=0)):
        raise SolverError(
            f"mass solve missed the residual target {_MASS_TOL:g} "
            f"(residual {report.residual_norm:.3e})", report)
    return x, report
