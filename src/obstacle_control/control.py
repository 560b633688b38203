"""Symmetric 2x2 matrix control fields and the admissible-set machinery.

The control q is a continuous piecewise-bilinear field of symmetric 2x2
matrices, stored as nodal components (q11, q22, q12). Admissibility means
q_min*I <= q(x) <= q_max*I in the ordering of symmetric matrices, checked
per node through determinant and trace positivity of the shifted matrices.
A logarithmic barrier keeps optimization iterates inside the admissible
cone; a closed-form eigenvalue projection provides the safeguard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import CoefficientError, DimensionError
from .fem import GridSystem, StructuredMesh, assemble_stiffness, same_mesh
from .linsolve import solve_spd


@dataclass(frozen=True)
class MatrixControlField:
    """Nodal symmetric 2x2 matrix field with components (q11, q22, q12)."""

    mesh: StructuredMesh
    comps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.comps, dtype=float)
        if arr.shape != (self.mesh.n_nodes, 3):
            raise DimensionError(
                f"expected ({self.mesh.n_nodes}, 3) components, "
                f"got {arr.shape}")
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise CoefficientError(
                "coefficient has a non-finite component at node "
                f"{int(np.argmin(finite))}")
        arr.flags.writeable = False
        object.__setattr__(self, "comps", arr)

    @cached_property
    def stiffness(self) -> GridSystem:
        """Dirichlet stiffness K_q, checked definite and assembled once.

        q is positive definite at every node or raises CoefficientError
        before anything is assembled or cached; on each cell q is a convex
        combination of its four nodal matrices, so it is then definite
        everywhere. The one place the boundary is pinned: every other
        system of q derives from it by `pin` or `plus`."""
        report = check_admissible(self, 0.0, np.inf)
        if not report.admissible:
            raise CoefficientError("coefficient not positive definite at "
                                   f"node {report.worst_node}")
        return assemble_stiffness(self.mesh, self)

    @classmethod
    def constant(cls, mesh: StructuredMesh, mat) -> "MatrixControlField":
        """Constant field of a symmetric 2x2 matrix."""
        m = np.asarray(mat, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("expected a symmetric 2x2 matrix")
        if abs(m[0, 1] - m[1, 0]) > 1e-14 * (1.0 + abs(m[0, 1])):
            raise ValueError("constant control matrix must be symmetric")
        return cls(mesh, np.tile([m[0, 0], m[1, 1], m[0, 1]],
                                 (mesh.n_nodes, 1)))

    @classmethod
    def from_function(cls, mesh: StructuredMesh,
                      fn: Callable) -> "MatrixControlField":
        """Nodal interpolant of fn(x, y) -> (q11, q22, q12)."""
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        comps = np.stack([np.broadcast_to(np.asarray(c, float), x.shape)
                          for c in fn(x, y)], axis=1)
        return cls(mesh, comps)

    def __add__(self, other: "MatrixControlField") -> "MatrixControlField":
        return MatrixControlField(same_mesh(self, other),
                                  self.comps + other.comps)

    def __sub__(self, other: "MatrixControlField") -> "MatrixControlField":
        return MatrixControlField(same_mesh(self, other),
                                  self.comps - other.comps)

    def __mul__(self, s: float) -> "MatrixControlField":
        return MatrixControlField(self.mesh, self.comps * s)

    __rmul__ = __mul__


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    worst_node: int
    worst_value: float


@dataclass(frozen=True)
class BarrierEval:
    """Barrier value and its gradient density at the 2x2 Gauss points,
    (n_cells, 4, 3); value +inf and density None off the admissible set."""

    value: float
    density: Optional[np.ndarray]


def _shifted_tests(comps: np.ndarray, q_min: float,
                   q_max: float) -> np.ndarray:
    """Determinant/trace tests of q - q_min*I and q_max*I - q, per node.

    Returns an (n, 4) array (det_lo, tr_lo, det_hi, tr_hi); all four must
    be strictly positive for admissibility.
    """
    a, b, c = comps[:, 0], comps[:, 1], comps[:, 2]
    det_lo = (a - q_min) * (b - q_min) - c * c
    tr_lo = (a - q_min) + (b - q_min)
    det_hi = (q_max - a) * (q_max - b) - c * c
    tr_hi = (q_max - a) + (q_max - b)
    return np.column_stack([det_lo, tr_lo, det_hi, tr_hi])


def check_admissible(q: MatrixControlField, q_min: float,
                     q_max: float) -> AdmissibilityReport:
    """Per-node determinant/trace test of the spectral bounds.

    Admissible means q - q_min*I and q_max*I - q are both positive definite
    at every node. The report carries the worst node and the minimum of the
    four test quantities there (nonpositive when inadmissible).
    """
    if q_min >= q_max:
        raise ValueError("q_min must be below q_max")
    tests = _shifted_tests(q.comps, q_min, q_max)
    per_node = tests.min(axis=1)
    worst = int(np.argmin(per_node))
    worst_val = float(per_node[worst])
    return AdmissibilityReport(worst_val > 0.0, worst, worst_val)


def barrier(q: MatrixControlField, q_min: float, q_max: float,
            admissibility: Optional[AdmissibilityReport] = None
            ) -> BarrierEval:
    """Logarithmic barrier of the spectral bounds and its gradient density.

    value = -integral[ log det(q - q_min I) + log det(q_max I - q) ],
    evaluated by interpolating q to the 2x2 Gauss points; the density
    (q_max I - q)^{-1} - (q - q_min I)^{-1} at those points, components
    (11, 22, 12), lifts by riesz_lift to the exact L2 gradient of that
    quadrature value. Infeasible q (nodal determinant/trace test, which is
    authoritative even where the log arguments happen to be positive)
    yields value = +inf, density = None. A caller that already ran
    check_admissible(q, q_min, q_max) passes its report as `admissibility`.
    """
    mesh = q.mesh
    if admissibility is None:
        admissibility = check_admissible(q, q_min, q_max)
    if not admissibility.admissible:
        return BarrierEval(np.inf, None)
    qg = mesh.at_quadrature(q.comps)
    a = qg[:, :, 0] - q_min
    b = qg[:, :, 1] - q_min
    c = qg[:, :, 2]
    det_lo = a * b - c * c
    ah = q_max - qg[:, :, 0]
    bh = q_max - qg[:, :, 1]
    det_hi = ah * bh - c * c
    # nodal feasibility implies quadrature feasibility by convexity; guard
    # against roundoff at extreme margins anyway
    if np.any(det_lo <= 0.0) or np.any(det_hi <= 0.0):
        return BarrierEval(np.inf, None)
    value = -mesh.integral(np.log(det_lo) + np.log(det_hi))
    # inverse of [[a, c], [c, b]] is [[b, -c], [-c, a]] / det, so the
    # diagonal entries swap; the off-diagonal of q_max I - q is -q12
    return BarrierEval(value, np.stack((bh / det_hi - b / det_lo,
                                        ah / det_hi - a / det_lo,
                                        c / det_hi + c / det_lo), axis=-1))


def riesz_lift(mesh: StructuredMesh, densities: np.ndarray) -> np.ndarray:
    """Nodal L2 Riesz representatives of densities at the 2x2 Gauss points.

    densities has shape (n_cells, 4, k); each of the k columns is tested
    against the Q1 basis and lifted through the consistent mass matrix,
    all in one exact mass solve. Returns shape (n_nodes, k).
    """
    loads = mesh.integrate(densities)
    lifted, _ = solve_spd(mesh.mass_operator, loads)
    return lifted


def project_spectral(q: MatrixControlField, q_min: float, q_max: float,
                     margin: float = 0.0) -> MatrixControlField:
    """Clamp per-node eigenvalues into [q_min + margin, q_max - margin].

    Uses the closed-form 2x2 eigendecomposition: the deviatoric part of q
    is rescaled so the eigenvalue pair lands on its clamped values, which
    avoids forming eigenvectors. Feasible fields with margin 0 are fixed
    points.
    """
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    lo_bound, hi_bound = q_min + margin, q_max - margin
    if lo_bound > hi_bound:
        raise ValueError("margin exceeds half the spectral gap")
    q11, q22, q12 = q.comps.T
    mid = 0.5 * (q11 + q22)
    rad = np.sqrt(0.25 * (q11 - q22) ** 2 + q12 ** 2)
    lo = np.clip(mid - rad, lo_bound, hi_bound)
    hi = np.clip(mid + rad, lo_bound, hi_bound)
    new_mid = 0.5 * (lo + hi)
    safe_rad = np.where(rad > 0.0, rad, 1.0)
    ratio = np.where(rad > 0.0, 0.5 * (hi - lo) / safe_rad, 0.0)
    comps = np.column_stack([
        new_mid + ratio * (q11 - mid),
        new_mid + ratio * (q22 - mid),
        ratio * q12,
    ])
    return MatrixControlField(q.mesh, comps)


def control_inner(a: MatrixControlField, b: MatrixControlField) -> float:
    """L2 Frobenius inner product; the off-diagonal component counts twice."""
    m = same_mesh(a, b).mass_matrix
    ac, bc = a.comps, b.comps
    return float(ac[:, 0] @ (m @ bc[:, 0]) + ac[:, 1] @ (m @ bc[:, 1])
                 + 2.0 * (ac[:, 2] @ (m @ bc[:, 2])))


def control_norm(a: MatrixControlField) -> float:
    return float(np.sqrt(max(control_inner(a, a), 0.0)))
