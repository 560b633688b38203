"""Q1 finite elements on structured grids of the square (-1, 1)^2.

Uniform quadrilateral meshes at dyadic refinement levels, bilinear shape
functions with 2x2 Gauss quadrature, and assembly of the sparse operators
used throughout the package: stiffness with a symmetric 2x2 matrix
coefficient, consistent and lumped mass, and load vectors. The mesh owns
the CSR pattern of its nine-point stencil, which every operator on it
shares, and one scatter of per-cell matrices writes their data. Homogeneous
Dirichlet conditions, and every other pinned node, are imposed by
symmetric row/column elimination with identity diagonal (a mask on that
data, never a copy of it), so all operators stay usable by symmetric
solvers. A pinned operator is a `GridSystem`: its mesh, unpinned stencil
data and the mask of its pinned nodes. It derives the systems that pin
more nodes or add data on the same mesh, and builds once the geometric
multigrid preconditioner its solves use, whose coarsest grid is factored
from a masked band read off the diagonals of its matrix. The consistent
mass matrix is a Kronecker product of 1-D masses, solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import CapacityError, DimensionError, NonFiniteError, \
    SolverError

if TYPE_CHECKING:
    from .control import MatrixControlField

MAX_LEVEL = 12
# Gauss points per axis and cell of l2_error_vs_function, and the cells
# it evaluates at once
_ERROR_ORDER = 4
_ERROR_BLOCK = 4096

# local node order on the reference square [-1,1]^2, counter-clockwise
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])
# grid offset (di, dj) of each local node from its cell's first corner
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
# stencil slot 3*(dj+1) + (di+1) at local node a of its coupling to b
_SLOTS = np.array([[3 * (bj - aj + 1) + bi - ai + 1 for bi, bj in _CORNERS]
                   for ai, aj in _CORNERS])


def _shape_values(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Bilinear shape functions N_a at reference points; shape (npts, 4)."""
    return 0.25 * (1.0 + np.outer(xi, _XI)) * (1.0 + np.outer(eta, _ETA))


def _shape_gradients(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Reference gradients dN_a/d(xi,eta) at reference points; (npts, 4, 2)."""
    npts = len(xi)
    grads = np.empty((npts, 4, 2))
    grads[:, :, 0] = 0.25 * _XI * (1.0 + np.outer(eta, _ETA))
    grads[:, :, 1] = 0.25 * _ETA * (1.0 + np.outer(xi, _XI))
    return grads


def _outer(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-point outer products s[g, a] * t[g, b] as a (4, 16) array."""
    return (s[:, :, None] * t[:, None, :]).reshape(4, 16)


class StructuredMesh:
    """Uniform quadrilateral mesh of (-1,1)^2 with 2^level cells per side.

    Nodes are numbered row by row: node (i, j) sits at index j*(n+1)+i with
    coordinates (-1 + i*h, -1 + j*h). Cells store their four corner nodes
    counter-clockwise. All arrays are frozen after construction.

    The mesh also owns the CSR pattern of the Q1 nine-point stencil, which
    every operator assembled on it shares: node (i, j) couples to
    (i+di, j+dj) for di, dj in {-1, 0, 1}, slot 3*(dj+1) + (di+1) of the
    (n+1, n+1, 9) slot grid that `assemble` writes. Gathering the slots
    whose neighbour exists (`valid`), in row-major order, gives the CSR
    data (`nnz` entries) with sorted column indices. `csr` wraps data on
    it as a matrix, so sums act on data.

    Attributes
    ----------
    level : int
        Dyadic refinement level.
    cells_per_side : int
        2**level cells along each axis.
    h : float
        Cell width, 2 / cells_per_side.
    nodes : ndarray, shape (n_nodes, 2)
    cells : ndarray, shape (n_cells, 4)
    boundary_mask : ndarray of bool, shape (n_nodes,)
    """

    def __init__(self, level: int):
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if level > MAX_LEVEL:
            raise CapacityError(
                f"level {level} exceeds the memory guard (max {MAX_LEVEL})")
        n = 2 ** level
        n1 = n + 1
        self.level = level
        self.cells_per_side = n
        self.h = 2.0 / n
        xs = -1.0 + self.h * np.arange(n1)
        xs[-1] = 1.0
        X, Y = np.meshgrid(xs, xs)
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        ii, jj = np.meshgrid(np.arange(n), np.arange(n))
        v0 = (jj * n1 + ii).ravel()
        self.cells = np.column_stack([v0, v0 + 1, v0 + n1 + 1, v0 + n1])
        jj, ii = np.divmod(np.arange(n1 * n1), n1)
        self.boundary_mask = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
        dj, di = np.divmod(np.arange(9), 3)
        nbr_i = ii[:, None] + di - 1
        nbr_j = jj[:, None] + dj - 1
        valid = (nbr_i >= 0) & (nbr_i <= n) & (nbr_j >= 0) & (nbr_j <= n)
        self.valid = valid.reshape(n1, n1, 9)
        self.indptr = np.concatenate(
            [[0], np.cumsum(valid.sum(axis=1))]).astype(np.int32)
        self.indices = (nbr_j * n1 + nbr_i)[valid].astype(np.int32)
        self.nnz = self.indices.shape[0]
        for arr in (self.nodes, self.cells, self.boundary_mask, self.valid,
                    self.indptr, self.indices):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @cached_property
    def _reference(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Shape values, physical gradients, and w*detJ at the 2x2 rule."""
        g = 1.0 / np.sqrt(3.0)
        xi = np.array([-g, g, g, -g])
        eta = np.array([-g, -g, g, g])
        shape = _shape_values(xi, eta)
        # affine cells: J = (h/2) I, so physical gradients scale by 2/h
        grads = _shape_gradients(xi, eta) * (2.0 / self.h)
        scale = self.h * self.h / 4.0
        return shape, grads, scale

    def at_quadrature(self, values: np.ndarray, cells=None) -> np.ndarray:
        """Nodal values (n_nodes, ...) interpolated to the 2x2 Gauss points
        of the given cells (every cell when None); shape (k, 4, ...)."""
        shape, _, _ = self._reference
        nodes = self.cells if cells is None else self.cells[cells]
        flat = values.reshape(self.n_nodes, -1)[nodes]
        return np.matmul(shape, flat).reshape(nodes.shape + values.shape[1:])

    def gradients_at_quadrature(self, values: np.ndarray) -> np.ndarray:
        """Physical gradients of nodal values (n_nodes,) at the 2x2 Gauss
        points of every cell; shape (n_cells, 4, 2)."""
        _, grads, _ = self._reference
        return np.tensordot(values[self.cells], grads, axes=(1, 1))

    def integral(self, density: np.ndarray) -> float:
        """Integral of a density given at the 2x2 Gauss points."""
        _, _, scale = self._reference
        return scale * float(np.sum(density))

    def integrate(self, density: np.ndarray, cells=None) -> np.ndarray:
        """Load vector integral(f phi_i) of densities f given at the 2x2
        Gauss points of the given cells (every cell when None), (k, 4, ...);
        shape (n_nodes, ...). Terms add in increasing cell order, as in
        `assemble`, by one bincount per column."""
        shape, _, scale = self._reference
        nodes = (self.cells if cells is None else self.cells[cells]).ravel()
        extra = density.shape[2:]
        columns = np.prod(extra, dtype=int)
        flat = np.reshape(density, (-1, 4, columns))
        local = (scale * np.matmul(shape.T, flat)).reshape(-1, columns)
        return np.column_stack([
            np.bincount(nodes, column, minlength=self.n_nodes)
            for column in local.T]).reshape((self.n_nodes,) + extra)

    def assemble(self, local: np.ndarray, cells=None) -> np.ndarray:
        """Stencil data, unpinned, of per-cell 4x4 matrices (k, 4, 4), or
        one (4, 4), on the given cells (every cell when None): entry (a, b)
        adds to slot _SLOTS[a, b] of node a on the (n+1)^2 x 9 slot grid,
        by one bincount in increasing cell order."""
        nodes = self.cells if cells is None else self.cells[cells]
        # np.broadcast_to gives a read-only view, which bincount would copy
        index, weights = np.broadcast_arrays(9 * nodes[:, :, None] + _SLOTS,
                                             local)
        grid = np.bincount(index.ravel(), weights.ravel(),
                           minlength=9 * self.n_nodes)
        del index  # the largest array here goes before the gather allocates
        return grid[self.valid.ravel()]

    def mass_data(self, weight: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Stencil data, unpinned, of the mass matrix weighted by a density
        at the 2x2 Gauss points of the given cells, (k, 4)."""
        shape, _, scale = self._reference
        local = (scale * weight) @ _outer(shape, shape)
        return self.assemble(local.reshape(-1, 4, 4), cells)

    @cached_property
    def mass_matrix(self) -> sp.csr_matrix:
        """Consistent mass matrix, no boundary elimination."""
        shape, _, scale = self._reference
        return self.csr(self.assemble(scale * (shape.T @ shape)))

    @cached_property
    def mass_operator(self) -> "KroneckerMass":
        """The consistent mass matrix with its exact tensor-product solve."""
        return KroneckerMass(self)

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Row sums of the consistent mass matrix (all positive for Q1)."""
        return np.asarray(self.mass_matrix.sum(axis=1)).ravel()

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix with the given data on this mesh's pattern."""
        if data.shape != (self.nnz,):
            raise DimensionError(
                f"expected {self.nnz} stencil entries, got {data.shape}")
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes))

    def __repr__(self) -> str:
        return f"StructuredMesh(level={self.level})"


class KroneckerMass:
    """Consistent Q1 mass matrix of a structured mesh, solved exactly.

    With nodes numbered row by row, the mass matrix is kron(M1, M1) where
    M1 is the 1-D Q1 mass, tridiagonal h/6 [1 4 1] with h/3 at both ends.
    A solve is one banded Cholesky solve of M1 along each grid axis, for
    any number of right-hand-side columns at once (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964). `solve_spd` recognizes this operator.
    """

    def __init__(self, mesh: StructuredMesh):
        n1 = mesh.cells_per_side + 1
        h = mesh.h
        bands = np.empty((2, n1))
        bands[0] = h / 6.0
        bands[1] = 4.0 * h / 6.0
        bands[1, [0, -1]] = h / 3.0
        self.matrix = mesh.mass_matrix
        self._n1 = n1
        self._factor = cholesky_banded(bands)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b for b of shape (n_nodes,) or (n_nodes, k)."""
        n1 = self._n1
        factor = (self._factor, False)
        # rows of the node grid are the j axis: solve along j, then along i
        x = cho_solve_banded(factor, b.reshape(n1, -1), check_finite=False)
        x = x.reshape(n1, n1, -1).transpose(1, 0, 2).reshape(n1, -1)
        x = cho_solve_banded(factor, x, check_finite=False)
        return x.reshape(n1, n1, -1).transpose(1, 0, 2).reshape(b.shape)


def build_mesh(level: int) -> StructuredMesh:
    """Build the uniform mesh of (-1,1)^2 at the given refinement level."""
    return StructuredMesh(level)


@dataclass(frozen=True)
class ScalarField:
    """Nodal coefficients of a continuous piecewise-bilinear function."""

    mesh: StructuredMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.mesh.n_nodes,):
            raise DimensionError(
                f"expected {self.mesh.n_nodes} nodal values, got {vals.shape}")
        finite = np.isfinite(vals)
        if not finite.all():
            raise NonFiniteError("field has a non-finite value at node "
                                 f"{int(np.argmin(finite))}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(same_mesh(self, other), self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(same_mesh(self, other), self.values - other.values)

    def __mul__(self, s: float) -> "ScalarField":
        return ScalarField(self.mesh, self.values * s)

    __rmul__ = __mul__


def same_mesh(*operands) -> StructuredMesh:
    """The one mesh that operands (fields, controls, grid systems) live
    on, None operands skipped: the package's one check that they share a
    mesh. Raises DimensionError when they do not."""
    meshes = [op.mesh for op in operands if op is not None]
    if any(mesh is not meshes[0] for mesh in meshes):
        raise DimensionError("operands live on different meshes")
    return meshes[0]


def interpolate(mesh: StructuredMesh, f: Callable) -> ScalarField:
    """Nodal interpolant of a pointwise function f(x, y)."""
    return ScalarField(mesh, f(mesh.nodes[:, 0], mesh.nodes[:, 1]))


# the multigrid hierarchy ends in an exact banded Cholesky solve on the
# first grid with at most 2**COARSEST_LEVEL cells per side
COARSEST_LEVEL = 5
# Jacobi damping of the smoother, capped per row below 2 / (row l1-norm)
_OMEGA = 0.8
_L1_CAP = 1.8


@dataclass(frozen=True)
class GridSystem:
    """SPD system on the nine-point stencil of a mesh's (2^L + 1)^2 nodes.

    Held as its mesh, stencil data on the mesh's pattern, unpinned, and
    the boolean mask of the nodes it pins (boundary nodes, and whatever
    else a solver pins), with no pinned copy: `K @ v` is the product, bit
    for bit, of the data with identity rows and columns there. `solve_spd`
    zeroes the right-hand side there, so the solution is exactly zero on
    them, and solves the rest by conjugate gradients preconditioned with
    the geometric multigrid V-cycle of `multigrid`, set up once per system
    and cached. `pin` and `plus` derive the systems the solvers need from
    one stiffness, on its mesh: each keeps every node its source pins.
    """

    mesh: StructuredMesh
    data: np.ndarray
    dirichlet_mask: np.ndarray

    def __post_init__(self):
        if self.dirichlet_mask.dtype != bool:
            raise TypeError("a grid system's mask must be boolean, not "
                            f"{self.dirichlet_mask.dtype}")
        if self.data.shape != (self.mesh.nnz,) \
                or self.dirichlet_mask.shape != (self.mesh.n_nodes,):
            raise DimensionError(
                "a grid system is data on a mesh's stencil with a mask of "
                "its nodes")

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        """The unpinned matrix of the data, a view that shares it."""
        return self.mesh.csr(self.data)

    def pin(self, mask: np.ndarray) -> "GridSystem":
        """This system with the nodes of mask pinned too, on the same
        data. Raises DimensionError unless mask has one entry per node."""
        if np.shape(mask) != self.dirichlet_mask.shape:
            raise DimensionError("mask must have one entry per node")
        return GridSystem(self.mesh, self.data, self.dirichlet_mask | mask)

    def plus(self, data: np.ndarray) -> "GridSystem":
        """The system of the sum with other data on the mesh, pinned on the
        same nodes; DimensionError unless data fills the stencil."""
        if np.shape(data) != self.data.shape:
            raise DimensionError("data must have one entry per stencil entry")
        return GridSystem(self.mesh, self.data + data, self.dirichlet_mask)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        # identity on the pinned rows; elsewhere the pinned columns drop out
        out = self._csr @ np.where(self.dirichlet_mask, 0.0, v)
        out[self.dirichlet_mask] = v[self.dirichlet_mask]
        return out

    @cached_property
    def multigrid(self) -> Callable[[np.ndarray], np.ndarray]:
        """Symmetric V-cycle r -> z approximating the inverse of the matrix,
        set up once per system from the unpinned data and the mask.

        Each grid above the coarsest is smoothed by two damped-Jacobi
        sweeps before and after its coarse correction; a pinned row gets
        weight 0, so the smoother never writes a pinned node. The coarse
        operator is Galerkin, P'AP, with P the bilinear `prolongation`
        with the rows of pinned fine nodes and the columns of pinned
        coarse nodes zeroed: a coarse node is pinned where its fine node
        is, so every free coarse node keeps its own free fine node and
        P'AP stays positive definite; pinned coarse nodes get identity
        rows. The coarsest grid (at most 32 cells per side) is solved
        exactly by banded Cholesky, its band read off the matrix's
        diagonals and pinned (P'AP of a nine-point operator is nine-point),
        so below level 6 the V-cycle is a direct solve. Raises SolverError
        on a nonpositive free diagonal entry and a failed coarsest factor.
        """
        mat, pinned, level = self._csr, self.dirichlet_mask, self.mesh.level
        if not np.all(mat.diagonal()[~pinned] > 0.0):
            raise SolverError("matrix has a nonpositive diagonal entry")
        grids = []
        while level > COARSEST_LEVEL:
            n1 = 2 ** level + 1
            coarse = pinned.reshape(n1, n1)[::2, ::2].ravel()
            p = prolongation(level)
            rows = np.repeat(pinned, np.diff(p.indptr))
            p.data[rows | coarse[p.indices]] = 0.0
            # l1 over the free columns; each row holds its diagonal
            l1 = np.add.reduceat(np.where(pinned[mat.indices], 0.0,
                                          np.abs(mat.data)), mat.indptr[:-1])
            free, weights = ~pinned, np.zeros(pinned.shape)
            weights[free] = np.minimum(_OMEGA / mat.diagonal()[free],
                                       _L1_CAP / l1[free])
            grids.append((mat, weights, p))
            # P'AP over the free fine rows: those of P are zero and the
            # pinned matrix's AP keeps none, so its column order is kept
            mat = (p[free].T.tocsr() @ (mat @ p)[free]
                   + sp.diags(coarse.astype(float))).tocsr()
            pinned = coarse
            level -= 1
        try:
            factor = (cholesky_banded(_band(mat, 2 ** level + 1, pinned),
                                      overwrite_ab=True, check_finite=False),
                      False)
        except np.linalg.LinAlgError as exc:
            raise SolverError("banded Cholesky factorization of the coarsest "
                              f"grid failed: {exc}") from exc

        def vcycle(r: np.ndarray) -> np.ndarray:
            # down: smooth from zero, restrict the residual; up: correct
            # from the coarser grid, smooth again
            down = []
            for a, s, p in grids:
                x = s * r
                x += s * (r - a @ x)
                down.append((x, r))
                r = p.T @ (r - a @ x)
            e = cho_solve_banded(factor, r, check_finite=False)
            for (a, s, p), (x, r) in zip(reversed(grids), reversed(down)):
                x += p @ e
                x += s * (r - a @ x)
                x += s * (r - a @ x)
                e = x
            return e

        return vcycle


def _band(mat: sp.csr_matrix, n1: int, pinned: np.ndarray) -> np.ndarray:
    """LAPACK upper band storage (kd = n1 + 1) of a symmetric nine-point
    matrix on the n1 x n1 grid nodes, pinned, read from its diagonals 0, 1,
    n1 - 1, n1 and n1 + 1 (at n1 = 2 the second and third coincide)."""
    kd, n = n1 + 1, mat.shape[0]
    bands = np.zeros((kd + 1, n))
    for offset in (0, 1, n1 - 1, n1, n1 + 1):
        cut = pinned[:n - offset] | pinned[offset:]
        bands[kd - offset, offset:] = np.where(cut, 0.0, mat.diagonal(offset))
    bands[kd, pinned] = 1.0
    return bands


def prolongation(level: int) -> sp.csr_matrix:
    """Bilinear prolongation P = kron(P1, P1) from level - 1 to level.

    The one grid transfer of the package: the multigrid hierarchy zeroes
    its pinned rows and columns, the nested cold start of the obstacle
    solve applies it as it is, and its transpose maps a load vector to the
    coarse load vector of the same density, since every coarse basis
    function is the P-combination of fine ones. Built on every call: a
    cached copy would outlive the solve, and at level 8 it kept 10 MB more
    of the heap resident.
    """
    n = 2 ** level
    fine = np.arange(n + 1)
    odd = fine[1::2]
    # an even fine node is a coarse node; an odd one averages two
    p1 = sp.csr_matrix(
        (np.r_[np.where(fine % 2, 0.5, 1.0), np.full(odd.size, 0.5)],
         (np.r_[fine, odd], np.r_[fine // 2, odd // 2 + 1])),
        shape=(n + 1, n // 2 + 1))
    return sp.kron(p1, p1, format="csr")


def assemble_stiffness(mesh: StructuredMesh,
                       q: "MatrixControlField") -> GridSystem:
    """Stiffness system of the form (q grad u, grad v), pinned on the
    boundary.

    The nodal matrix coefficient q (components q11, q22, q12) may be any
    symmetric field, such as a sign-indefinite control direction; it is
    interpolated bilinearly to the 2x2 Gauss points of every cell. Nothing
    here checks that q is positive definite: a control's state operator is
    `MatrixControlField.stiffness`, which does.
    """
    if q.mesh is not mesh:
        raise DimensionError("coefficient lives on a different mesh")
    _, grads, scale = mesh._reference
    qg = mesh.at_quadrature(q.comps)
    q11, q22, q12 = qg[:, :, 0], qg[:, :, 1], qg[:, :, 2]
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    # ke[c, a, b] = scale * sum_g grad phi_a . q(g) grad phi_b: one product
    # per component with the (g, a*b) outer products of the gradients
    ke = scale * (q11 @ _outer(gx, gx) + q22 @ _outer(gy, gy)
                  + q12 @ (_outer(gx, gy) + _outer(gy, gx)))
    # the Gauss-point coefficient goes before the scatter builds its index
    del qg, q11, q22, q12
    data = mesh.assemble(ke.reshape(mesh.n_cells, 4, 4))
    return GridSystem(mesh, data, mesh.boundary_mask)


def assemble_load(mesh: StructuredMesh, f: Callable) -> ScalarField:
    """Load vector with components integral(f * phi_i), 2x2 Gauss per cell."""
    xg = mesh.at_quadrature(mesh.nodes)
    fg = f(xg[:, :, 0], xg[:, :, 1])
    fg = np.broadcast_to(np.asarray(fg, dtype=float), xg.shape[:2])
    return ScalarField(mesh, mesh.integrate(fg))


def l2_inner(a: ScalarField, b: ScalarField) -> float:
    """L2 inner product through the consistent mass matrix."""
    return float(a.values @ (same_mesh(a, b).mass_matrix @ b.values))


def l2_norm(v: ScalarField) -> float:
    """L2 norm sqrt(v' M v) with the consistent mass matrix."""
    return float(np.sqrt(max(l2_inner(v, v), 0.0)))


def l2_error_vs_function(field: ScalarField, exact: Callable) -> float:
    """L2 distance between a nodal field and a pointwise function.

    Evaluates the bilinear interpolant and the exact function on a 4x4
    tensor Gauss rule per cell, so the discretization error of the field
    itself dominates the result. The per-cell integrals are filled in
    blocks of _ERROR_BLOCK cells, which bounds the temporaries, and summed
    once.
    """
    mesh = field.mesh
    pts, wts = np.polynomial.legendre.leggauss(_ERROR_ORDER)
    xi, eta = np.meshgrid(pts, pts)
    xi, eta = xi.ravel(), eta.ravel()
    w2 = np.outer(wts, wts).ravel() * mesh.h * mesh.h / 4.0
    shape = _shape_values(xi, eta)
    per_cell = np.empty(mesh.n_cells)
    for start in range(0, mesh.n_cells, _ERROR_BLOCK):
        cells = mesh.cells[start:start + _ERROR_BLOCK]
        uh = field.values[cells] @ shape.T
        xg = shape @ mesh.nodes[cells]
        ue = exact(xg[:, :, 0], xg[:, :, 1])
        per_cell[start:start + len(cells)] = (uh - ue) ** 2 @ w2
    err2 = per_cell.sum()
    return float(np.sqrt(max(err2, 0.0)))
